"""Invariant checks that no other test reaches: each test here fails once its check is deleted."""

import contextlib
import dataclasses

import pytest

import anyonsim.entanglement as ent_mod
from anyonsim import AnyonState, InvariantBreachError, is_separable
from anyonsim.operators import hopping
from anyonsim.optics import _apply_orbit_exponential, scan_scope
from anyonsim.presets import split_pair


@pytest.mark.parametrize("in_scope", [False, True])
def test_a_moving_generator_with_an_imaginary_hop_is_not_hermitian(in_scope):
    # 0.3i (a+_1 a_2 + a+_2 a_1) moves both kets (mode 1 hops to mode 2) and is anti-Hermitian
    psi = AnyonState(4, 1.3, {0b0101: 0.6, 0b1001: 0.8j})
    with scan_scope() if in_scope else contextlib.nullcontext():
        with pytest.raises(InvariantBreachError, match="not Hermitian"):
            _apply_orbit_exponential(psi, hopping(4, 1, 2, 0.3j))


def test_separability_disagreeing_with_the_pair_normal_form_raises(monkeypatch):
    real = ent_mod.slater_decompose

    def rank_two(state, rank_tol):
        return dataclasses.replace(real(state, rank_tol=rank_tol), rank=2)

    monkeypatch.setattr(ent_mod, "slater_decompose", rank_two)
    with pytest.raises(InvariantBreachError, match="disagrees"):
        is_separable(split_pair(0.7))
