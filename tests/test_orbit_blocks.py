"""Repeated orbit blocks are exponentiated once and still get the bits of a per-block ``expm``."""

import contextlib

import numpy as np
import pytest
from scipy.linalg import expm

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, bs, pa, ps
from anyonsim.operators import operator_matrix
from anyonsim.optics import _apply_orbit_exponential, _exponentials, generator_expr, scan_scope
from anyonsim.states import prune
from conftest import orbits


def per_block_reference(state, expr):
    """One ``expm`` call per orbit, blocks applied in orbit order."""
    orbs = orbits(expr, state.phi, state.amplitudes)
    basis = [occ for orbit in orbs for occ in orbit]
    h = operator_matrix(expr, state.phi, basis)
    vec = np.array([state.amplitudes.get(occ, 0.0) for occ in basis], dtype=complex)
    pos = 0
    for orbit in orbs:
        idx = np.arange(pos, pos + len(orbit))
        u = expm(1j * h[np.ix_(idx, idx)][None])
        vec[idx] = np.einsum("kab,kb->ka", u, vec[idx][None])[0]
        pos += len(orbit)
    return prune(dict(zip(basis, vec)))


def full_state(rng, m, phi):
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return AnyonState(m, phi, {occ: complex(a) for occ, a in enumerate(amps)})


@pytest.mark.parametrize("phi", [0.0, 1.1, np.pi])
@pytest.mark.parametrize("gate", [ps(2, 0.7), bs(1, 2, 0.9), bs(2, 5, -1.3), pa(1, 2, 0.6), pa(4, 2, 2.1)])
def test_orbit_exponential_bitwise_equals_per_block_expm(rng, phi, gate):
    psi = full_state(rng, 6, phi)
    expr = generator_expr(gate, psi.m)
    got = _apply_orbit_exponential(psi, expr).amplitudes
    ref = per_block_reference(psi, expr)
    assert list(got) == list(ref)
    assert np.array(list(got.values())).tobytes() == np.array(list(ref.values())).tobytes()


def test_full_states_repeat_blocks(rng, monkeypatch):
    # the states above hold many orbits with the same block, so the dedupe is exercised
    sliced = []
    real_expm = optics_mod.expm

    def spy(stack):
        sliced.append(len(stack))
        return real_expm(stack)

    monkeypatch.setattr(optics_mod, "expm", spy)
    psi = full_state(rng, 6, 1.1)
    _apply_orbit_exponential(psi, generator_expr(bs(1, 2, 0.9), psi.m))
    orbit_count = len(orbits(generator_expr(bs(1, 2, 0.9), psi.m), psi.phi, psi.amplitudes))
    assert sum(sliced) < orbit_count


def spy_on_expm(monkeypatch):
    """The bytes of every slice sent to ``expm``, in order."""
    sent = []
    real_expm = optics_mod.expm

    def spy(blocks):
        sent.extend(block.tobytes() for block in blocks)
        return real_expm(blocks)

    monkeypatch.setattr(optics_mod, "expm", spy)
    return sent


@pytest.mark.parametrize("in_scope", [False, True])
@pytest.mark.parametrize("size", [1, 2])
def test_exponentials_send_each_distinct_slice_once_in_first_occurrence_order(monkeypatch, size, in_scope):
    a = np.full((size, size), 0.5 - 0.25j)
    a[0, 0] = 1.0 + 2.0j
    z = np.zeros((size, size), dtype=complex)
    stack = np.stack([a, z, a, -z, z])
    sent = spy_on_expm(monkeypatch)
    with scan_scope() if in_scope else contextlib.nullcontext() as scope:
        got = _exponentials(stack, scope)
        if size == 1:  # scipy's expm is np.exp on a 1 x 1 stack: no 1 x 1 block reaches expm, in a scope or not
            assert sent == []
        else:
            assert sent == [a.tobytes(), z.tobytes(), (-z).tobytes()]  # -0.0 is a distinct block
        assert got.tobytes() == np.array([expm(block) for block in stack]).tobytes()
        if in_scope:
            sent.clear()
            assert _exponentials(stack, scope).tobytes() == got.tobytes()
            if size == 1:  # still none: the scope keeps no 1 x 1 block
                assert sent == [] and not scope.blocks
            else:
                assert sent == []  # every slice is known to the scope
