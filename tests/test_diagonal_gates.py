"""A generator that moves no ket (every phase shifter) is exponentiated per ket, with the bits of a per-block ``expm``."""

import contextlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, InvariantBreachError, ps
from anyonsim.operators import ANNIHILATE, CREATE, LadderTerm, OperatorExpr, operator_matrix
from anyonsim.optics import _apply_orbit_exponential, generator_expr, scan_scope
from anyonsim.states import prune

PHIS = (0.0, 1.1, math.pi)


def per_ket_reference(state, expr):
    """One ``expm`` call per ket on its 1 x 1 block, applied with the orbit engine's ``einsum``."""
    out = {}
    for occ, amp in state.amplitudes.items():
        h = operator_matrix(expr, state.phi, [occ])
        u = expm(1j * h[None])
        out[occ] = np.einsum("kab,kb->ka", u, np.array([[amp]], dtype=complex))[0, 0]
    return prune(out)


def table_bytes(table):
    return list(table), np.array(list(table.values()), dtype=complex).tobytes()


def full_state(rng, m, phi):
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return AnyonState(m, phi, {occ: complex(a) for occ, a in enumerate(amps)})


def weighted_number(m, i, c, weights):
    """``c n_i exp(i sum w n)`` plus its adjoint: Hermitian, diagonal, and its elements carry the string's phases."""
    expr = OperatorExpr(m, (LadderTerm(c, ((i, CREATE), (i, ANNIHILATE)), weights),))
    return expr + expr.adjoint()


def assert_bitwise_reference(state, expr):
    got = _apply_orbit_exponential(state, expr).amplitudes
    assert table_bytes(got) == table_bytes(per_ket_reference(state, expr))
    return got


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("mode, theta", [(1, 0.7), (4, -2.3), (6, math.pi)])
def test_phase_shifter_on_full_states_bitwise_equals_per_ket_expm(rng, phi, mode, theta):
    psi = full_state(rng, 6, phi)
    assert_bitwise_reference(psi, generator_expr(ps(mode, theta), psi.m))


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, -math.pi, 1.3])
def test_signed_zero_parts_follow_the_einsum_sum(phi, theta):
    zero_parts = [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.5), complex(-0.5, 0.0)]
    psi = AnyonState(4, phi, dict(zip([0b0011, 0b0110, 0b1010, 0b1101], zero_parts)))
    got = assert_bitwise_reference(psi, generator_expr(ps(2, theta), psi.m))
    if theta == 0.0:  # u = 1 leaves every value, and 0.0 + (-0.0) turns each -0.0 part into +0.0
        assert [str(a) for a in got.values()] == ["0.5j", "(0.5+0j)", "-0.5j", "(-0.5+0j)"]


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("weights", [{3: 0.9}, {1: -1.7, 5: 0.4}, {2: math.pi}])
def test_number_strings_with_weights_bitwise_equal_per_ket_expm(rng, phi, weights):
    psi = full_state(rng, 5, phi)
    assert_bitwise_reference(psi, weighted_number(5, 2, 0.6 - 0.3j, weights))


def test_a_diagonal_gate_builds_no_matrix_and_walks_no_orbits(rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagonal gate reached the orbit engine")

    monkeypatch.setattr(optics_mod, "operator_matrix", refuse)
    monkeypatch.setattr(optics_mod, "_orbits", refuse)
    psi = full_state(rng, 5, 1.1)
    _apply_orbit_exponential(psi, generator_expr(ps(3, 0.4), psi.m))


@pytest.mark.parametrize("phi", PHIS)
def test_inside_a_scan_scope_blocks_are_shared_with_the_same_bits(rng, monkeypatch, phi):
    sent = []
    real_expm = optics_mod.expm

    def spy(stack):
        sent.extend(block.tobytes() for block in stack)
        return real_expm(stack)

    psi = full_state(rng, 5, phi)
    exprs = [generator_expr(ps(mode, theta), psi.m) for mode, theta in [(2, 0.8), (5, 0.8), (2, 0.8)]]
    outside = [table_bytes(_apply_orbit_exponential(psi, expr).amplitudes) for expr in exprs]
    monkeypatch.setattr(optics_mod, "expm", spy)
    with scan_scope() as scope:
        inside = [table_bytes(_apply_orbit_exponential(psi, expr).amplitudes) for expr in exprs]
    assert inside == outside == [table_bytes(per_ket_reference(psi, expr)) for expr in exprs]
    assert not scope.plans  # a diagonal gate takes no orbit plan
    # each distinct 1 x 1 block reaches expm once, through the scope
    assert sent and len(sent) == len(set(sent)) and set(sent) == set(scope.blocks)


@pytest.mark.parametrize("in_scope", [False, True])
def test_a_complex_coefficient_number_term_is_not_hermitian(in_scope):
    expr = OperatorExpr(4, (LadderTerm(0.3 + 0.2j, ((2, CREATE), (2, ANNIHILATE))),))
    psi = AnyonState(4, 1.1, {0b0001: 0.6 + 0.0j, 0b0011: 0.8 + 0.0j})
    with scan_scope() if in_scope else contextlib.nullcontext():
        with pytest.raises(InvariantBreachError, match="not Hermitian"):
            _apply_orbit_exponential(psi, expr)
