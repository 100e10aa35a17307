"""A generator that moves no ket (every phase shifter) is exponentiated per ket, with the bits of a per-block ``expm``."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, InvariantBreachError, ps
from anyonsim.operators import ANNIHILATE, CREATE, LadderTerm, OperatorExpr, _term_shape, operator_matrix
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
def test_a_diagonal_gate_shares_nothing_in_a_scan_scope(rng, monkeypatch, phi):
    sent = []
    real_expm = optics_mod.expm

    def spy(stack):
        sent.append(stack.copy())
        return real_expm(stack)

    psi = full_state(rng, 5, phi)
    exprs = [generator_expr(ps(mode, theta), psi.m) for mode, theta in [(2, 0.8), (5, 0.8), (2, 0.8)]]
    outside = [table_bytes(_apply_orbit_exponential(psi, expr).amplitudes) for expr in exprs]
    monkeypatch.setattr(optics_mod, "expm", spy)
    with scan_scope() as scope:
        inside = [table_bytes(_apply_orbit_exponential(psi, expr).amplitudes) for expr in exprs]
    assert inside == outside == [table_bytes(per_ket_reference(psi, expr)) for expr in exprs]
    assert not scope.blocks  # a diagonal gate keeps no block
    assert sent == []  # no 1 x 1 block reaches expm: each gate's (k, 1, 1) stack goes to np.exp


@pytest.mark.parametrize("in_scope", [False, True])
def test_a_complex_coefficient_number_term_is_not_hermitian(in_scope):
    expr = OperatorExpr(4, (LadderTerm(0.3 + 0.2j, ((2, CREATE), (2, ANNIHILATE))),))
    psi = AnyonState(4, 1.1, {0b0001: 0.6 + 0.0j, 0b0011: 0.8 + 0.0j})
    with scan_scope() if in_scope else contextlib.nullcontext():
        with pytest.raises(InvariantBreachError, match="not Hermitian"):
            _apply_orbit_exponential(psi, expr)


def stack_reference(state, expr):
    """The route a diagonal gate took before its one pass: the whole ``(k, 1, 1)`` stack through scipy's ``expm`` and one ``einsum``."""
    shapes = list(filter(None, map(_term_shape, expr.terms)))
    stack = np.array(optics_mod._diagonal_elements(state, expr, shapes), dtype=complex)[:, None, None]
    vec = np.array(list(state.amplitudes.values()), dtype=complex)
    vec = np.einsum("kab,kb->ka", expm(1j * stack), vec[:, None])[:, 0]
    return prune(dict(zip(state.amplitudes, vec.tolist())))


parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def diagonal_cases(draw):
    """A table at m <= 9 with signed-zero, subnormal and huge parts, and a PS or a weighted number string."""
    m = draw(st.integers(1, 9))
    phi = draw(st.sampled_from([0.0, 1.3, math.pi]) | st.floats(0.0, 2 * math.pi, exclude_max=True))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12, unique=True))
    table = {occ: complex(draw(parts), draw(parts)) for occ in occs}
    i = draw(st.integers(1, m))
    if draw(st.booleans()):
        theta = draw(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 5e-324, 1e7]) | st.floats(-4.0, 4.0, allow_nan=False))
        expr = generator_expr(ps(i, theta), m)
    else:
        c = complex(draw(st.floats(-2.0, 2.0, allow_nan=False)), draw(st.floats(-2.0, 2.0, allow_nan=False)))
        weights = draw(st.dictionaries(st.integers(1, m), st.floats(-4.0, 4.0, allow_nan=False), max_size=3))
        expr = weighted_number(m, i, c, weights)
    return AnyonState(m, phi, table), expr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(diagonal_cases())
def test_a_diagonal_gate_keeps_the_bits_of_its_stack_through_expm_and_einsum(case):
    state, expr = case
    got = _apply_orbit_exponential(state, expr).amplitudes
    assert table_bytes(got) == table_bytes(stack_reference(state, expr))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_a_nan_element_passes_the_hermiticity_check_and_prune_refuses_it(monkeypatch, bad):
    psi = AnyonState(4, 1.1, {0b0001: 0.6 + 0.0j, 0b0011: 0.8 + 0.0j})
    monkeypatch.setattr(optics_mod, "_diagonal_elements", lambda state, expr, shapes: [0.4 + 0.0j, bad])
    with pytest.raises(InvariantBreachError, match="is not finite"):
        _apply_orbit_exponential(psi, generator_expr(ps(2, 0.4), psi.m))
