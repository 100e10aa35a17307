"""The term kernel and its per-call phase tables give the bits of the per-factor ladder calls.

The reference below is the per-factor implementation the kernel replaced:
every factor goes through ``create_component`` or ``annihilate_component``
in ``tests/conftest.py``, which compute the reordering phase with
``cmath.exp`` on every call.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import anyonsim.optics as optics_mod
import anyonsim.states as states_mod
from anyonsim import AnyonState
from anyonsim.errors import InvariantBreachError
from anyonsim.operators import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    OperatorExpr,
    apply_operator_expr,
    hopping,
    number,
    operator_matrix,
    term_adjoint,
    term_product,
)
from anyonsim.optics import _apply_orbit_exponential
from anyonsim.states import prune
from anyonsim.transmute import TransmutationMap, transmute_operator
from conftest import annihilate_component, create_component, orbits

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def ref_term_target(occ, term):
    for mode, kind in reversed(term.factors):
        bit = 1 << (mode - 1)
        if (occ & bit == 0) != (kind == CREATE):
            return None
        occ ^= bit
    return occ


def ref_apply_term_component(phi, occ, amp, term):
    a = amp * term.coefficient
    diag = 0.0
    for mode, w in term.weights.items():
        if occ >> (mode - 1) & 1:
            diag += w
    if diag:
        a *= cmath.exp(1j * diag)
    for mode, kind in reversed(term.factors):
        step = create_component(phi, occ, mode) if kind == CREATE else annihilate_component(phi, occ, mode)
        if step is None:
            return None
        occ, phase = step
        a *= phase
    return occ, a


def ref_orbits(expr, kets):
    seen, out = set(), []
    for start in kets:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for occ in orbit:
            for term in expr.terms:
                target = ref_term_target(occ, term)
                if target is not None and target not in seen:
                    seen.add(target)
                    orbit.append(target)
        out.append(orbit)
    return out


def ref_operator_matrix(expr, phi, basis):
    index = {occ: k for k, occ in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, occ in enumerate(basis):
        for term in expr.terms:
            res = ref_apply_term_component(phi, occ, 1.0 + 0.0j, term)
            if res is None:
                continue
            occ2, amp = res
            if occ2 not in index:
                if abs(amp) > 1e-12:
                    raise InvariantBreachError("operator leaks out of the supplied basis")
                continue
            mat[index[occ2], col] += amp
    return mat


def ref_apply_operator_expr(state, expr):
    out = {}
    for term in expr.terms:
        for occ, amp in state.amplitudes.items():
            res = ref_apply_term_component(state.phi, occ, amp, term)
            if res is not None:
                out[res[0]] = out.get(res[0], 0.0) + res[1]
    return prune(out)


reals = st.floats(-2.0, 2.0, allow_nan=False)
phis = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True))


@st.composite
def ladder_terms(draw, m):
    factors = draw(st.lists(st.tuples(st.integers(1, m), st.sampled_from((CREATE, ANNIHILATE))), max_size=4))
    weights = draw(st.dictionaries(st.integers(1, m), reals, max_size=3))
    return LadderTerm(complex(draw(reals), draw(reals)), tuple(factors), weights)


@st.composite
def expressions(draw):
    """Products, adjoints and plain terms over m <= 8 modes, sometimes transmuted to another sector."""
    m = draw(st.integers(1, 8))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(("plain", "product", "adjoint")))
        t = draw(ladder_terms(m))
        if form == "product":
            t = term_product(t, draw(ladder_terms(m)))
        elif form == "adjoint":
            t = term_adjoint(t)
        terms.append(t)
    expr = OperatorExpr(m, tuple(terms))
    if draw(st.booleans()):
        source, target = draw(phis), draw(phis)
        expr = transmute_operator(expr, TransmutationMap(source % (2 * math.pi), target % (2 * math.pi)))
    return expr


@st.composite
def cases(draw):
    expr = draw(expressions())
    phi = draw(phis)
    occs = draw(st.lists(st.integers(0, (1 << expr.m) - 1), min_size=1, max_size=10, unique=True))
    state = AnyonState(expr.m, phi, {occ: complex(draw(reals), draw(reals)) for occ in occs})
    return expr, state


def table_bytes(table):
    return list(table), np.array(list(table.values()), dtype=complex).tobytes()


@SETTINGS
@given(cases())
def test_kernel_gives_the_bits_of_the_per_factor_calls(case):
    expr, state = case
    got_orbits = orbits(expr, state.phi, state.amplitudes)
    assert got_orbits == ref_orbits(expr, state.amplitudes)
    basis = [occ for orbit in got_orbits for occ in orbit]
    got = operator_matrix(expr, state.phi, basis)
    assert got.tobytes() == ref_operator_matrix(expr, state.phi, basis).tobytes()
    assert table_bytes(apply_operator_expr(state, expr).amplitudes) == table_bytes(ref_apply_operator_expr(state, expr))


def test_a_basis_the_operator_leaks_out_of_still_raises():
    expr = hopping(3, 1, 3, 0.5 + 0.0j)
    with pytest.raises(InvariantBreachError, match="leaks"):
        operator_matrix(expr, 1.1, [0b001])
    with pytest.raises(InvariantBreachError, match="leaks"):
        ref_operator_matrix(expr, 1.1, [0b001])
    # a zero amplitude may leave the basis
    zero = OperatorExpr(3, (LadderTerm(0.0 + 0.0j, ((3, CREATE), (1, ANNIHILATE))),))
    assert operator_matrix(zero, 1.1, [0b001]).tobytes() == ref_operator_matrix(zero, 1.1, [0b001]).tobytes()


def test_the_phase_table_reads_the_reorder_sign_at_call_time(monkeypatch):
    # the hop between modes 1 and 3 crosses mode 2, so the matrix carries exp(+-i phi)
    expr = hopping(3, 1, 3, 1.0 + 0.0j)
    basis = [0b011, 0b110]
    first = operator_matrix(expr, 1.1, basis)
    monkeypatch.setattr(states_mod, "_REORDER_SIGN", -states_mod._REORDER_SIGN)
    second = operator_matrix(expr, 1.1, basis)
    assert second.tobytes() != first.tobytes()
    assert second.tobytes() == ref_operator_matrix(expr, 1.1, basis).tobytes()
    assert np.allclose(second, first.conj())


def test_a_stack_of_one_by_one_blocks_gets_the_bits_of_per_block_expm():
    a, b = complex(0.0, 0.7), complex(-0.0, 0.7)
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    stack = np.array([a, zeros[0], a, b, *zeros, b, zeros[3]], dtype=complex).reshape(-1, 1, 1)
    assert len({s.tobytes() for s in stack}) == 6  # repeated blocks, and zeros of every sign
    whole = optics_mod.expm(stack)
    per_block = np.concatenate([expm(stack[k : k + 1]) for k in range(len(stack))])
    assert whole.tobytes() == per_block.tobytes()


def test_a_diagonal_gate_sends_its_whole_stack_to_expm(monkeypatch):
    # number terms of both signs: every orbit is one ket, blocks repeat and their real parts carry both zeros
    m = 4
    expr = number(m, 1, 0.7 + 0.0j) + number(m, 2, -0.7 + 0.0j)
    state = AnyonState(m, 1.1, {occ: complex(0.25, -0.125 * occ) for occ in range(1 << m)})
    seen = []
    real_expm = optics_mod.expm

    def spy(stack):
        seen.append(stack.copy())
        return real_expm(stack)

    monkeypatch.setattr(optics_mod, "expm", spy)
    got = _apply_orbit_exponential(state, expr).amplitudes
    assert [s.shape for s in seen] == [(1 << m, 1, 1)]
    assert {np.signbit(s.real) for s in seen[0].ravel()} == {False, True}
    h = operator_matrix(expr, state.phi, list(state.amplitudes))
    ref = {occ: complex(expm(1j * h[k : k + 1, k : k + 1][None])[0, 0, 0] * amp) for k, (occ, amp) in enumerate(state.amplitudes.items())}
    assert table_bytes(got) == table_bytes(prune(ref))


def test_applying_an_expression_reads_the_reorder_sign_at_call_time(monkeypatch):
    # the hop between modes 1 and 3 crosses the occupied mode 2
    expr = hopping(3, 1, 3, 1.0 + 0.0j)
    state = AnyonState(3, 1.1, {0b011: 0.6 + 0.0j, 0b110: 0.0 + 0.8j})
    first = apply_operator_expr(state, expr).amplitudes
    monkeypatch.setattr(states_mod, "_REORDER_SIGN", -states_mod._REORDER_SIGN)
    second = apply_operator_expr(state, expr).amplitudes
    assert table_bytes(second) != table_bytes(first)
    assert table_bytes(second) == table_bytes(ref_apply_operator_expr(state, expr))


def test_a_diagonal_gate_reads_the_reorder_sign_at_call_time(monkeypatch):
    # a+_2 a+_1 a_2 a_1 moves no ket, and its last factor crosses mode 1: at phi = pi the element
    # is 3 * (1 -+ 1.2e-16 i), real within the Hermiticity bound, with the sign of its imaginary part
    expr = OperatorExpr(2, (LadderTerm(3.0 + 0.0j, ((2, CREATE), (1, CREATE), (2, ANNIHILATE), (1, ANNIHILATE))),))
    state = AnyonState(2, math.pi, {0b11: 0.6 + 0.0j, 0b01: 0.0 + 0.8j})
    first = _apply_orbit_exponential(state, expr).amplitudes
    monkeypatch.setattr(states_mod, "_REORDER_SIGN", -states_mod._REORDER_SIGN)
    second = _apply_orbit_exponential(state, expr).amplitudes
    assert table_bytes(second) != table_bytes(first)
    h = ref_operator_matrix(expr, state.phi, list(state.amplitudes))
    ref = {occ: complex(expm(1j * h[k : k + 1, k : k + 1][None])[0, 0, 0] * amp) for k, (occ, amp) in enumerate(state.amplitudes.items())}
    assert table_bytes(second) == table_bytes(prune(ref))
