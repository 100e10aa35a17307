import numpy as np
import pytest

from anyonsim import (
    ANNIHILATE,
    CREATE,
    InvariantBreachError,
    LadderTerm,
    OperatorExpr,
    annihilation,
    apply_annihilate,
    apply_create,
    apply_operator_expr,
    basis_state,
    creation,
    hopping,
    identity_expr,
    inner_product,
    number,
)
from anyonsim.operators import operator_matrix, term_adjoint
from conftest import random_state, table_diff


def test_identity_term():
    st = basis_state("101", 1.4)
    assert table_diff(apply_operator_expr(st, identity_expr(3)), st) == 0.0


def test_hop_example_phase_free():
    # a+_1 a_2 moves a particle with no occupied modes to its left
    hop = creation(4, 1) * annihilation(4, 2)
    for phi in (0.0, 0.9, np.pi):
        out = apply_operator_expr(basis_state("0100", phi), hop)
        assert table_diff(out, basis_state("1000", phi)) < 1e-15


def test_expr_matches_sequential_ladders(rng):
    for _ in range(40):
        m = int(rng.integers(2, 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        psi = random_state(rng, m, phi)
        factors = []
        for _ in range(int(rng.integers(1, 5))):
            factors.append((int(rng.integers(1, m + 1)), CREATE if rng.integers(0, 2) else ANNIHILATE))
        coeff = complex(rng.normal(), rng.normal())
        expr = OperatorExpr(m, (LadderTerm(coeff, tuple(factors)),))
        via_expr = apply_operator_expr(psi, expr)
        seq = psi
        for mode, kind in reversed(factors):
            seq = apply_create(seq, mode) if kind == CREATE else apply_annihilate(seq, mode)
        seq = AnyonStateScaled = {occ: coeff * amp for occ, amp in seq.amplitudes.items()}
        assert table_diff(via_expr, AnyonStateScaled) < 1e-12


def test_number_string_action():
    # trailing diagonal acts first: exp(i sum w_k n_k) on the ket
    weights = {1: 0.7, 3: -1.1}
    expr = OperatorExpr(3, (LadderTerm(1.0 + 0.0j, (), weights),))
    st = basis_state("101", 0.5)
    out = apply_operator_expr(st, expr)
    expected = np.exp(1j * (0.7 - 1.1))
    assert abs(out.amplitude("101") - expected) < 1e-14


def test_adjoint_matches_inner_products(rng):
    for _ in range(25):
        m = int(rng.integers(2, 5))
        phi = float(rng.uniform(0, 2 * np.pi))
        psi, chi = random_state(rng, m, phi), random_state(rng, m, phi)
        factors = tuple(
            (int(rng.integers(1, m + 1)), CREATE if rng.integers(0, 2) else ANNIHILATE)
            for _ in range(int(rng.integers(0, 4)))
        )
        weights = {int(k): float(rng.normal()) for k in rng.integers(1, m + 1, size=2)}
        expr = OperatorExpr(m, (LadderTerm(complex(rng.normal(), rng.normal()), factors, weights),))
        lhs = inner_product(psi, apply_operator_expr(chi, expr))
        rhs = inner_product(apply_operator_expr(psi, expr.adjoint()), chi)
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_involution(rng):
    term = LadderTerm(1.3 - 0.4j, ((2, CREATE), (1, ANNIHILATE)), {1: 0.9, 2: -0.3})
    twice = term_adjoint(term_adjoint(term))
    st = random_state(rng, 3, 1.0)
    a = apply_operator_expr(st, OperatorExpr(3, (term,)))
    b = apply_operator_expr(st, OperatorExpr(3, (twice,)))
    assert table_diff(a, b) < 1e-14


def test_product_is_composition(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        phi = float(rng.uniform(0, 2 * np.pi))
        psi = random_state(rng, m, phi)
        e1 = hopping(m, 1, m) + number(m, 1).scaled(0.5j)
        e2 = creation(m, int(rng.integers(1, m + 1))) + identity_expr(m).scaled(-0.2)
        composed = apply_operator_expr(psi, e1 * e2)
        sequential = apply_operator_expr(apply_operator_expr(psi, e2), e1)
        assert table_diff(composed, sequential) < 1e-12


def test_operator_matrix_hermitian_and_leakage():
    hop = hopping(3, 1, 3)
    basis = [occ for occ in range(8) if occ.bit_count() == 1]
    h = operator_matrix(hop, 0.7, basis)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    with pytest.raises(InvariantBreachError):
        operator_matrix(creation(3, 2), 0.0, basis)


def test_an_expression_times_a_scalar_scales_every_term():
    expr = hopping(3, 1, 2, 0.5)
    assert expr * 2.0 == expr.scaled(2.0) == 2.0 * expr
    assert [t.coefficient for t in (expr * 2.0).terms] == [1.0, 1.0]
