"""The analysis layer and statistics transmutation against the fractional Jordan-Wigner reference.

Every reference here is read off the matrices of :mod:`jw_oracle`, which
shares no code with the kernel: the one-body matrix as <a+_l a_k>, the
particle trace from the chain amplitudes <0| a_{i_N} ... a_{i_1} |psi>, and
an operator's matrix from its terms' ladder factors and number strings.
"""

import math

import numpy as np

import jw_oracle as jw
from anyonsim import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    OperatorExpr,
    TransmutationMap,
    apply_operator_expr,
    basis_state,
    particle_trace_rdm,
    transmute_operator,
)
from anyonsim.entanglement import one_body_matrix
from conftest import random_state, table_diff

PHIS = (0.0, math.pi, 1.3, 4.0)


def reference_matrix(expr, phi):
    return jw.expr_matrix(expr.m, phi, [(t.coefficient, t.factors, t.weights) for t in expr.terms])


def random_expr(rng, m):
    """One to three terms of up to three ladder factors each, with random coefficients and number strings."""
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        factors = tuple((int(rng.integers(1, m + 1)), str(rng.choice([CREATE, ANNIHILATE]))) for _ in range(int(rng.integers(0, 4))))
        modes = rng.choice(np.arange(1, m + 1), size=int(rng.integers(0, m + 1)), replace=False)
        weights = {int(k): float(rng.uniform(-math.pi, math.pi)) for k in modes}
        terms.append(LadderTerm(complex(rng.normal(), rng.normal()), factors, weights))
    return OperatorExpr(m, tuple(terms))


def test_one_body_matrix_is_the_expectation_of_the_ladder_bilinears(rng):
    for m in range(2, 7):
        for phi in PHIS:
            psi = random_state(rng, m, phi, None if m % 2 else m // 2)
            ref = jw.one_body_matrix(m, phi, jw.vector(m, psi.amplitudes))
            assert np.abs(one_body_matrix(psi) - ref).max() < 1e-12, (m, phi)


def test_particle_trace_is_the_chain_definition_for_every_slot(rng):
    for m in range(3, 7):
        for phi in PHIS + (float(rng.uniform(0.0, 2 * math.pi)),):
            pair = random_state(rng, m, phi, 2)
            ref = {slot: jw.particle_trace(m, phi, jw.vector(m, pair.amplitudes), 2, slot) for slot in (1, 2)}
            for keep, slot in (("x", 1), ("y", 2), (1, 1), (2, 2)):
                assert np.abs(particle_trace_rdm(pair, keep).matrix - ref[slot]).max() < 1e-12, (m, phi, keep)
            triple = random_state(rng, m, phi, 3)
            for slot in (1, 2, 3):
                ref = jw.particle_trace(m, phi, jw.vector(m, triple.amplitudes), 3, slot)
                assert np.abs(particle_trace_rdm(triple, slot).matrix - ref).max() < 1e-12, (m, phi, slot)


def test_transmuted_operator_at_phi_has_the_fermionic_matrix_of_the_original(rng):
    for trial in range(80):
        m = 2 + trial % 4
        phi = float(rng.uniform(0.0, 2 * math.pi))
        expr = random_expr(rng, m)
        image = transmute_operator(expr, TransmutationMap(0.0, phi))
        assert np.abs(reference_matrix(image, phi) - reference_matrix(expr, 0.0)).max() < 1e-12, (expr, phi)


def test_the_adjoint_has_the_conjugate_transpose_reference_matrix(rng):
    for trial in range(40):
        m = 2 + trial % 4
        expr = random_expr(rng, m)
        for phi in PHIS:
            for op in (expr, transmute_operator(expr, TransmutationMap(0.0, phi))):
                got = reference_matrix(op.adjoint(), phi)
                assert np.abs(got - reference_matrix(op, phi).conj().T).max() < 1e-12, (op, phi)


def test_operator_action_matches_the_reference_matrix_on_basis_kets(rng):
    for trial in range(40):
        m = 2 + trial % 4
        phi = float(rng.uniform(0.0, 2 * math.pi))
        expr = random_expr(rng, m)
        for op in (expr, transmute_operator(expr, TransmutationMap(0.0, phi))):
            mat = reference_matrix(op, phi)
            for occ in range(1 << m):
                out = apply_operator_expr(basis_state(occ, phi, m), op)
                assert table_diff(out, jw.table(mat[:, occ])) < 1e-12, (op, phi, occ)
