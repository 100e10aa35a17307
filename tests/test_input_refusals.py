"""Input refusals of the public constructors and operations: each bad input raises PreconditionError with its own message."""

import math

import numpy as np
import pytest

from anyonsim import (
    AnyonState,
    BogoliubovPair,
    LadderTerm,
    PreconditionError,
    TransmutationMap,
    apply_fswap,
    apply_gate,
    apply_induced_bogoliubov,
    apply_operator_expr,
    basis_state,
    creation,
    decompose_distant,
    fswap,
    number,
    particle_trace_rdm,
    run_circuit,
)
from anyonsim.optics import ANGLED_KINDS, GATE_KINDS, Circuit, GateElement, generator_expr

PSI = AnyonState(4, 1.1, {0b0011: 0.6 + 0.0j, 0b0101: 0.0 + 0.8j})


@pytest.mark.parametrize(
    "kind, i, j, theta, message",
    [
        ("PS", 1, 2, 0.3, "PS takes one mode and an angle"),
        ("PS", 1, None, None, "PS takes one mode and an angle"),
        ("FSWAP", 1, 2, 0.3, "FSWAP takes two modes and no angle"),
        ("FSWAP", 1, None, None, "FSWAP takes two modes and no angle"),
        ("BS", 1, None, 0.3, "BS takes two modes and an angle"),
        ("PA", 1, 2, None, "PA takes two modes and an angle"),
        ("FSWAP", 2, 2, None, "FSWAP needs two distinct modes"),
        ("BS", 3, 3, 0.3, "BS needs two distinct modes"),
        ("PA", 1, 1, 0.3, "PA needs two distinct modes"),
        ("XX", 1, 2, 0.3, "unknown gate kind 'XX'"),
        (["BS"], 1, 2, 0.3, r"unknown gate kind \['BS'\]"),
    ],
)
def test_a_gate_of_the_wrong_arity_is_refused(kind, i, j, theta, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        GateElement(kind, i, j, theta)


def test_the_angled_kinds_are_read_from_the_kind_table():
    assert GATE_KINDS == {"PS": (False, True), "BS": (True, True), "PA": (True, True), "FSWAP": (True, False)}
    assert ANGLED_KINDS == ("PS", "BS", "PA")


def test_an_fswap_has_no_single_generator():
    with pytest.raises(PreconditionError, match="^FSWAP has no single generator form here$"):
        generator_expr(fswap(1, 2), 4)


def test_apply_fswap_refuses_one_mode_twice():
    with pytest.raises(PreconditionError, match="^FSWAP needs two distinct modes$"):
        apply_fswap(PSI, 2, 2)


@pytest.mark.parametrize("i, j", [(1, 4), (4, 1), (2, 3)])
def test_decompose_distant_expands_an_fswap_into_nearest_neighbour_swaps(i, j):
    gate = fswap(i, j)
    chain = decompose_distant(gate)
    assert all(g.kind == "FSWAP" and abs(g.i - g.j) == 1 for g in chain)
    assert decompose_distant(fswap(j, i)) == chain
    ket = basis_state("1010", 0.0)
    got = run_circuit(ket, Circuit(4, 0.0, tuple(chain)))
    want = apply_gate(ket, gate)
    assert set(got.amplitudes) == set(want.amplitudes)
    assert max(abs(got.amplitudes[k] - want.amplitudes[k]) for k in want.amplitudes) < 1e-12


@pytest.mark.parametrize(
    "a, b, message",
    [
        (np.zeros((2, 3)), np.zeros((2, 3)), "generator matrices must be square and equal-sized"),
        (np.zeros((2, 2)), np.zeros((3, 3)), "generator matrices must be square and equal-sized"),
        ([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), "hopping block of the generator must be Hermitian"),
        (np.zeros((2, 2)), [[0.0, 1.0], [1.0, 0.0]], "pairing block of the generator must be antisymmetric"),
    ],
)
def test_from_generator_refuses_a_bad_generator(a, b, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        BogoliubovPair.from_generator(a, b)


@pytest.mark.parametrize("u, v", [(np.eye(2), np.zeros((3, 3))), (np.eye(3)[:2], np.zeros((2, 3)))])
def test_validate_refuses_matrices_of_the_wrong_shape(u, v):
    with pytest.raises(PreconditionError, match="^U and V must be square matrices of equal size$"):
        BogoliubovPair(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)).validate()


def test_a_transformation_over_other_modes_is_refused():
    with pytest.raises(PreconditionError, match="^transformation is over 3 modes, state over 4$"):
        apply_induced_bogoliubov(PSI, BogoliubovPair.from_rotation(np.eye(3)))


def test_a_ladder_factor_names_its_kind_and_a_mode_of_the_expression():
    with pytest.raises(PreconditionError, match="^unknown ladder kind 'raise'$"):
        LadderTerm(1.0 + 0.0j, ((1, "raise"),))
    with pytest.raises(PreconditionError, match=r"^mode index 4 out of range 1\.\.3$"):
        creation(3, 4)


def test_operator_expressions_over_different_mode_counts_do_not_combine():
    a, b = creation(4, 1), creation(3, 1)
    with pytest.raises(PreconditionError, match="^cannot add expressions over different mode counts$"):
        a + b
    with pytest.raises(PreconditionError, match="^cannot multiply expressions over different mode counts$"):
        a * b
    with pytest.raises(PreconditionError, match="^operator is over 3 modes, state over 4$"):
        apply_operator_expr(PSI, number(3, 1))


@pytest.mark.parametrize("phi", [-0.1, 2.0 * math.pi, 7.0, math.nan, math.inf])
def test_a_transmutation_outside_the_sector_range_is_refused(phi):
    with pytest.raises(PreconditionError, match=r"^statistical parameter must lie in \[0, 2\*pi\), got "):
        TransmutationMap(phi, 0.0)
    with pytest.raises(PreconditionError, match=r"^statistical parameter must lie in \[0, 2\*pi\), got "):
        TransmutationMap(0.0, phi)


def test_a_bitmask_needs_its_mode_count():
    with pytest.raises(PreconditionError, match="^mode count m is required when occ is a bitmask$"):
        basis_state(0b0101)


def test_an_occupation_string_must_match_the_mode_count():
    with pytest.raises(PreconditionError, match="^occupation width 4 does not match m=5$"):
        basis_state("1010", 0.0, 5)


@pytest.mark.parametrize("occ", [[1, 0, 1, 0], (1, 0), np.int64(5), 5.0, None], ids=repr)
def test_an_occupation_is_a_string_or_a_bitmask(occ):
    with pytest.raises(PreconditionError, match="^occupation must be a string of 0s and 1s or a bitmask, got "):
        basis_state(occ, 0.0, 4)


def test_basis_state_reads_a_string_and_a_bitmask_alike():
    assert basis_state("1010", 0.5) == basis_state(0b0101, 0.5, 4) == AnyonState(4, 0.5, {0b0101: 1.0 + 0.0j})


def test_the_particle_trace_knows_only_x_and_y_by_name():
    with pytest.raises(PreconditionError, match="^keep must be 'x', 'y', or a slot index$"):
        particle_trace_rdm(PSI, keep="z")
