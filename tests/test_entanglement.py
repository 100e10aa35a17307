import numpy as np
import pytest

from anyonsim import (
    AnyonState,
    DensityMatrix,
    InvariantBreachError,
    PreconditionError,
    basis_state,
    fermionize,
    is_separable,
    minimal_entropy_modes,
    one_body_rdm,
    particle_trace_rdm,
    reconstruct_from_slater,
    slater_decompose,
    two_particle_coefficients,
    vacuum,
    von_neumann_entropy,
)
from anyonsim.entanglement import binary_entropy, one_body_matrix
from anyonsim.presets import split_pair, split_pair_circuit, two_slater
from anyonsim.optics import run_circuit
from conftest import random_state, table_diff

THETAS = np.linspace(0.0, np.pi / 2, 5)
PHIS = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)


def worked_state(theta, phi):
    return run_circuit(split_pair(phi), split_pair_circuit(theta, phi))


def trace_x_matrix(theta, phi):
    """Hand-derived single-particle matrix after tracing the first slot."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1 + c * c, -1j * s * c, 0, 1j * s * np.exp(1j * phi)],
            [1j * s * c, 1 + s * s, 0, c],
            [0, 0, 0, 0],
            [-1j * s * np.exp(-1j * phi), c, 0, 1],
        ],
        dtype=complex,
    ) / 4.0


def test_one_body_rdm_fock_state():
    rho = one_body_rdm(basis_state("1100", 0.9))
    assert np.max(np.abs(rho.matrix - np.diag([0.5, 0.5, 0.0, 0.0]))) < 1e-14


def test_one_body_rdm_requires_definite_number():
    st = AnyonState(2, 0.0, {0b01: np.sqrt(0.5), 0b11: np.sqrt(0.5)})
    with pytest.raises(PreconditionError):
        one_body_rdm(st)
    with pytest.raises(PreconditionError):
        one_body_rdm(vacuum(3))


def test_one_body_rdm_of_fermionized_worked_state():
    theta = 0.9
    c, s = np.cos(theta), np.sin(theta)
    ref = np.array(
        [
            [1 + c * c, -1j * s * c, 0, 1j * s],
            [1j * s * c, 1 + s * s, 0, c],
            [0, 0, 0, 0],
            [-1j * s, c, 0, 1],
        ],
        dtype=complex,
    ) / 4.0
    for phi in PHIS:
        rho = one_body_rdm(fermionize(worked_state(theta, phi)))
        assert np.max(np.abs(rho.matrix - ref)) < 1e-12
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_particle_trace_matches_hand_derivation():
    for theta in THETAS:
        for phi in PHIS:
            st = worked_state(theta, phi)
            rho_y = particle_trace_rdm(st, keep="y")  # trace over the first slot
            ref = trace_x_matrix(theta, phi)
            assert np.max(np.abs(rho_y.matrix - ref)) < 1e-12
            rho_x = particle_trace_rdm(st, keep="x")
            ref_x = ref.copy()
            ref_x[0, 3] = 1j * np.sin(theta) * np.exp(-1j * phi) / 4
            ref_x[3, 0] = np.conj(ref_x[0, 3])
            assert np.max(np.abs(rho_x.matrix - ref_x)) < 1e-12


def test_particle_trace_reduces_to_one_body_at_phi_zero():
    for theta in THETAS:
        st = worked_state(theta, 0.0)
        rho = particle_trace_rdm(st, keep="y")
        ref = one_body_rdm(fermionize(st))
        assert np.max(np.abs(rho.matrix - ref.matrix)) < 1e-12


def test_trace_entropies_agree_both_ways():
    for theta in THETAS:
        for phi in PHIS:
            st = worked_state(theta, phi)
            s_x = von_neumann_entropy(particle_trace_rdm(st, keep="x"))
            s_y = von_neumann_entropy(particle_trace_rdm(st, keep="y"))
            assert abs(s_x - s_y) < 1e-10


def test_particle_trace_general_n_keep_one():
    st = basis_state("11100", 1.2)
    for slot in (1, 2, 3):
        rho = particle_trace_rdm(st, keep=slot)
        assert np.max(np.abs(rho.matrix - np.diag([1 / 3, 1 / 3, 1 / 3, 0, 0]))) < 1e-12
    with pytest.raises(PreconditionError):
        particle_trace_rdm(st, keep="x")
    with pytest.raises(PreconditionError):
        particle_trace_rdm(st, keep=4)


def test_von_neumann_entropy_values():
    assert abs(von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) - 1.0) < 1e-12
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = 1.0
    assert von_neumann_entropy(proj) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12
    with pytest.raises(PreconditionError):
        von_neumann_entropy(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_density_matrix_invariants():
    with pytest.raises(InvariantBreachError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantBreachError):
        DensityMatrix(np.eye(2))
    with pytest.raises(InvariantBreachError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_minimal_entropy_modes_fock_state():
    modes = minimal_entropy_modes(basis_state("1100", 2.7))
    assert np.max(np.abs(modes.occupations - np.array([1, 1, 0, 0]))) < 1e-12
    assert modes.e_sp == 0.0


def test_minimal_entropy_modes_worked_state():
    for theta in THETAS:
        for phi in PHIS:
            modes = minimal_entropy_modes(worked_state(theta, phi))
            assert np.max(np.abs(modes.occupations - np.array([1, 1, 0, 0]))) < 1e-10
            assert modes.e_sp < 1e-9


def test_minimal_entropy_modes_is_the_minimizer(rng):
    # the eigenbasis beats random mode rotations of the one-body matrix
    psi = two_slater(1.1)
    modes = minimal_entropy_modes(psi)
    assert modes.e_sp > 0.1
    mat = one_body_matrix(fermionize(psi))
    for _ in range(60):
        gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(gauss)
        rotated = q @ mat @ q.conj().T
        sampled = sum(binary_entropy(float(p.real)) for p in np.diag(rotated))
        assert sampled >= modes.e_sp - 1e-9


def test_slater_decompose_fock_state():
    dec = slater_decompose(basis_state("1100", 1.7))
    assert dec.rank == 1
    assert np.allclose(dec.z, [1.0], atol=1e-12)
    assert np.allclose(dec.mode_unitary, np.eye(4), atol=1e-10)


def test_slater_decompose_worked_state():
    for theta in THETAS:
        for phi in PHIS:
            dec = slater_decompose(worked_state(theta, phi))
            assert dec.rank == 1
            assert abs(dec.z[0] - 1.0) < 1e-10


def test_slater_decompose_rank_two_preset():
    for phi in PHIS:
        dec = slater_decompose(two_slater(phi))
        assert dec.rank == 2
        assert np.max(np.abs(dec.z - np.array([np.sqrt(0.5), np.sqrt(0.5)]))) < 1e-10


def test_slater_decompose_rejects_wrong_particle_number():
    with pytest.raises(PreconditionError):
        slater_decompose(basis_state("1110", 0.0))
    with pytest.raises(PreconditionError):
        slater_decompose(basis_state("1000", 0.0))


def test_slater_reconstruction_random(rng):
    for _ in range(30):
        m = int(rng.integers(4, 9))
        psi = random_state(rng, m, float(rng.uniform(0, 2 * np.pi)), n=2)
        dec = slater_decompose(psi)
        assert abs(float(np.sum(dec.z**2)) - 1.0) < 1e-10
        rec = reconstruct_from_slater(dec, m)
        assert table_diff(rec, fermionize(psi)) < 1e-8
        c = two_particle_coefficients(psi).matrix
        z_block = dec.mode_unitary @ c @ dec.mode_unitary.T
        for k, zk in enumerate(dec.z):
            assert abs(z_block[2 * k, 2 * k + 1] - zk) < 1e-8


def test_two_particle_coefficients_normalization(rng):
    psi = random_state(rng, 5, 0.4, n=2)
    coeffs = two_particle_coefficients(psi)
    assert np.max(np.abs(coeffs.matrix + coeffs.matrix.T)) < 1e-14
    upper = sum(abs(coeffs.matrix[i, j]) ** 2 for i in range(5) for j in range(i + 1, 5))
    assert abs(upper - 1.0) < 1e-10


def test_is_separable_fock_states():
    for phi in PHIS:
        for occ in ("1000", "1010", "1110"):
            report = is_separable(basis_state(occ, phi))
            assert report.separable
            assert report.e_sp < 1e-12


def test_is_separable_worked_state_despite_entropy_drift():
    drift = 0.0
    for theta in THETAS:
        for phi in PHIS:
            st = worked_state(theta, phi)
            report = is_separable(st)
            assert report.separable and report.slater_rank == 1
            naive = von_neumann_entropy(particle_trace_rdm(st, keep="y"))
            drift = max(drift, abs(naive - 1.0))
    assert drift > 0.01  # the naive particle-trace entropy genuinely moves


def test_is_separable_rank_two_preset():
    for phi in PHIS:
        report = is_separable(two_slater(phi))
        assert not report.separable
        assert report.slater_rank == 2
        assert report.e_sp > 0.5


@pytest.mark.parametrize("call", [is_separable, one_body_rdm, minimal_entropy_modes])
def test_unnormalized_input_is_a_precondition_failure(call):
    with pytest.raises(PreconditionError, match=r"\|psi\|\^2 = 9"):
        call(AnyonState(4, 0.0, {0b0011: 3.0 + 0.0j}))


def test_unnormalized_input_that_breaks_no_invariant_is_refused():
    # normalized, one three-particle ket is separable with E_SP 0; at |psi|^2 = 1/4 it read False and 2.43
    assert is_separable(AnyonState(6, 0.0, {0b111: 1.0 + 0.0j})).e_sp == 0.0
    with pytest.raises(PreconditionError, match=r"^the state is not normalized, \|psi\|\^2 = 0.25$"):
        is_separable(AnyonState(6, 0.0, {0b111: 0.5 + 0.0j}))


@pytest.mark.parametrize("call", [minimal_entropy_modes, one_body_rdm])
def test_unnormalized_two_slater_is_refused_by_each_one_body_analysis(call):
    # occupations 1/4 lie inside [0, 1], and the one-body trace check would see 1/2
    state = AnyonState(4, 0.0, {0b0011: 0.5 + 0.0j, 0b1100: 0.5 + 0.0j})
    with pytest.raises(PreconditionError, match=r"^the state is not normalized, \|psi\|\^2 = 0.5$"):
        call(state)


@pytest.mark.parametrize("call", [two_particle_coefficients, slater_decompose])
def test_unnormalized_two_slater_is_refused_by_the_pair_form(call):
    # the pair form used to renormalize silently and report z = (1/sqrt 2, 1/sqrt 2)
    state = AnyonState(4, 0.0, {0b0011: 0.5 + 0.0j, 0b1100: 0.5 + 0.0j})
    with pytest.raises(PreconditionError, match=r"^the state is not normalized, \|psi\|\^2 = 0.5$"):
        call(state)


def test_normalization_is_checked_before_the_particle_number():
    with pytest.raises(PreconditionError, match=r"^the state is not normalized, \|psi\|\^2 = 2$"):
        minimal_entropy_modes(AnyonState(4, 0.0, {0b0001: 1.0 + 0.0j, 0b0011: 1.0 + 0.0j}))


def test_unnormalized_input_that_splits_the_two_verdicts_is_a_precondition_failure():
    # occupations 1/2 say entangled, the normalized pair form says rank 1
    with pytest.raises(PreconditionError, match=r"^the state is not normalized, \|psi\|\^2 = 0.5$"):
        is_separable(AnyonState(4, 0.0, {0b0011: 0.5 + 0.0j, 0b1001: 0.5 + 0.0j}))
