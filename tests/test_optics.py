import numpy as np
import pytest
from scipy.linalg import expm

import jw_oracle as jw
from anyonsim import (
    AnyonState,
    BogoliubovPair,
    Circuit,
    PreconditionError,
    apply_fswap,
    apply_gate,
    apply_induced_bogoliubov,
    apply_operator_expr,
    basis_state,
    bs,
    circuit_from_json_dict,
    circuit_to_json_dict,
    decompose_distant,
    fswap,
    hopping,
    is_separable,
    pa,
    ps,
    run_circuit,
    vacuum,
)
from anyonsim.operators import ANNIHILATE, CREATE, LadderTerm, OperatorExpr, operator_matrix
from anyonsim.optics import _quadratic_expr
from anyonsim.presets import split_pair, split_pair_circuit
from conftest import random_state, table_diff

PHI_GRID = (0.0, 0.9, np.pi / 2, np.pi, 4.4)


def dense_matrix(m, phi, apply_fn):
    """Full 2^m matrix of a state map, column by column."""
    dim = 1 << m
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        out = apply_fn(basis_state(col, phi, m))
        for occ, amp in out.amplitudes.items():
            mat[occ, col] = amp
    return mat


def test_beam_splitter_single_particle():
    theta = 0.63
    for phi in PHI_GRID:
        out = apply_gate(basis_state("10", phi), bs(1, 2, theta))
        assert abs(out.amplitude("10") - np.cos(theta)) < 1e-12
        assert abs(out.amplitude("01") - 1j * np.sin(theta)) < 1e-12


def test_beam_splitter_worked_pipeline():
    theta = 1.12
    for phi in PHI_GRID:
        out = run_circuit(split_pair(phi), split_pair_circuit(theta, phi))
        assert abs(out.amplitude("1100") - 1 / np.sqrt(2)) < 1e-12
        assert abs(out.amplitude("1001") - np.cos(theta) / np.sqrt(2)) < 1e-12
        assert abs(out.amplitude("0101") - 1j * np.sin(theta) / np.sqrt(2)) < 1e-12


def test_phase_shifter_is_number_diagonal():
    theta = 2.4
    for phi in (0.0, 1.8):
        for occ in range(1 << 3):
            st = basis_state(occ, phi, 3)
            out = apply_gate(st, ps(2, theta))
            expect = np.exp(1j * theta * (occ >> 1 & 1))
            assert abs(out.amplitude(occ) - expect) < 1e-12


def test_fswap_two_mode_table():
    assert table_diff(apply_fswap(basis_state("10", 0.0), 1, 2), basis_state("01", 0.0)) < 1e-15
    assert table_diff(apply_fswap(basis_state("01", 0.0), 1, 2), basis_state("10", 0.0)) < 1e-15
    out = apply_fswap(basis_state("11", 0.0), 1, 2)
    assert abs(out.amplitude("11") + 1.0) < 1e-15
    assert table_diff(apply_fswap(vacuum(2), 1, 2), vacuum(2)) == 0.0


def test_fswap_involution():
    for m in (2, 3, 4):
        for phi in (0.0, 2.0):
            mat = dense_matrix(m, phi, lambda st: apply_fswap(apply_fswap(st, 1, m), 1, m))
            assert np.max(np.abs(mat - np.eye(1 << m))) < 1e-12


def test_fswap_triple_composition_is_distant_swap():
    braid = dense_matrix(3, 0.0, lambda st: apply_fswap(apply_fswap(apply_fswap(st, 1, 2), 2, 3), 1, 2))
    direct = dense_matrix(3, 0.0, lambda st: apply_fswap(st, 1, 3))
    assert np.max(np.abs(braid - direct)) < 1e-12


def test_fswap_equals_its_generator_exponential_nearest_neighbour():
    # for adjacent modes the mapped action coincides with the native exponential
    for phi in PHI_GRID:
        m = 3
        gen = (np.pi / 2) * (jw.number(m, 1) + jw.number(m, 2) - jw.generator(m, phi, "BS", 1, 2, 1.0))
        mat_exp = expm(1j * gen)
        mat_map = dense_matrix(m, phi, lambda st: apply_fswap(st, 1, 2))
        assert np.max(np.abs(mat_exp - mat_map)) < 1e-10


def test_nearest_neighbour_bs_closed_form():
    # series form 1 + i sin(theta) K + (cos(theta) - 1) K^2 for adjacent modes
    theta = 0.81
    for m in (2, 3, 4, 5):
        for i in range(1, m):
            hop = hopping(m, i, i + 1)
            for phi in PHI_GRID:
                for occ in range(1 << m):
                    ket = basis_state(occ, phi, m)
                    k1 = apply_operator_expr(ket, hop)
                    k2 = apply_operator_expr(k1, hop)
                    closed = {
                        occ2: ket.amplitudes.get(occ2, 0.0)
                        + 1j * np.sin(theta) * k1.amplitudes.get(occ2, 0.0)
                        + (np.cos(theta) - 1.0) * k2.amplitudes.get(occ2, 0.0)
                        for occ2 in set(ket.amplitudes) | set(k1.amplitudes) | set(k2.amplitudes)
                    }
                    out = apply_gate(ket, bs(i, i + 1, theta))
                    assert table_diff(out, closed) < 1e-10


def test_empty_circuit_identity(rng):
    psi = random_state(rng, 4, 1.0)
    assert table_diff(run_circuit(psi, Circuit(4, 1.0, ())), psi) == 0.0


def test_circuit_inverse_and_unitarity(rng):
    for trial in range(6):
        m = int(rng.integers(2, 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        gates = []
        for _ in range(int(rng.integers(1, 8))):
            pick = rng.integers(0, 4)
            if pick == 0:
                gates.append(ps(int(rng.integers(1, m + 1)), float(rng.uniform(-np.pi, np.pi))))
            elif pick == 1:
                i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
                gates.append(bs(int(i), int(j), float(rng.uniform(-np.pi, np.pi))))
            elif pick == 2:
                i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
                gates.append(pa(int(i), int(j), float(rng.uniform(-1.0, 1.0))))
            else:
                i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
                gates.append(fswap(int(i), int(j)))
        circuit = Circuit(m, phi, tuple(gates))
        psi = random_state(rng, m, phi)
        evolved = run_circuit(psi, circuit)
        assert abs(evolved.norm() - psi.norm()) < 1e-10
        back = run_circuit(evolved, circuit.reversed_dagger())
        assert table_diff(back, psi) < 1e-10


def test_circuit_sector_mismatch():
    with pytest.raises(PreconditionError):
        run_circuit(vacuum(3, 0.0), Circuit(3, 1.0, ()))
    with pytest.raises(PreconditionError):
        run_circuit(vacuum(3, 0.0), Circuit(2, 0.0, ()))


def test_number_and_parity_conservation(rng):
    psi = random_state(rng, 4, 0.7, n=2)
    for gate in (ps(3, 0.4), bs(2, 3, 1.0), fswap(1, 4)):
        out = apply_gate(psi, gate)
        assert out.particle_number() == 2
    out = apply_gate(psi, pa(1, 3, 0.8))
    assert out.particle_number() is None
    assert {occ.bit_count() % 2 for occ in out.amplitudes} == {0}


def test_sector_invariant_circuits_have_identical_tables(rng):
    gates = (ps(2, 0.3), bs(1, 2, 0.7), bs(3, 4, -0.4), pa(1, 2, 0.5), fswap(2, 4))
    psi0 = random_state(rng, 4, 0.0)
    ref = run_circuit(psi0, Circuit(4, 0.0, gates))
    for phi in PHI_GRID[1:]:
        psi = AnyonState(4, phi, dict(psi0.amplitudes))
        out = run_circuit(psi, Circuit(4, phi, gates))
        assert table_diff(out, ref) < 1e-10


def test_decompose_distant_ps_canonical():
    assert decompose_distant(ps(1, 0.4)) == [ps(1, 0.4)]


def test_decompose_distant_pa_conjugation_identity():
    # swap chains move the pair (3, 4) onto (1, 2) and back
    nu = 0.37
    target = pa(3, 4, nu)
    seq = decompose_distant(target)
    m = 4
    chain = dense_matrix(m, 0.0, lambda st: run_circuit(st, Circuit(m, 0.0, tuple(seq))))
    explicit = [fswap(1, 3), fswap(2, 4), pa(1, 2, nu), fswap(2, 4), fswap(1, 3)]
    ref = dense_matrix(m, 0.0, lambda st: run_circuit(st, Circuit(m, 0.0, tuple(explicit))))
    direct = dense_matrix(m, 0.0, lambda st: apply_gate(st, target))
    assert np.max(np.abs(chain - direct)) < 1e-10
    assert np.max(np.abs(ref - direct)) < 1e-10


def test_decompose_distant_random_targets(rng):
    for _ in range(10):
        m = int(rng.integers(3, 7))
        theta = float(rng.uniform(-np.pi, np.pi))
        i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
        kind = ["PS", "BS", "PA"][int(rng.integers(0, 3))]
        gate = ps(int(i), theta) if kind == "PS" else (bs(int(i), int(j), theta) if kind == "BS" else pa(int(i), int(j), theta))
        seq = Circuit(m, 0.0, tuple(decompose_distant(gate)))
        for gate_el in seq.gates:
            if gate_el.kind == "FSWAP":
                assert abs(gate_el.i - gate_el.j) == 1
            else:
                assert gate_el.modes() in ((1,), (1, 2))
        got = dense_matrix(m, 0.0, lambda st: run_circuit(st, seq))
        ref = dense_matrix(m, 0.0, lambda st: apply_gate(st, gate))
        assert np.max(np.abs(got - ref)) < 1e-10


def test_circuit_json_round_trip():
    circ = Circuit(4, 0.25, (bs(1, 2, np.pi / 4), ps(3, 0.1), fswap(2, 4), pa(1, 2, -0.3)))
    back = circuit_from_json_dict(circuit_to_json_dict(circ))
    assert back == circ
    with pytest.raises(PreconditionError):
        circuit_from_json_dict({"m": 2, "phi": 0.0, "gates": [{"kind": "XX", "i": 1}]})


def test_gate_validation():
    with pytest.raises(PreconditionError):
        ps(0, 0.1)
    with pytest.raises(PreconditionError):
        bs(2, 2, 0.1)
    with pytest.raises(PreconditionError):
        Circuit(2, 0.0, (bs(1, 3, 0.2),))


def test_bogoliubov_identity(rng):
    psi = random_state(rng, 4, 2.2)
    out = apply_induced_bogoliubov(psi, BogoliubovPair.from_rotation(np.eye(4)))
    assert table_diff(out, psi) < 1e-12


def test_bogoliubov_rotation_matches_beam_splitter(rng):
    theta = 0.52
    u = np.eye(4, dtype=complex)
    u[:2, :2] = [[np.cos(theta), 1j * np.sin(theta)], [1j * np.sin(theta), np.cos(theta)]]
    for phi in PHI_GRID:
        psi = random_state(rng, 4, phi, n=1)
        got = apply_induced_bogoliubov(psi, BogoliubovPair.from_rotation(u))
        ref = apply_gate(psi, bs(1, 2, theta))
        assert table_diff(got, ref) < 1e-10


def test_bogoliubov_rotation_preserves_separability(rng):
    for _ in range(8):
        m = int(rng.integers(3, 6))
        phi = float(rng.uniform(0, 2 * np.pi))
        occ = int(rng.integers(1, 1 << m))
        gauss = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, _ = np.linalg.qr(gauss)
        out = apply_induced_bogoliubov(basis_state(occ, phi, m), BogoliubovPair.from_rotation(q))
        if 1 <= occ.bit_count() <= m:
            report = is_separable(out)
            assert report.separable
        assert abs(out.norm() - 1.0) < 1e-10


def test_bogoliubov_generator_matches_pa_gate(rng):
    theta = 0.45
    b = np.zeros((4, 4), dtype=complex)
    b[0, 1], b[1, 0] = theta, -theta
    pair = BogoliubovPair.from_generator(np.zeros((4, 4)), b)
    pair.validate()
    assert not pair.is_rotation()
    for phi in (0.0, 1.3):
        psi = random_state(rng, 4, phi)
        got = apply_induced_bogoliubov(psi, pair)
        ref = apply_gate(psi, pa(1, 2, theta))
        assert table_diff(got, ref) < 1e-10


def test_the_pairing_generator_writes_each_pair_once_with_the_matrix_of_both_halves(rng):
    for m in range(2, 7):
        a0, b0 = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for _ in range(2))
        a = a0 + a0.conj().T
        b = b0 - b0.T + 2e-13 * (rng.random((m, m)) - 0.5)  # antisymmetric within from_generator's 1e-12
        expr = _quadratic_expr(m, a, b)
        assert len(expr.terms) == m * m + m * (m - 1)
        halves = [LadderTerm(complex(a[k, l]), ((k + 1, CREATE), (l + 1, ANNIHILATE))) for k in range(m) for l in range(m)]
        for k in range(m):
            for l in range(m):
                halves.append(LadderTerm(0.5 * complex(b[k, l]), ((k + 1, CREATE), (l + 1, CREATE))))
                halves.append(LadderTerm(0.5 * complex(b[k, l]).conjugate(), ((l + 1, ANNIHILATE), (k + 1, ANNIHILATE))))
        basis = range(1 << m)
        got = operator_matrix(expr, 0.0, basis)
        assert got.tobytes() == operator_matrix(OperatorExpr(m, tuple(halves)), 0.0, basis).tobytes()


def test_bogoliubov_invariant_violation_rejected():
    bad = BogoliubovPair(np.eye(3) * 2.0, np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        bad.validate()
    with pytest.raises(PreconditionError):
        apply_induced_bogoliubov(vacuum(3), bad)


def test_bogoliubov_pairing_requires_generator():
    theta = 0.3
    b = np.zeros((2, 2), dtype=complex)
    b[0, 1], b[1, 0] = theta, -theta
    built = BogoliubovPair.from_generator(np.zeros((2, 2)), b)
    stripped = BogoliubovPair(built.u, built.v)
    with pytest.raises(PreconditionError):
        apply_induced_bogoliubov(vacuum(2), stripped)


def test_sector_comparison_is_circular():
    # 2*pi - 1e-13 and 0 tag the same sector on both engines
    from anyonsim import run_circuit_fastpath
    from anyonsim.states import inner_product, wrap_phi

    psi = basis_state("1100", wrap_phi(-1e-13))
    circuit = Circuit(4, 0.0, (bs(1, 2, 0.3),))
    ref = run_circuit(basis_state("1100", 0.0), circuit)
    assert table_diff(run_circuit(psi, circuit), ref) < 1e-12
    assert table_diff(run_circuit_fastpath(psi, circuit), ref) < 1e-12
    assert abs(inner_product(psi, basis_state("1100", 0.0)) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bogoliubov_non_finite_rotation_rejected(bad):
    u = np.eye(3, dtype=complex)
    u[0, 0] = bad
    with pytest.raises(PreconditionError, match="finite"):
        apply_induced_bogoliubov(AnyonState(3, 0.7, {0b011: 1.0}), BogoliubovPair.from_rotation(u))


@pytest.mark.parametrize("block", ["hopping", "pairing"])
def test_bogoliubov_non_finite_generator_rejected(block):
    a = np.zeros((3, 3), dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    target = a if block == "hopping" else b
    target[0, 1] = target[1, 0] = np.nan
    with pytest.raises(PreconditionError, match="finite"):
        BogoliubovPair.from_generator(a, b)


def test_a_gate_returns_an_empty_table_unchanged():
    empty = AnyonState(4, 1.3, {})
    assert apply_gate(empty, bs(1, 3, 0.4)) is empty


def test_bogoliubov_that_moves_the_norm_is_refused():
    # the pair passes validate (residual below 1e-10), but its orbit expm moves |psi|^2 of the vacuum by 2.26e-10
    a = [[0, 1e6j], [-1e6j, 5e5]]
    b = [[0, 1e6j], [-1e6j, 0]]
    with pytest.raises(PreconditionError, match=r"changed the squared norm by 2\.2\d\de-10"):
        apply_induced_bogoliubov(vacuum(2), BogoliubovPair.from_generator(a, b))


def test_bogoliubov_rotation_that_moves_the_norm_is_refused():
    # |UU+ - 1| = 9.8e-11 passes validate, but each of the two particles scales |psi|^2 by 1 + 9.8e-11
    pair = BogoliubovPair.from_rotation(np.eye(4) * (1 + 4.9e-11))
    pair.validate()
    with pytest.raises(PreconditionError, match="changed the squared norm by 1.96"):
        apply_induced_bogoliubov(split_pair(0.7), pair)
