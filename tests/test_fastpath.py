import numpy as np
import pytest

from anyonsim import (
    Circuit,
    FamilyMismatchError,
    ParticleNumberMismatch,
    PreconditionError,
    amplitude_number_conserving,
    anyonic_amplitude_via_fastpath,
    basis_state,
    bs,
    compile_single_particle,
    fswap,
    pa,
    ps,
    run_circuit,
    run_circuit_fastpath,
)
from anyonsim.errors import InvariantBreachError
from anyonsim.fastpath import SingleParticleUnitary, check_family
from conftest import random_state, table_diff


def random_in_family_gates(rng, m, depth, with_pa=False):
    gates = []
    for _ in range(depth):
        pick = int(rng.integers(0, 4 if with_pa else 3))
        if pick == 0:
            gates.append(ps(int(rng.integers(1, m + 1)), float(rng.uniform(-np.pi, np.pi))))
        elif pick == 1:
            a = int(rng.integers(1, m))
            gates.append(bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))))
        elif pick == 2:
            i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
            gates.append(fswap(int(i), int(j)))
        else:
            gates.append(pa(1, 2, float(rng.uniform(-1.0, 1.0))))
    return tuple(gates)


def test_compile_phase_shifter():
    u = compile_single_particle(Circuit(2, 0.0, (ps(1, 0.8),)))
    ref = np.diag([np.exp(1j * 0.8), 1.0])
    assert np.max(np.abs(u.matrix - ref)) < 1e-14


def test_compile_beam_splitter_block():
    theta = 0.47
    u = compile_single_particle(Circuit(3, 0.0, (bs(1, 2, theta),)))
    ref = np.eye(3, dtype=complex)
    ref[:2, :2] = [[np.cos(theta), 1j * np.sin(theta)], [1j * np.sin(theta), np.cos(theta)]]
    assert np.max(np.abs(u.matrix - ref)) < 1e-14


def test_compile_fswap_permutation():
    u = compile_single_particle(Circuit(3, 0.0, (fswap(1, 3),)))
    ref = np.eye(3)[[2, 1, 0]]
    assert np.max(np.abs(u.matrix - ref)) < 1e-14


def test_identity_amplitudes_are_kronecker():
    u = SingleParticleUnitary(np.eye(4, dtype=complex))
    for x in range(16):
        for y in range(16):
            if x.bit_count() != y.bit_count():
                continue
            amp = amplitude_number_conserving(u, x, y)
            assert amp == (1.0 if x == y else 0.0)


def test_single_particle_amplitude_is_matrix_entry(rng):
    circuit = Circuit(4, 0.0, random_in_family_gates(rng, 4, 9))
    u = compile_single_particle(circuit)
    for xm in range(4):
        for ym in range(4):
            amp = amplitude_number_conserving(u, 1 << xm, 1 << ym)
            assert abs(amp - u.matrix[ym, xm]) < 1e-13


def test_particle_number_mismatch_flagged():
    u = SingleParticleUnitary(np.eye(3, dtype=complex))
    with pytest.warns(ParticleNumberMismatch):
        amp = amplitude_number_conserving(u, 0b001, 0b011)
    assert amp == 0.0


@pytest.mark.parametrize("x, y", [(1 << 5, 1 << 6), (-1, 0b0011), (0b0011, 1 << 4), (0b0011, -3)])
@pytest.mark.parametrize("gates", [(bs(1, 2, 0.3),), (bs(1, 2, 0.3), pa(1, 2, 0.2))])
def test_configurations_outside_the_modes_are_refused(x, y, gates):
    circuit = Circuit(4, 0.0, gates)
    with pytest.raises(PreconditionError, match="does not fit 4 modes"):
        anyonic_amplitude_via_fastpath(circuit, x, y)
    if len(gates) == 1:
        with pytest.raises(PreconditionError, match="does not fit 4 modes"):
            amplitude_number_conserving(compile_single_particle(circuit), x, y)


def test_determinant_matches_dense(rng):
    for _ in range(15):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, min(m, 3) + 1))
        phi = float(rng.uniform(0, 2 * np.pi))
        circuit = Circuit(m, phi, random_in_family_gates(rng, m, int(rng.integers(1, 12))))
        u = compile_single_particle(circuit)
        x = int(rng.choice([occ for occ in range(1 << m) if occ.bit_count() == n]))
        dense = run_circuit(basis_state(x, phi, m), circuit)
        for y in (occ for occ in range(1 << m) if occ.bit_count() == n):
            assert abs(amplitude_number_conserving(u, x, y) - dense.amplitude(y)) < 1e-10


def test_compilation_is_multiplicative(rng):
    m = 5
    g1 = random_in_family_gates(rng, m, 6)
    g2 = random_in_family_gates(rng, m, 6)
    u1 = compile_single_particle(Circuit(m, 0.0, g1)).matrix
    u2 = compile_single_particle(Circuit(m, 0.0, g2)).matrix
    u12 = compile_single_particle(Circuit(m, 0.0, g1 + g2)).matrix
    assert np.max(np.abs(u12 - u2 @ u1)) < 1e-12


def test_sector_unitarity_of_amplitudes(rng):
    for m in range(2, 7):
        circuit = Circuit(m, 0.0, random_in_family_gates(rng, m, 10))
        u = compile_single_particle(circuit)
        for x in range(1 << m):
            n = x.bit_count()
            total = sum(
                abs(amplitude_number_conserving(u, x, y)) ** 2
                for y in range(1 << m)
                if y.bit_count() == n
            )
            assert abs(total - 1.0) < 1e-10


def test_rejects_out_of_family_gates():
    with pytest.raises(FamilyMismatchError, match="distant"):
        compile_single_particle(Circuit(4, 0.0, (bs(1, 3, 0.4),)))
    with pytest.raises(FamilyMismatchError, match="PA"):
        compile_single_particle(Circuit(4, 0.0, (pa(1, 2, 0.4),)))
    with pytest.raises(FamilyMismatchError, match="PA"):
        anyonic_amplitude_via_fastpath(Circuit(4, 0.0, (pa(2, 1, 0.4),)), 0, 0)
    with pytest.raises(FamilyMismatchError, match="distant"):
        anyonic_amplitude_via_fastpath(Circuit(4, 0.0, (bs(2, 4, 0.4),)), 1, 1)


def test_fastpath_amplitudes_sector_independent(rng):
    m = 5
    gates = random_in_family_gates(rng, m, 8, with_pa=True)
    x = 0b10110
    fast = {}
    for y in range(1 << m):
        fast[y] = anyonic_amplitude_via_fastpath(Circuit(m, 0.0, gates), x, y)
    for phi in (0.0, np.pi / 3, np.pi):
        dense = run_circuit(basis_state(x, phi, m), Circuit(m, phi, gates))
        for y in range(1 << m):
            assert abs(fast[y] - dense.amplitude(y)) < 1e-10


def test_run_circuit_fastpath_superposition(rng):
    m = 5
    phi = 1.9
    gates = random_in_family_gates(rng, m, 10, with_pa=True)
    psi = random_state(rng, m, phi)
    dense = run_circuit(psi, Circuit(m, phi, gates))
    fast = run_circuit_fastpath(psi, Circuit(m, phi, gates))
    assert table_diff(dense, fast) < 1e-10


def test_worked_example_amplitudes_via_fastpath():
    theta = np.pi / 5
    circuit = Circuit(4, 0.0, (bs(1, 2, theta),))
    x = 0b0011  # modes 1 and 2
    u = compile_single_particle(circuit)
    assert abs(amplitude_number_conserving(u, x, 0b0011) - 1.0) < 1e-12
    x2 = 0b1001  # modes 1 and 4
    assert abs(amplitude_number_conserving(u, x2, 0b1001) - np.cos(theta)) < 1e-12
    assert abs(amplitude_number_conserving(u, x2, 0b1010) - 1j * np.sin(theta)) < 1e-12


@pytest.mark.parametrize(
    "circuit, match",
    [(Circuit(3, 0.0, (bs(1, 2, 0.3),)), "over 3 modes"), (Circuit(4, 1.0, (bs(1, 2, 0.3),)), "sector")],
)
def test_run_circuit_fastpath_refuses_a_circuit_that_does_not_fit(circuit, match):
    # a mode or sector mismatch has nothing to do with the gate family
    with pytest.raises(PreconditionError, match=match):
        run_circuit_fastpath(basis_state("1100", 0.0), circuit)


def test_the_family_admits_pa_1_2_but_it_has_no_transfer_matrix():
    circuit = Circuit(4, 0.0, (bs(1, 2, 0.4), pa(1, 2, 0.3)))
    check_family(circuit)  # PA(1,2) is in the fast-path family
    message = r"^PA\(1,2; theta=0\.3\): a pairing gate has no single-particle transfer matrix$"
    with pytest.raises(FamilyMismatchError, match=message):
        compile_single_particle(circuit)


def test_a_transfer_matrix_is_square():
    with pytest.raises(InvariantBreachError, match="^transfer matrix must be square$"):
        SingleParticleUnitary(np.eye(2, 3, dtype=complex))
