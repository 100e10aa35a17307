"""Single-particle rotations run on the determinant engine.

A Bogoliubov transformation with V = 0 and the Slater reconstruction are
rotations ``a+_i -> sum_j T[j, i] a+_j``, whose Fock amplitudes are minors
of T.  Both hand T to the fast path's block, so they share its bits, its
light cone and its minor budget.
"""

import numpy as np
import pytest
from conftest import random_state, table_diff

from anyonsim import (
    BogoliubovPair,
    Circuit,
    PreconditionError,
    apply_induced_bogoliubov,
    basis_state,
    compile_single_particle,
    reconstruct_from_slater,
    run_circuit_fastpath,
    slater_decompose,
    two_slater,
)
from anyonsim import fastpath
from anyonsim.optics import GateElement


def _in_family_circuit(rng: np.random.Generator, m: int, phi: float) -> Circuit:
    """Random phase shifters, nearest-neighbour beam splitters and mode swaps."""
    gates = []
    for _ in range(int(rng.integers(1, 9))):
        kind = str(rng.choice(["PS", "BS", "FSWAP"]))
        if kind == "PS":
            gates.append(GateElement("PS", int(rng.integers(1, m + 1)), None, float(rng.uniform(-np.pi, np.pi))))
        elif kind == "BS":
            i = int(rng.integers(1, m))
            gates.append(GateElement("BS", i, i + 1, float(rng.uniform(-np.pi, np.pi))))
        else:
            i, j = sorted(int(k) for k in rng.choice(np.arange(1, m + 1), size=2, replace=False))
            gates.append(GateElement("FSWAP", i, j, None))
    return Circuit(m, phi, tuple(gates))


@pytest.mark.parametrize("seed", range(20))
def test_rotation_is_bitwise_the_fast_path(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 8))
    phi = float(rng.uniform(0.0, 2 * np.pi))
    psi = random_state(rng, m, phi)
    circuit = _in_family_circuit(rng, m, phi)
    pair = BogoliubovPair.from_rotation(compile_single_particle(circuit).matrix.T)
    got = apply_induced_bogoliubov(psi, pair)
    ref = run_circuit_fastpath(psi, circuit)
    assert got.phi == ref.phi
    assert list(got.amplitudes) == list(ref.amplitudes)
    assert np.array(list(got.amplitudes.values())).tobytes() == np.array(list(ref.amplitudes.values())).tobytes()


def test_rotation_over_the_minor_budget_is_refused(monkeypatch):
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(6, 6)) + 1j * np.eye(6))
    pair = BogoliubovPair.from_rotation(q)
    psi = basis_state("111000", 0.9)
    assert abs(apply_induced_bogoliubov(psi, pair).norm() - 1.0) < 1e-12
    monkeypatch.setattr(fastpath, "_MINOR_BUDGET", 10)  # C(6, 3) = 20 minors
    with pytest.raises(PreconditionError, match="budget"):
        apply_induced_bogoliubov(psi, pair)


def test_rotation_leaves_the_callers_matrix_alone():
    u = np.eye(3, dtype=complex)
    u[[0, 1]] = u[[1, 0]]
    u[2, 2] = np.exp(1j * 1e-320)  # imaginary part is subnormal, and the fast path flushes it
    pair = BogoliubovPair.from_rotation(u)
    before = pair.u.tobytes()
    out = apply_induced_bogoliubov(basis_state("110", 0.4), pair)
    assert pair.u.tobytes() == before
    assert table_diff(out, {0b011: -1.0}) == 0.0


@pytest.mark.parametrize("m", [3, 6])
def test_slater_reconstruction_refuses_another_mode_count(m):
    dec = slater_decompose(two_slater(0.3))
    with pytest.raises(PreconditionError, match="modes"):
        reconstruct_from_slater(dec, m)

