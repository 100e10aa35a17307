"""The pair normal form across its noise floor: one rule decides which coefficients are zero.

A two-particle state with pair coefficients z_1 >= z_2 >= ... is built as
C = U^T (+)_k z_k J U for a random mode unitary U, so the true coefficients
are known.  ``_Z_FLOOR`` splits off the kernel and bounds the block check;
``is_separable`` reports the rank it cross-checks.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim.cli import _bind_theta, main
from anyonsim.entanglement import _Z_FLOOR, is_separable, slater_decompose
from anyonsim.optics import run_circuit
from anyonsim.presets import split_pair
from anyonsim.states import AnyonState, state_to_json_dict, wrap_phi
from anyonsim.transmute import transmute_state


def rotated_pair_state(m: int, zs: list[float], rng: np.random.Generator, phi: float = 0.0) -> AnyonState:
    """The state with pair matrix U^T (+)_k z_k J U, U a Haar-random m x m unitary, moved to sector phi."""
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    blocks = np.zeros((m, m), dtype=complex)
    for k, z in enumerate(zs):
        blocks[2 * k, 2 * k + 1], blocks[2 * k + 1, 2 * k] = z, -z
    c = u.T @ blocks @ u
    table = {(1 << i) | (1 << j): complex(c[i, j]) for i in range(m) for j in range(i + 1, m)}
    return transmute_state(AnyonState(m, 0.0, table), phi)


def test_schmidt_of_a_pair_below_the_old_floor_exits_0(tmp_path, capsys):
    norm = math.hypot(1.0, 1e-7)
    state = AnyonState(4, 0.0, {0b0011: 1.0 / norm, 0b1100: 1e-7 / norm})
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(state)))
    assert main(["schmidt", "--state", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["z"], [1.0 / norm, 1e-7 / norm], rtol=0.0, atol=1e-12)
    assert report["rank"] == 2  # schmidt counts z > 1e-8


def test_fine_theta_scan_reports_the_cross_checked_rank(tmp_path, capsys):
    circuit = {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 3, "theta": None}]}
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit))
    for theta_grid in ("0:1e-6:6", "0:1e-5:2"):
        argv = ["entropy-scan", "--preset", "split-pair", "--circuit", str(path), "--phi-grid", "1.3:1.3:1"]
        assert main(argv + ["--theta-grid", theta_grid]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi,theta,S_x,S_y,E_SP,slater_rank"
        assert len(lines) == 1 + int(theta_grid.rsplit(":", 1)[1])
        for line in lines[1:]:
            phi, theta, *_, rank = line.split(",")
            sector = wrap_phi(float(phi))
            evolved = run_circuit(transmute_state(split_pair(), sector), _bind_theta(circuit, float(theta), sector))
            assert int(rank) == is_separable(evolved, tol=1e-8).slater_rank == 1


def test_a_coefficient_at_the_floor_never_breaks_the_block_check():
    # the kernel block holds z_2 itself; rounding may push its entry a hair past the floor
    rng = np.random.default_rng(7)
    for trial in range(400):
        m = 4 + trial % 5
        state = rotated_pair_state(m, [math.sqrt(1.0 - _Z_FLOOR**2), _Z_FLOOR], rng)
        dec = slater_decompose(state)
        assert len(dec.z) in (1, 2) and abs(dec.z[0] - math.sqrt(1.0 - _Z_FLOOR**2)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(4, 8),
    log_z2=st.floats(-12.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_pair_normal_form_recovers_coefficients_across_the_floor(m, log_z2, seed, phi):
    z2 = 10.0**log_z2
    z_true = [math.sqrt(1.0 - z2 * z2), z2]
    state = rotated_pair_state(m, z_true, np.random.default_rng(seed), phi)
    dec = slater_decompose(state)
    if abs(z2 - _Z_FLOOR) > 1e-12:
        assert len(dec.z) == sum(z > _Z_FLOOR for z in z_true)
    assert np.max(np.abs(dec.z - z_true[: len(dec.z)])) <= 1e-12
    report = is_separable(state)
    assert report.separable == (report.slater_rank == 1)


def two_small_pairs_state(z_small: float, phi: float = 0.0) -> AnyonState:
    """Kets 110000, 001100, 000011 with pair coefficients (sqrt(1 - 2 z^2), z, z)."""
    z1 = math.sqrt(1.0 - 2.0 * z_small**2)
    return AnyonState(6, phi, {0b000011: z1, 0b001100: z_small, 0b110000: z_small})


def test_entropy_scan_rank_follows_the_squared_tail(tmp_path, capsys):
    # 2 * (8.6e-5)^2 = 1.48e-8 > tol: entangled, although each z is below sqrt(tol) = 1e-4;
    # 2 * (6e-5)^2 = 7.2e-9 <= tol: separable
    for z_small, rank, separable in ((8.6e-5, 2, False), (6e-5, 1, True)):
        state = two_small_pairs_state(z_small)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json_dict(state)))
        argv = ["entropy-scan", "--state", str(path), "--phi-grid", "0:3:3", "--theta-grid", "0:1:3"]
        assert main(argv) == 0, z_small
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 9 and all(row.rsplit(",", 1)[1] == str(rank) for row in rows), z_small
        report = is_separable(state)
        assert (report.separable, report.slater_rank) == (separable, rank), z_small


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(z_small=st.floats(5e-5, 1.2e-4), phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_rank_one_exactly_when_the_occupations_say_separable(z_small, phi):
    report = is_separable(two_small_pairs_state(z_small, phi))  # raises if rank and verdict disagree
    assert report.separable == (report.slater_rank == 1)
    tail = 2.0 * z_small**2
    if abs(tail - 1e-8) > 1e-12:
        assert report.separable == (tail < 1e-8)


def close_pair_state(trial: int, rng: np.random.Generator) -> tuple[AnyonState, list[float]]:
    """Two coefficients near 0.7, 1e-8 to 1e-6 apart (plus 0.3 at m >= 6), on a random m-mode rotation."""
    m = 4 + trial % 5
    gap = 10 ** rng.uniform(-8, -6)
    zs = [0.7, 0.7 - gap] + ([0.3] if m >= 6 else [])
    norm = math.sqrt(sum(z * z for z in zs))
    zs = [z / norm for z in zs]
    return rotated_pair_state(m, zs, rng), zs


def close_pair_states() -> list[tuple[AnyonState, list[float]]]:
    rng = np.random.default_rng(0)
    return [close_pair_state(trial, rng) for trial in range(200)]


def test_close_but_distinct_coefficients_are_recovered():
    # a separate cluster's singular subspace is off by about eps/gap; the
    # partner C+ conj(u), taken on the whole uncovered space, keeps the
    # block check at rounding level anyway
    for trial, (state, zs) in enumerate(close_pair_states()):
        dec = slater_decompose(state)
        assert np.max(np.abs(dec.z - zs)) <= 1e-12, trial
        report = is_separable(state)
        assert (report.separable, report.slater_rank) == (False, len(zs)), trial


def test_schmidt_of_close_coefficients_exits_0(tmp_path, capsys):
    state, zs = close_pair_states()[166]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(state)))
    assert main(["schmidt", "--state", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.allclose(report["z"], zs, rtol=0.0, atol=1e-12)
