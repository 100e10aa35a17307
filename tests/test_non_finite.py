"""Non-finite amplitudes fail loudly, and subnormal transfer entries cannot make one."""

import json

import numpy as np
import pytest

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, Circuit, InvariantBreachError, bs, circuit_to_json_dict, run_circuit, run_circuit_fastpath
from anyonsim import fastpath
from anyonsim.cli import main
from anyonsim.entanglement import DensityMatrix, is_separable, slater_decompose, von_neumann_entropy
from anyonsim.errors import PreconditionError
from anyonsim.states import prune


@pytest.mark.parametrize("bad", [complex(float("nan"), 0.0), complex(0.0, float("nan")), complex(float("inf"), 0.0), float("-inf")])
def test_prune_raises_on_non_finite_amplitude(bad):
    with pytest.raises(InvariantBreachError, match="not finite"):
        prune({0b01: 0.6, 0b10: bad})


def test_prune_keeps_its_threshold():
    assert prune({1: 1e-14, 2: 1.0000001e-14, 3: -0.0, 4: 1e308}) == {2: 1.0000001e-14, 4: 1e308}


def test_nan_from_a_gate_exits_5(tmp_path, capsys, monkeypatch):
    real_expm = optics_mod.expm
    monkeypatch.setattr(optics_mod, "expm", lambda a: real_expm(a) * np.nan)
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps(circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.9),)))))
    out = tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", str(circ), "--out", str(out)]) == 5
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


SUBNORMAL_STATE = AnyonState(3, 0.0, {0b101: 0.6, 0b110: 0.8})
SUBNORMAL_CIRCUIT = Circuit(3, 0.0, (bs(2, 3, 2.2250738585e-313),))


def test_fastpath_with_subnormal_transfer_entry_matches_dense():
    dense = run_circuit(SUBNORMAL_STATE, SUBNORMAL_CIRCUIT)
    fast = run_circuit_fastpath(SUBNORMAL_STATE, SUBNORMAL_CIRCUIT)
    assert dense.amplitudes == {0b101: 0.6, 0b110: 0.8}
    assert fast.amplitudes == dense.amplitudes


def test_compiled_transfer_matrix_has_no_subnormal_part():
    u = fastpath.compile_single_particle(SUBNORMAL_CIRCUIT).matrix
    parts = np.abs(np.concatenate([u.real.ravel(), u.imag.ravel()]))
    assert not np.any((parts > 0.0) & (parts < np.finfo(float).tiny))


def test_block_raises_on_non_finite_total():
    # the unflushed transfer matrix: LAPACK returns NaN for the singular minor holding 2.2e-313j
    u = np.eye(3, dtype=complex)
    u[1, 2] = u[2, 1] = 2.2250738585e-313j
    with pytest.raises(InvariantBreachError, match="not finite"):
        fastpath._evolve_nc_block(dict(SUBNORMAL_STATE.amplitudes), fastpath.SingleParticleUnitary(u))


NAN = float("nan")


def test_transfer_matrix_with_nan_entry_is_rejected():
    with pytest.raises(InvariantBreachError, match="not unitary"):
        fastpath.SingleParticleUnitary(np.array([[NAN, 0.0], [0.0, 1.0]], dtype=complex))


def test_density_matrix_with_nan_in_the_unread_triangle_is_rejected():
    # eigvalsh reads one triangle only; the NaN sits in the other
    with pytest.raises(InvariantBreachError, match="not Hermitian"):
        DensityMatrix([[0.5, NAN], [0.0, 0.5]])


def test_entropy_of_a_raw_nan_matrix_is_rejected():
    with pytest.raises(PreconditionError, match="Hermitian"):
        von_neumann_entropy(np.full((2, 2), NAN))


def test_pair_coefficients_with_nan_are_rejected():
    with pytest.raises(InvariantBreachError, match="antisymmetric"):
        slater_decompose(AnyonState(4, 0.0, {0b0011: NAN, 0b1100: 1.0}))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
def test_separability_tolerances_must_be_finite_and_nonnegative(tol):
    state = AnyonState(4, 0.0, {0b0011: 0.6, 0b1100: 0.8})
    with pytest.raises(PreconditionError, match="tol must be finite"):
        slater_decompose(state, rank_tol=tol)
    with pytest.raises(PreconditionError, match="tol must be finite"):
        is_separable(state, tol=tol)
    assert is_separable(state, tol=0.0).slater_rank == slater_decompose(state, rank_tol=0.0).rank == 2
