"""Non-finite amplitudes and squared norms fail loudly, and subnormal transfer entries cannot make one."""

import json
import warnings

import numpy as np
import pytest

import anyonsim.optics as optics_mod
from anyonsim import (
    AnyonState,
    BogoliubovPair,
    Circuit,
    InvariantBreachError,
    apply_induced_bogoliubov,
    bs,
    circuit_to_json_dict,
    run_circuit,
    run_circuit_fastpath,
)
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


def test_single_particle_unitary_flushes_its_own_subnormal_parts():
    u = np.eye(3, dtype=complex)
    u[1, 2] = u[2, 1] = 2.2250738585e-313j
    flushed = fastpath.SingleParticleUnitary(u)
    assert flushed.matrix[1, 2] == 0.0 and flushed.matrix[2, 1] == 0.0
    assert u[1, 2] == 2.2250738585e-313j  # the caller's array is copied, not flushed in place
    with pytest.raises(ValueError, match="read-only"):
        flushed.matrix[0, 0] = 0.0
    # unflushed, LAPACK's LU makes the singular minor NaN
    assert fastpath.amplitude_number_conserving(flushed, 0b110, 0b101) == 0.0


def test_block_on_a_subnormal_transfer_matrix_gives_the_flushed_answer():
    # unflushed, LAPACK returns NaN for the singular minor holding 2.2e-313j
    u = np.eye(3, dtype=complex)
    u[1, 2] = u[2, 1] = 2.2250738585e-313j
    out = fastpath._evolve_nc_block(dict(SUBNORMAL_STATE.amplitudes), fastpath.SingleParticleUnitary(u))
    assert out == {0b101: 0.6, 0b110: 0.8}


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


SQUARED_NORM_OVERFLOWS = {
    "one 1e200": {0b0011: 1e200},
    "four 1e154": dict.fromkeys((0b0011, 0b0101, 0b0110, 0b1001), 1e154),
    "four numpy 1e154": dict.fromkeys((0b0011, 0b0101, 0b0110, 0b1001), np.complex128(1e154)),
}
CIRCUIT = Circuit(4, 0.0, (bs(1, 2, 0.3),))


@pytest.mark.parametrize("table", SQUARED_NORM_OVERFLOWS.values(), ids=SQUARED_NORM_OVERFLOWS)
@pytest.mark.parametrize(
    "call",
    [
        AnyonState.norm,
        AnyonState.normalized,
        lambda state: run_circuit(state, CIRCUIT),
        lambda state: run_circuit_fastpath(state, CIRCUIT),
        is_separable,
    ],
    ids=["norm", "normalized", "run_circuit", "run_circuit_fastpath", "is_separable"],
)
def test_a_squared_norm_over_the_float_range_is_refused(table, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy amplitudes overflow to inf with a RuntimeWarning, which stays in
        with pytest.raises(PreconditionError, match=r"^state has \|psi\|\^2 = inf: its squared norm is over the float range$"):
            call(AnyonState(4, 0.0, table))


def test_a_finite_squared_norm_keeps_its_bits():
    state = AnyonState(4, 0.0, {0b0011: np.complex128(0.6 + 0.1j), 0b0101: 0.3 - 0.7j, 0b0110: 1e150})
    assert state.norm() == sum(abs(a) ** 2 for a in state.amplitudes.values()) ** 0.5


def test_a_generator_whose_exponential_overflows_is_refused_without_a_warning():
    s = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = BogoliubovPair.from_generator([[0.0, s], [s, 0.0]], [[0.0, s], [-s, 0.0]])
        with pytest.raises(PreconditionError, match="^U and V must be finite$"):
            apply_induced_bogoliubov(AnyonState(2, 0.0, {0b00: 1.0}), pair)


def test_a_pair_whose_residual_overflows_to_nan_is_refused_without_a_warning():
    # U U^+ has imaginary part 1e400 - 1e400 = inf - inf = NaN, which no comparison with the tolerance catches
    pair = BogoliubovPair.from_rotation([[1e200 + 1e200j, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="^not a canonical pair"):
            pair.validate()
