"""A mode index, or a kept particle slot, is an integer: bools and non-integral numbers are refused, integer types such as ``np.int64`` pass."""

import numpy as np
import pytest

from anyonsim import AnyonState, PreconditionError, apply_annihilate, apply_create, apply_number, particle_trace_rdm
from anyonsim.optics import Circuit, GateElement, apply_fswap, apply_gate, run_circuit

PSI = AnyonState(4, 1.1, {0b0011: 0.6 + 0.0j, 0b0101: 0.0 + 0.8j})
BAD = [1.5, 1.0, np.float64(2.0), True, False, np.True_, "1"]


@pytest.mark.parametrize("i", BAD, ids=repr)
@pytest.mark.parametrize("op", [apply_create, apply_annihilate, apply_number])
def test_ladder_operators_refuse_a_non_integer_mode(op, i):
    with pytest.raises(PreconditionError, match="must be an integer"):
        op(PSI, i)


@pytest.mark.parametrize("i", BAD, ids=repr)
def test_fswap_refuses_a_non_integer_mode(i):
    with pytest.raises(PreconditionError, match="must be an integer"):
        apply_fswap(PSI, 3, i)


@pytest.mark.parametrize("i", BAD, ids=repr)
@pytest.mark.parametrize("kind, theta", [("BS", 0.3), ("PA", 0.3), ("FSWAP", None)])
def test_gate_elements_refuse_a_non_integer_mode(kind, theta, i):
    with pytest.raises(PreconditionError, match="must be an integer"):
        GateElement(kind, i, 3, theta)
    with pytest.raises(PreconditionError, match="must be an integer"):
        GateElement(kind, 3, i, theta)


@pytest.mark.parametrize("i", BAD, ids=repr)
def test_a_phase_shifter_refuses_a_non_integer_mode(i):
    with pytest.raises(PreconditionError, match="must be an integer"):
        GateElement("PS", i, None, 0.3)


def table_bytes(state):
    return list(state.amplitudes), np.array(list(state.amplitudes.values()), dtype=complex).tobytes()


@pytest.mark.parametrize("gate", [GateElement("BS", 1, 2, 0.3), GateElement("PS", 2, None, 0.7), GateElement("FSWAP", 2, 3)])
def test_numpy_integer_modes_act_as_python_ints(gate):
    wide = GateElement(gate.kind, np.int64(gate.i), None if gate.j is None else np.int64(gate.j), gate.theta)
    assert table_bytes(apply_gate(PSI, wide)) == table_bytes(apply_gate(PSI, gate))
    assert table_bytes(run_circuit(PSI, Circuit(4, PSI.phi, (wide,)))) == table_bytes(
        run_circuit(PSI, Circuit(4, PSI.phi, (gate,)))
    )
    assert table_bytes(apply_create(PSI, np.int64(4))) == table_bytes(apply_create(PSI, 4))


@pytest.mark.parametrize("keep", [True, 1.5, 2.0, None], ids=repr)
def test_particle_trace_refuses_a_non_integer_slot(keep):
    with pytest.raises(PreconditionError, match="kept slot must be an integer"):
        particle_trace_rdm(PSI, keep)


def test_particle_trace_keeps_an_integer_type_slot():
    assert np.array_equal(particle_trace_rdm(PSI, np.int64(1)).matrix, particle_trace_rdm(PSI, "x").matrix)
