"""A mode index, a kept particle slot or a mode count is an integer of at least 1: bools and non-integral numbers are refused, integer types such as ``np.int64`` pass."""

import json

import numpy as np
import pytest

from anyonsim import (
    CREATE,
    AnyonState,
    LadderTerm,
    OperatorExpr,
    PreconditionError,
    annihilation,
    apply_annihilate,
    apply_create,
    apply_number,
    creation,
    hopping,
    number,
    pair_source,
    particle_trace_rdm,
    vacuum,
)
from anyonsim.cli import main
from anyonsim.fastpath import run_circuit_fastpath
from anyonsim.optics import Circuit, GateElement, apply_fswap, apply_gate, bs, circuit_to_json_dict, ps, run_circuit
from anyonsim.states import MODE_COUNT_MAX, state_to_json_dict

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


@pytest.mark.parametrize("i", BAD, ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda i: creation(4, i),
        lambda i: annihilation(4, i),
        lambda i: number(4, i),
        lambda i: hopping(4, 1, i),
        lambda i: hopping(4, i, 2),
        lambda i: pair_source(4, 3, i),
        lambda i: pair_source(4, i, 3),
    ],
    ids=["creation", "annihilation", "number", "hopping-j", "hopping-i", "pair_source-j", "pair_source-i"],
)
def test_operator_builders_refuse_a_non_integer_mode(build, i):
    with pytest.raises(PreconditionError, match="^mode index must be an integer"):
        build(i)


@pytest.mark.parametrize("i", BAD, ids=repr)
def test_a_ladder_factor_refuses_a_non_integer_mode(i):
    with pytest.raises(PreconditionError, match="^mode index must be an integer"):
        LadderTerm(1.0 + 0.0j, ((2, CREATE), (i, CREATE)))


@pytest.mark.parametrize("i", BAD, ids=repr)
def test_a_weight_refuses_a_non_integer_mode(i):
    with pytest.raises(PreconditionError, match="^mode index must be an integer"):
        OperatorExpr(4, (LadderTerm(1.0 + 0.0j, ((2, CREATE),), {i: 0.5}),))


@pytest.mark.parametrize("i, message", [(0, "mode index 0 must be >= 1"), (-2, "mode index -2 must be >= 1"), (5, "mode index 5 out of range 1..4")])
def test_a_weight_outside_the_modes_is_refused_as_a_mode_index(i, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        OperatorExpr(4, (LadderTerm(1.0 + 0.0j, (), {i: 0.5}),))


@pytest.mark.parametrize("i", [0, -1])
def test_a_mode_below_1_is_refused_with_its_value(i):
    with pytest.raises(PreconditionError, match=f"^mode index {i} must be >= 1$"):
        GateElement("BS", 2, i, 0.3)
    with pytest.raises(PreconditionError, match=f"^mode index {i} must be >= 1$"):
        GateElement("PS", i, None, 0.3)
    with pytest.raises(PreconditionError, match=f"^mode index {i} must be >= 1$"):
        creation(4, i)


MODE_COUNT_OWNERS = [
    lambda m: AnyonState(m, 0.0, {1: 1.0}),
    lambda m: vacuum(m),
    lambda m: Circuit(m, 0.0),
    lambda m: OperatorExpr(m),
]
OWNER_IDS = ["AnyonState", "vacuum", "Circuit", "OperatorExpr"]


@pytest.mark.parametrize("m", [True, 4.0, np.float64(4.0), "4", None], ids=repr)
@pytest.mark.parametrize("build", MODE_COUNT_OWNERS, ids=OWNER_IDS)
def test_a_mode_count_is_an_integer(build, m):
    with pytest.raises(PreconditionError, match="^mode count must be an integer"):
        build(m)


@pytest.mark.parametrize("m", [0, -3])
@pytest.mark.parametrize("build", MODE_COUNT_OWNERS, ids=OWNER_IDS)
def test_a_mode_count_is_at_least_1(build, m):
    with pytest.raises(PreconditionError, match=f"^mode count {m} must be >= 1$"):
        build(m)


@pytest.mark.parametrize("build", MODE_COUNT_OWNERS, ids=OWNER_IDS)
def test_an_integer_type_mode_count_passes(build):
    assert build(np.int64(3)) == build(3)


def test_a_kept_slot_below_1_is_refused_with_its_value():
    with pytest.raises(PreconditionError, match="^kept slot 0 must be >= 1$"):
        particle_trace_rdm(PSI, 0)
    with pytest.raises(PreconditionError, match=r"^kept slot 3 out of range 1\.\.2$"):
        particle_trace_rdm(PSI, 3)


@pytest.mark.parametrize("build", MODE_COUNT_OWNERS, ids=OWNER_IDS)
def test_a_mode_count_is_at_most_the_bound(build):
    build(MODE_COUNT_MAX)
    with pytest.raises(PreconditionError, match=f"^mode count {MODE_COUNT_MAX + 1} is over the bound of {MODE_COUNT_MAX} modes$"):
        build(MODE_COUNT_MAX + 1)


def test_a_state_file_with_a_huge_mode_count_exits_4(tmp_path, capsys):
    # 1 << 10**30 cannot be built: the bound is checked first
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"m": 1e30, "phi": 0.0, "amplitudes": []}))
    assert main(["run", "--state", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: mode count 1000000000000000019884624838656 is over the bound")
    assert "Traceback" not in err


WIDE = AnyonState(70, 0.0, {1 << 65: 1.0 + 0.0j, 1 << 3: 0.5 + 0.0j})


def test_numpy_modes_above_63_act_as_python_ints():
    # 1 << np.int64(65) is numpy int64 arithmetic; stored as int, the modes shift exactly
    narrow, wide = Circuit(70, 0.0, (bs(66, 67, 0.3),)), Circuit(70, 0.0, (bs(np.int64(66), np.int64(67), 0.3),))
    for engine in (run_circuit, run_circuit_fastpath):
        assert table_bytes(engine(WIDE, wide)) == table_bytes(engine(WIDE, narrow))
    assert set(run_circuit(WIDE, wide).amplitudes) == {1 << 65, 1 << 66, 1 << 3}


@pytest.mark.parametrize("op", [apply_create, apply_annihilate, apply_number])
@pytest.mark.parametrize("i", [66, 67, 4])
def test_ladder_operators_take_numpy_modes_above_63(op, i):
    assert table_bytes(op(WIDE, np.int64(i))) == table_bytes(op(WIDE, i))


def test_fswap_takes_numpy_modes_above_63():
    assert table_bytes(apply_fswap(WIDE, np.int64(66), np.int64(67))) == table_bytes(apply_fswap(WIDE, 66, 67))
    assert set(apply_fswap(WIDE, 66, 67).amplitudes) == {1 << 66, 1 << 3}


def test_a_numpy_mode_count_of_64_holds_a_64_mode_table():
    state = AnyonState(np.int64(64), 0.0, {1: 1.0, 1 << 63: 1.0})
    assert type(state.m) is int and state == AnyonState(64, 0.0, {1: 1.0, 1 << 63: 1.0})


def test_numpy_indices_are_stored_as_int():
    gate = GateElement("BS", np.int64(1), np.int64(3), 0.3)
    term = LadderTerm(1.0 + 0.0j, ((np.int64(2), CREATE),), {np.int64(3): 0.5})
    expr = OperatorExpr(np.int64(4), (term,))
    stored = [gate.i, gate.j, term.factors[0][0], *term.weights, expr.m, Circuit(np.int64(4), 0.0, (gate,)).m]
    assert [type(k) for k in stored] == [int] * 6


def test_numpy_fields_serialize_as_json():
    circuit = Circuit(np.int64(4), 0.0, (GateElement("BS", np.int64(1), np.int64(2), 0.3), GateElement("PS", np.int64(3), None, 0.1)))
    assert json.dumps(circuit_to_json_dict(circuit)) == json.dumps(circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.3), ps(3, 0.1)))))
    state = AnyonState(np.int64(4), 0.0, {0b0101: 1.0 + 0.0j})
    assert json.loads(json.dumps(state_to_json_dict(state)))["m"] == 4
