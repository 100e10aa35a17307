"""A JSON value that is not a number, in a numeric field of a state or circuit file, is malformed input (exit 2)."""

import json

import pytest

from anyonsim.cli import main
from anyonsim.states import json_float, json_int

STATE = {"m": 4, "phi": 0.0, "amplitudes": [{"occ": "1100", "re": 0.6, "im": 0.0}, {"occ": "1001", "re": 0.0, "im": 0.8}]}
CIRCUIT = {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": 0.4}, {"kind": "PS", "i": 3, "theta": 0.2}]}
NOT_NUMBERS = [None, [1.0], {"value": 1.0}, "0.5"]


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def with_state_field(field, value):
    state = json.loads(json.dumps(STATE))
    if field in ("re", "im", "occ"):
        state["amplitudes"][1][field] = value
    else:
        state[field] = value
    return state


def with_gate_field(field, value):
    circuit = json.loads(json.dumps(CIRCUIT))
    if field in ("m", "phi"):
        circuit[field] = value
    else:
        circuit["gates"][0][field] = value
    return circuit


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("field", ["m", "phi", "re", "im"])
def test_run_state_with_a_non_number_exits_2(tmp_path, capsys, field, value):
    state = write_json(tmp_path / "s.json", with_state_field(field, value))
    out = tmp_path / "amps.csv"
    assert main(["run", "--state", state, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 1100, ["1100"]], ids=repr)
def test_run_state_with_an_occupation_that_is_not_a_string_exits_2(tmp_path, capsys, value):
    state = write_json(tmp_path / "s.json", with_state_field("occ", value))
    assert main(["run", "--state", state]) == 2
    assert capsys.readouterr().err.startswith("input error: occ must be a string")


def not_numbers(fields, nullable=()):
    """(field, value) cases; a null in a nullable field has a meaning of its own and is left out."""
    return [(f, v) for f in fields for v in NOT_NUMBERS if not (v is None and f in nullable)]


@pytest.mark.parametrize("field, value", not_numbers(["m", "i", "j", "theta"], nullable=("j", "theta")), ids=repr)
def test_run_circuit_with_a_non_number_exits_2(tmp_path, capsys, field, value):
    circ = write_json(tmp_path / "c.json", with_gate_field(field, value))
    out = tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("value", [*NOT_NUMBERS, "x", KeyError], ids=lambda v: "missing" if v is KeyError else repr(v))
def test_run_does_not_read_the_circuit_phi(tmp_path, capsys, value):
    # the circuit runs in the state's sector, as in entropy-scan
    circuit = with_gate_field("phi", value)
    if value is KeyError:
        del circuit["phi"]
    ref, out = tmp_path / "ref.csv", tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", write_json(tmp_path / "ref.json", CIRCUIT), "--out", str(ref)]) == 0
    assert main(["run", "--preset", "split-pair", "--circuit", write_json(tmp_path / "c.json", circuit), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text() == ref.read_text()


@pytest.mark.parametrize("field, value", not_numbers(["m", "i", "j"], nullable=("j",)), ids=repr)
def test_entropy_scan_circuit_with_a_non_number_exits_2(tmp_path, capsys, field, value):
    circ = write_json(tmp_path / "c.json", with_gate_field(field, value))
    out = tmp_path / "scan.csv"
    code = main(["entropy-scan", "--preset", "split-pair", "--circuit", circ, "--phi-grid", "0:1:2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("value", [[0.4], {"value": 0.4}, "0.4"], ids=repr)
def test_entropy_scan_theta_that_is_neither_null_nor_a_number_exits_2(tmp_path, capsys, value):
    circ = write_json(tmp_path / "c.json", with_gate_field("theta", value))
    assert main(["entropy-scan", "--preset", "split-pair", "--circuit", circ, "--phi-grid", "0:1:2"]) == 2
    assert capsys.readouterr().err.startswith("input error: theta must be a number")


def test_null_j_and_null_theta_keep_their_meanings(tmp_path, capsys):
    # a null j on PS is an absent second mode; a null theta on BS is the sweep angle in entropy-scan
    circuit = {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": None}, {"kind": "PS", "i": 3, "j": None, "theta": 0.2}]}
    circ = write_json(tmp_path / "c.json", circuit)
    assert main(["entropy-scan", "--preset", "split-pair", "--circuit", circ, "--phi-grid", "0:1:2", "--theta-grid", "0:1:2"]) == 0
    # run has no sweep angle: a BS without one is a precondition failure, as before
    assert main(["run", "--preset", "split-pair", "--circuit", circ]) == 4
    assert "BS takes two modes and an angle" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, [1], True, "1"], ids=repr)
def test_json_helpers_refuse_non_numbers(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        json_int("x", value)
    with pytest.raises(ValueError, match="x must be a number"):
        json_float("x", value)


def test_json_helpers_pass_numbers():
    assert json_int("x", 3) == 3 and json_int("x", 3.0) == 3
    assert json_float("x", 2) == 2.0 and json_float("x", -0.5) == -0.5
    assert json_float("x", float("inf")) == float("inf")  # finiteness is the caller's to judge
