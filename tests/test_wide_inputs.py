"""Finite inputs of any size either run or are refused with their exit code.

Every gate generator has eigenvalues in {-1, 0, 1} on its orbits, so the
dense engine folds an angle with ``|theta| > pi`` into (-pi, pi] and agrees
with the fast path to rounding at any finite angle.  A state file whose
``|psi|^2`` overflows is refused with exit 4, and ``run --engine both``
compares the engines relative to the norm above norm 1.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim.cli import main

PHI = 1.1
#: a state at PHI that every gate below moves: PA(1, 2) pairs 0011 with 1111 and 1100 with 0000
STATE = {
    "m": 4,
    "phi": PHI,
    "amplitudes": [
        {"occ": "1100", "re": 0.6, "im": 0.0},
        {"occ": "0011", "re": 0.0, "im": 0.48},
        {"occ": "1010", "re": 0.64, "im": 0.0},
    ],
}
ANGLES = [1e4, 1e7, 1e15, 1e300, -1e300]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, capsys, state, gates, engine, m=4):
    out = tmp_path / "out.csv"
    argv = ["run", "--state", write(tmp_path, "state.json", state), "--engine", engine, "--out", str(out)]
    argv += ["--circuit", write(tmp_path, "circuit.json", {"m": m, "phi": 0.0, "gates": gates})]
    code = main(argv)
    return code, capsys.readouterr().err, out.read_text() if out.exists() else None


@pytest.mark.parametrize("theta", ANGLES, ids=repr)
def test_in_family_gates_agree_across_engines_at_any_angle(tmp_path, capsys, theta):
    gates = [{"kind": "BS", "i": 3, "j": 4, "theta": theta}, {"kind": "PA", "i": 1, "j": 2, "theta": theta}]
    code, err, _ = run(tmp_path, capsys, STATE, gates, "both")
    assert code == 0, err
    assert "warning:" not in err
    deviation = float(err.split("max |dense - fastpath| = ")[1].split()[0])
    assert deviation <= 1e-14


# 3e7, not 1e7: PS(4) at 1e7 unfolded happens to give the folded angle's bits
@pytest.mark.parametrize("theta", [1e4, 3e7, 1e15, 1e300, -1e300], ids=repr)
@pytest.mark.parametrize("gate", [("BS", 2, 5), ("PA", 5, 3), ("PS", 4, None)], ids=str)
def test_a_dense_gate_at_a_large_angle_is_the_gate_at_the_folded_angle(tmp_path, capsys, gate, theta):
    kind, i, j = gate
    state = {**STATE, "m": 6, "amplitudes": [{**a, "occ": a["occ"] + "01"} for a in STATE["amplitudes"]]}

    def entry(angle):
        return {"kind": kind, "i": i, "theta": angle} | ({} if j is None else {"j": j})

    code, err, body = run(tmp_path, capsys, state, [entry(theta)], "dense", m=6)
    assert code == 0, err
    folded = math.atan2(math.sin(theta), math.cos(theta))
    assert run(tmp_path, capsys, state, [entry(folded)], "dense", m=6) == (0, "", body)


def amplitude_file(tmp_path, *amplitudes):
    entries = [{"occ": occ, "re": re, "im": 0.0} for occ, re in zip(("1100", "0011"), amplitudes)]
    return write(tmp_path, "state.json", {"m": 4, "phi": 0.0, "amplitudes": entries})


@pytest.mark.parametrize("amplitudes", [(1e200,), (1e154, 1e154)], ids=str)
@pytest.mark.parametrize(
    "command", [["run"], ["run", "--engine", "fastpath"], ["run", "--engine", "both"], ["entropy-scan"], ["schmidt"]], ids=" ".join
)
def test_a_state_whose_squared_norm_overflows_exits_4(tmp_path, capsys, command, amplitudes):
    out = tmp_path / "out.txt"
    assert main(command + ["--state", amplitude_file(tmp_path, *amplitudes), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: state has |psi|^2 = inf: its squared norm is over the float range\n"
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e6, 1e100])
def test_both_engines_compare_relative_to_the_norm_above_norm_1(tmp_path, capsys, scale):
    state = {**STATE, "amplitudes": [{**a, "re": a["re"] * scale, "im": a["im"] * scale} for a in STATE["amplitudes"]]}
    gates = [{"kind": "BS", "i": 1, "j": 2, "theta": 0.7}, {"kind": "PS", "i": 2, "theta": 0.3}]
    gates += [{"kind": "BS", "i": 2, "j": 3, "theta": 1.3}, {"kind": "BS", "i": 3, "j": 4, "theta": 0.4}]
    code, err, body = run(tmp_path, capsys, state, gates, "both")
    assert code == 0, err
    assert body.count("\n") > 1


magnitudes = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def wire_cases(draw):
    """State and circuit JSON at m <= 6: amplitudes and angles up to 1e300 in magnitude, every gate kind on in-range modes."""
    m = draw(st.integers(1, 6))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6, unique=True))
    amplitudes = [{"occ": format(occ, f"0{m}b")[::-1], "re": draw(magnitudes), "im": draw(magnitudes)} for occ in occs]
    state = {"m": m, "phi": draw(st.floats(0.0, 2 * math.pi, exclude_max=True)), "amplitudes": amplitudes}
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("PS", "BS", "PA", "FSWAP") if m > 1 else ("PS",)))
        if kind == "PS":
            gates.append({"kind": kind, "i": draw(st.integers(1, m)), "theta": draw(magnitudes)})
            continue
        i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
        gates.append({"kind": kind, "i": i, "j": j} | ({} if kind == "FSWAP" else {"theta": draw(magnitudes)}))
    return state, {"m": m, "phi": 0.0, "gates": gates}


def finite_output(command: str, text: str) -> bool:
    if command == "schmidt":
        report = json.loads(text)
        return all(math.isfinite(x) for x in report["z"] + [v[k] for row in report["modeBasis"] for v in row for k in ("re", "im")])
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return all(math.isfinite(float(x)) for row in rows for x in (row[1:] if command == "run" else row))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wire_cases())
def test_every_command_exits_0_with_finite_output_or_refuses_with_one_line(case):
    state, circuit = case
    with tempfile.TemporaryDirectory() as tmp:
        state_path, circuit_path, out = f"{tmp}/state.json", f"{tmp}/circuit.json", f"{tmp}/out"
        with open(state_path, "w") as fh:
            json.dump(state, fh)
        with open(circuit_path, "w") as fh:
            json.dump(circuit, fh)
        grid = ["--phi-grid", "0:6.283185307179586:2", "--theta-grid", "0:3.141592653589793:2"]
        calls = [["run", "--circuit", circuit_path, "--engine", engine] for engine in ("dense", "fastpath", "both")]
        calls += [["entropy-scan", "--circuit", circuit_path, *grid], ["schmidt"]]
        for argv in calls:
            if os.path.exists(out):
                os.remove(out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--state", state_path, "--out", out])
            err = err.getvalue()
            assert "Traceback" not in err
            if code == 0:
                with open(out) as fh:
                    assert finite_output(argv[0], fh.read()), argv
            else:
                assert code in (2, 3, 4), (argv, code, err)
                assert err.count("\n") == 1 and err.startswith(("error: ", "input error: ")), (argv, err)
