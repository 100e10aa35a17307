import json
import math
import signal
import warnings

import numpy as np
import pytest

import anyonsim.cli as cli_mod
import anyonsim.states as states_mod
from anyonsim.checks import check_exchange_relations
from anyonsim.cli import main
from anyonsim.entanglement import is_separable, particle_trace_rdm, von_neumann_entropy
from anyonsim.optics import Circuit, bs, circuit_to_json_dict, pa, ps, run_circuit
from anyonsim.presets import split_pair
from anyonsim.states import state_to_json_dict, wrap_phi


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_preset_with_quarter_beam_splitter(tmp_path, capsys):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, math.pi / 4),))))
    out = tmp_path / "amps.csv"
    code = main(["run", "--preset", "split-pair", "--circuit", circ, "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["occ", "re", "im"]
    table = {occ: complex(float(re), float(im)) for occ, re, im in rows}
    assert abs(table["1100"] - 1 / math.sqrt(2)) < 1e-10
    assert abs(table["1001"] - 0.5) < 1e-10
    assert abs(table["0101"] - 0.5j) < 1e-10


def test_run_empty_circuit_echoes_state(tmp_path):
    state = write_json(tmp_path / "s.json", state_to_json_dict(split_pair(0.7)))
    out = tmp_path / "echo.csv"
    assert main(["run", "--state", state, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    table = {occ: complex(float(re), float(im)) for occ, re, im in rows}
    assert set(table) == {"1100", "1001"}
    assert abs(table["1100"] - 1 / math.sqrt(2)) < 1e-12


def test_run_engine_both_reports_agreement(tmp_path, capsys):
    circ = write_json(
        tmp_path / "c.json",
        circuit_to_json_dict(Circuit(4, 1.1, (bs(1, 2, 0.4), pa(1, 2, 0.2)))),
    )
    out = tmp_path / "both.csv"
    code = main(["run", "--preset", "split-pair", "--phi", "1.1", "--circuit", circ, "--engine", "both", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "max |dense - fastpath|" in captured.err


def test_run_engine_both_downgrades_out_of_family(tmp_path, capsys):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 3, 0.4),))))
    out = tmp_path / "dg.csv"
    code = main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", "both", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "downgrading" in captured.err


def test_run_engine_fastpath_rejects_family(tmp_path, capsys):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 3, 0.4),))))
    code = main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", "fastpath"])
    assert code == 3


def test_run_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--state", str(bad)]) == 2


def test_run_missing_state_exits_2(capsys):
    assert main(["run"]) == 2


def test_determinism(tmp_path):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.3, (bs(1, 2, 0.9),))))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--preset", "split-pair", "--phi", "0.3", "--circuit", circ, "--out", str(a)])
    main(["run", "--preset", "split-pair", "--phi", "0.3", "--circuit", circ, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_entropy_scan_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("ANYONSIM_THREADS", "2")
    out = tmp_path / "scan.csv"
    code = main([
        "entropy-scan",
        "--preset", "split-pair",
        "--phi-grid", "0:6.283185307179586:5",
        "--theta-grid", "0:1.5707963267948966:5",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["phi", "theta", "S_x", "S_y", "E_SP", "slater_rank"]
    assert len(rows) == 25
    for phi, theta, s_x, s_y, e_sp, rank in rows:
        assert abs(float(s_x) - float(s_y)) < 1e-10
        assert float(e_sp) < 1e-9
        assert rank == "1"
        if float(phi) == 0.0:
            assert abs(float(s_x) - 1.0) < 1e-10
    drift = max(abs(float(r[2]) - 1.0) for r in rows)
    assert drift > 0.01


def test_schmidt_report(tmp_path):
    out = tmp_path / "schmidt.json"
    assert main(["schmidt", "--preset", "two-slater", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 2
    assert np.allclose(report["z"], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-10)
    assert len(report["modeBasis"]) == 4


def test_schmidt_trivial_pair(tmp_path):
    state = write_json(
        tmp_path / "s.json",
        {"m": 4, "phi": 0.0, "amplitudes": [{"occ": "1100", "re": 1.0, "im": 0.0}]},
    )
    out = tmp_path / "schmidt.json"
    assert main(["schmidt", "--state", state, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rank"] == 1
    assert np.allclose(report["z"], [1.0], atol=1e-12)


def test_schmidt_wrong_particle_number_exits_4(tmp_path, capsys):
    state = write_json(
        tmp_path / "s.json",
        {"m": 3, "phi": 0.0, "amplitudes": [{"occ": "111", "re": 1.0, "im": 0.0}]},
    )
    assert main(["schmidt", "--state", state]) == 4


def test_check_command_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] exchange-relations" in out
    assert "[FAIL]" not in out


def test_check_catches_reorder_sign_flip(monkeypatch):
    # flipping the audited sign must break the exchange-relation suite
    monkeypatch.setattr(states_mod, "_REORDER_SIGN", +1.0)
    result = check_exchange_relations(m_values=(2, 3), phi_values=(0.9, 2.2))
    assert not result.passed
    assert result.max_error > 1e-3


@pytest.mark.parametrize("engine", ["dense", "fastpath"])
def test_run_nan_angle_exits_4(tmp_path, capsys, engine):
    circ = write_json(
        tmp_path / "c.json",
        {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": float("nan")}]},
    )
    out = tmp_path / "amps.csv"
    code = main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", engine, "--out", str(out)])
    assert code == 4
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_run_infinite_amplitude_exits_4(tmp_path, capsys):
    state = write_json(
        tmp_path / "s.json",
        {"m": 2, "phi": 0.0, "amplitudes": [{"occ": "10", "re": float("inf"), "im": 0.0}]},
    )
    assert main(["run", "--state", state]) == 4
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_entropy_scan_binds_only_null_angles(tmp_path, monkeypatch):
    # the null-theta BS takes the sweep angle; the PS keeps its own
    circ = write_json(
        tmp_path / "c.json",
        {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": None}, {"kind": "PS", "i": 2, "theta": 0.5}]},
    )
    seen = []

    def spy(state, circuit):
        seen.append(circuit)
        return run_circuit(state, circuit)

    monkeypatch.setattr(cli_mod, "run_circuit", spy)
    out = tmp_path / "scan.csv"
    code = main([
        "entropy-scan",
        "--preset", "split-pair",
        "--circuit", circ,
        "--phi-grid", "0:6.283185307179586:3",
        "--theta-grid", "0:1.5:3",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    points = [(phi, theta) for phi in np.linspace(0.0, 2 * math.pi, 3) for theta in np.linspace(0.0, 1.5, 3)]
    assert len(rows) == len(seen) == len(points)
    fmt = "{:.12g}".format
    for row, circuit, (phi, theta) in zip(rows, seen, points):
        assert row[:2] == [fmt(phi), fmt(theta)]
        sector = wrap_phi(phi)
        assert circuit == Circuit(4, sector, (bs(1, 2, theta), ps(2, 0.5)))
        evolved = run_circuit(split_pair(sector), circuit)
        report = is_separable(evolved, tol=1e-8)
        expected = [
            fmt(von_neumann_entropy(particle_trace_rdm(evolved, keep="x"))),
            fmt(von_neumann_entropy(particle_trace_rdm(evolved, keep="y"))),
            fmt(report.e_sp),
            str(report.slater_rank),
        ]
        assert row[2:] == expected


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [["run", "--engine", "both"], ["entropy-scan", "--phi-grid", "0:1:2", "--theta-grid", "0:1:2"]])
def test_bad_tol_exits_4(tmp_path, capsys, command, tol):
    out = tmp_path / "out.csv"
    assert main([*command, "--preset", "split-pair", "--tol", tol, "--out", str(out)]) == 4
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_state_file_phi_is_wrapped_like_preset_phi(tmp_path):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, wrap_phi(7.0), (bs(1, 2, 0.9), pa(1, 2, 0.4)))))
    data = state_to_json_dict(split_pair(0.0))
    data["phi"] = 7.0
    state = write_json(tmp_path / "s.json", data)
    from_file, from_preset = tmp_path / "file.csv", tmp_path / "preset.csv"
    assert main(["run", "--state", state, "--circuit", circ, "--out", str(from_file)]) == 0
    assert main(["run", "--preset", "split-pair", "--phi", "7", "--circuit", circ, "--out", str(from_preset)]) == 0
    assert from_file.read_bytes() == from_preset.read_bytes()


@pytest.mark.parametrize("phi", [float("nan"), float("inf")])
def test_state_file_non_finite_phi_exits_4(tmp_path, capsys, phi):
    data = state_to_json_dict(split_pair(0.0))
    data["phi"] = phi
    state = write_json(tmp_path / "s.json", data)
    assert main(["run", "--state", state]) == 4


@pytest.mark.parametrize("phi", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("source", ["state", "preset", "preset-spaced"])
def test_a_non_finite_phi_is_refused_with_the_value_given(tmp_path, capsys, source, phi):
    if source == "state":
        data = state_to_json_dict(split_pair(0.0))
        data["phi"] = phi
        argv = ["run", "--state", write_json(tmp_path / "s.json", data)]
    elif source == "preset":
        argv = ["run", "--preset", "split-pair", f"--phi={phi}"]
    else:
        argv = ["run", "--preset", "split-pair", "--phi", str(phi)]
    assert main(argv) == 4
    assert f"statistical parameter must be finite, got {phi}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--phi", "-1e-3"),
        ("--phi", "-Infinity"),
        ("--phi", "-.5"),
        ("--phi-grid", "-1:1:3"),
        ("--theta-grid", "-1.5:1.5:3"),
        ("--tol", "-1e-3"),
        ("--tol", "-nan"),
    ],
)
def test_a_negative_value_after_a_space_reads_as_after_an_equals_sign(tmp_path, capsys, option, value):
    command = ["run", "--engine", "both"] if option == "--phi" else ["entropy-scan"]
    results = []
    for form in ([option, value], [f"{option}={value}"]):
        out = tmp_path / "out.csv"
        code = main([*command, "--preset", "split-pair", *form, "--out", str(out)])
        results.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] in (0, 4)


def test_an_option_after_a_numeric_option_is_not_its_value(tmp_path, capsys):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.4),))))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--preset", "split-pair", "--phi", "--circuit", circ])
    assert exit_info.value.code == 2
    assert "argument --phi: expected one argument" in capsys.readouterr().err


def exit_code(argv):
    """``main(argv)``, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "option, value, rest",
    [
        ("--out", "-x.csv", ["run", "--preset", "split-pair"]),
        ("--state", "-s.json", ["run", "--out=-x.csv"]),
        ("--circuit", "-c.json", ["run", "--preset", "split-pair", "--out=-x.csv"]),
    ],
)
def test_a_path_that_starts_with_a_dash_reads_the_same_after_a_space(tmp_path, monkeypatch, capsys, option, value, rest):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "-s.json", state_to_json_dict(split_pair(0.7)))
    write_json(tmp_path / "-c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.4), pa(2, 3, 0.3)))))
    results = []
    for form in ([option, value], [f"{option}={value}"]):
        code = exit_code([*rest, *form])
        out = tmp_path / "-x.csv"
        results.append((code, capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][2].startswith(b"occ,re,im\n")


def test_a_help_flag_or_a_value_after_a_flag_is_not_joined(capsys):
    assert exit_code(["run", "--preset", "-h"]) == 2
    assert "argument --preset: expected one argument" in capsys.readouterr().err
    assert exit_code(["check", "--full", "-x"]) == 2
    assert "argument --full: ignored explicit argument '-x'" in capsys.readouterr().err


def test_norm_drift_exits_5(tmp_path, capsys, monkeypatch):
    import anyonsim.optics as optics_mod

    real_expm = optics_mod.expm
    monkeypatch.setattr(optics_mod, "expm", lambda a: 1.01 * real_expm(a))
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.9),))))
    out = tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--out", str(out)]) == 5
    assert "norm" in capsys.readouterr().err
    assert not out.exists()


def test_fastpath_norm_drift_exits_5(tmp_path, capsys, monkeypatch):
    import anyonsim.fastpath as fastpath_mod

    real_block = fastpath_mod._evolve_nc_block
    monkeypatch.setattr(
        fastpath_mod, "_evolve_nc_block", lambda table, u: {k: 1.01 * v for k, v in real_block(table, u).items()}
    )
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.9),))))
    out = tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", "fastpath", "--out", str(out)]) == 5
    assert "norm" in capsys.readouterr().err
    assert not out.exists()


def test_fastpath_over_the_minor_budget_exits_4(tmp_path, capsys):
    # an alternating (30, 15) input through one brickwork layer: every
    # input column reaches both modes of its pair, so the cone is all 30
    # rows and the estimate is C(30, 15) minors
    m = 30
    state = write_json(
        tmp_path / "s.json",
        {"m": m, "phi": 0.0, "amplitudes": [{"occ": "10" * (m // 2), "re": 1.0, "im": 0.0}]},
    )
    circ = write_json(
        tmp_path / "c.json", circuit_to_json_dict(Circuit(m, 0.0, tuple(bs(a, a + 1, 0.7) for a in range(1, m, 2))))
    )
    out = tmp_path / "amps.csv"
    assert main(["run", "--state", state, "--circuit", circ, "--engine", "fastpath", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{math.comb(m, m // 2)} minors" in err and "budget" in err
    assert not out.exists()


def circuit_with(field, value):
    """A BS(1, 2) circuit over 4 modes with one field replaced; setting ``j`` moves ``i`` to 2, so j = 1 is a valid gate."""
    data = {"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": 0.4}]}
    if field == "m":
        data["m"] = value
    else:
        data["gates"][0][field] = value
        if field == "j":
            data["gates"][0]["i"] = 2
    return data


@pytest.mark.parametrize("field, value", [("m", 4.7), ("i", 1.9), ("j", 1.5), ("i", True), ("j", True)])
def test_circuit_index_that_is_not_an_integer_exits_2(tmp_path, capsys, field, value):
    circ = write_json(tmp_path / "c.json", circuit_with(field, value))
    out = tmp_path / "amps.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--out", str(out)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m, occ", [(4.7, "1100"), (True, "1")])
def test_state_mode_count_that_is_not_an_integer_exits_2(tmp_path, capsys, m, occ):
    state = write_json(tmp_path / "s.json", {"m": m, "phi": 0.0, "amplitudes": [{"occ": occ, "re": 1.0, "im": 0.0}]})
    assert main(["run", "--state", state]) == 2
    assert "m must be an integer" in capsys.readouterr().err


def test_circuit_with_a_bool_mode_count_exits_2(tmp_path, capsys):
    state = write_json(tmp_path / "s.json", {"m": 1, "phi": 0.0, "amplitudes": [{"occ": "1", "re": 1.0, "im": 0.0}]})
    circ = write_json(tmp_path / "c.json", {"m": True, "phi": 0.0, "gates": []})
    assert main(["run", "--state", state, "--circuit", circ]) == 2
    assert "m must be an integer" in capsys.readouterr().err


def test_integral_floats_read_as_integers(tmp_path):
    state = state_to_json_dict(split_pair(0.0))
    as_ints, as_floats = tmp_path / "ints.csv", tmp_path / "floats.csv"
    circ = write_json(tmp_path / "c.json", circuit_with("m", 4))
    assert main(["run", "--state", write_json(tmp_path / "s.json", state), "--circuit", circ, "--out", str(as_ints)]) == 0
    state["m"] = 4.0
    circuit = {"m": 4.0, "phi": 0.0, "gates": [{"kind": "BS", "i": 1.0, "j": 2.0, "theta": 0.4}]}
    circ = write_json(tmp_path / "c.json", circuit)
    assert main(["run", "--state", write_json(tmp_path / "s.json", state), "--circuit", circ, "--out", str(as_floats)]) == 0
    assert as_floats.read_bytes() == as_ints.read_bytes()


class StillScanning(Exception):
    """Raised by the alarm below; ``main`` maps no such exception to an exit code."""


def test_entropy_scan_over_the_grid_budget_exits_4_before_building_the_grid(tmp_path, capsys):
    out = tmp_path / "scan.csv"

    def scanning(signum, frame):
        raise StillScanning("still running after 1 s: the grid is being swept")

    # the alarm also stops an unbounded sweep before it takes the host's memory
    previous = signal.signal(signal.SIGALRM, scanning)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:1000000", "--theta-grid", "0:1:1000", "--out", str(out)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    assert "error: the scan grid has 1000000000 points" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_scan_runs_at_the_grid_budget_and_refuses_one_point_over(monkeypatch, tmp_path):
    monkeypatch.setattr(cli_mod, "_GRID_BUDGET", 6)
    args = ["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:2", "--theta-grid", "0:1:3"]
    assert main([*args, "--out", str(tmp_path / "scan.csv")]) == 0
    assert main(["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:7", "--theta-grid", "0:1:1"]) == 4


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ([("1100", 3.0)], "error: the state is not normalized, |psi|^2 = 9\n"),
        ([("1100", 0.5), ("1001", 0.5)], "the state is not normalized, |psi|^2 = 0.5\n"),
    ],
)
def test_unnormalized_state_scan_exits_4(tmp_path, capsys, amplitudes, message):
    table = [{"occ": occ, "re": re, "im": 0.0} for occ, re in amplitudes]
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": table})
    out = tmp_path / "scan.csv"
    assert main(["entropy-scan", "--state", state, "--out", str(out)]) == 4
    assert capsys.readouterr().err.endswith(message)
    assert not out.exists()


def test_unnormalized_state_that_breaks_no_invariant_is_refused_before_the_scan(tmp_path, capsys):
    # two-slater at |psi|^2 = 0.5: occupations 1/4 stay inside [0, 1] and the pair form agrees on rank 2
    table = [{"occ": occ, "re": 0.5, "im": 0.0} for occ in ("1100", "0011")]
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": table})
    out = tmp_path / "scan.csv"
    assert main(["entropy-scan", "--state", state, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: the state is not normalized, |psi|^2 = 0.5\n"
    assert not out.exists()


def test_unnormalized_state_schmidt_exits_4_and_writes_nothing(tmp_path, capsys):
    table = [{"occ": occ, "re": 0.5, "im": 0.0} for occ in ("1100", "0011")]
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": table})
    out = tmp_path / "schmidt.json"
    assert main(["schmidt", "--state", state, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: the state is not normalized, |psi|^2 = 0.5\n"
    assert not out.exists()


@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("command", ["run", "entropy-scan", "schmidt"])
def test_state_and_preset_together_or_neither_exit_2(tmp_path, capsys, command, both):
    state = write_json(tmp_path / "s.json", state_to_json_dict(split_pair()))
    inputs = ["--state", state, "--preset", "split-pair"] if both else []
    out = tmp_path / "out.txt"
    assert main([command, *inputs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: exactly one of --state and --preset is required\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run"])
def test_phi_with_a_state_file_exits_2(tmp_path, capsys, command):
    state = write_json(tmp_path / "s.json", state_to_json_dict(split_pair()))
    out = tmp_path / "out.txt"
    assert main([command, "--state", state, "--phi", "0.3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: --phi retags a preset; a --state file carries its own phi\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "entropy-scan", "schmidt"])
def test_an_occupation_listed_twice_exits_2(tmp_path, capsys, command):
    table = [{"occ": "1100", "re": 1.0, "im": 0.0}, {"occ": "1100", "re": 1.0, "im": 0.0}]
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": table})
    out = tmp_path / "out.txt"
    assert main([command, "--state", state, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: occupation '1100' appears twice\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "entropy-scan", "schmidt"])
@pytest.mark.parametrize("amplitudes", [[], [{"occ": "1100", "re": 0.0, "im": 0.0}, {"occ": "1001", "re": 1e-15, "im": 0.0}]])
def test_zero_norm_state_exits_4(tmp_path, capsys, command, amplitudes):
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": amplitudes})
    out = tmp_path / "out.txt"
    assert main([command, "--state", state, "--out", str(out)]) == 4
    assert "error: state has no amplitude above 1e-14" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["--phi-grid", "--theta-grid"])
@pytest.mark.parametrize("spec", ["0:inf:2", "-inf:1:2", "nan:1:2", "0:nan:1"])
def test_non_finite_grid_bound_exits_2_without_a_warning(capsys, axis, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["entropy-scan", "--preset", "split-pair", f"{axis}={spec}"]) == 2
    assert capsys.readouterr().err == f"input error: grid bounds must be finite, got {spec!r}\n"


@pytest.mark.parametrize("spec, message", [("0:1", "grid must be 'start:stop:count'"), ("0:1:0", "grid count must be >= 1")])
def test_malformed_grid_exits_2(capsys, spec, message):
    assert main(["entropy-scan", "--preset", "split-pair", "--phi-grid", spec]) == 2
    assert message in capsys.readouterr().err


def test_unknown_preset_exits_2(capsys):
    assert main(["run", "--preset", "no-such-preset"]) == 2
    assert "input error: unknown preset 'no-such-preset'" in capsys.readouterr().err


def test_occupation_of_the_wrong_width_exits_4(tmp_path, capsys):
    state = write_json(tmp_path / "s.json", {"m": 4, "phi": 0.0, "amplitudes": [{"occ": "110", "re": 1.0, "im": 0.0}]})
    assert main(["run", "--state", state]) == 4
    assert "error: occupation '110' does not have 4 modes" in capsys.readouterr().err


def test_engine_both_refuses_amplitudes_that_disagree(tmp_path, capsys, monkeypatch):
    def off_by_a_micro(state, circuit):
        out = cli_mod.run_circuit(state, circuit)
        return states_mod.AnyonState(out.m, out.phi, {occ: amp + 1e-6 for occ, amp in out.amplitudes.items()})

    monkeypatch.setattr(cli_mod, "run_circuit_fastpath", off_by_a_micro)
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(4, 0.0, (bs(1, 2, 0.4), ps(2, 0.9)))))
    out = tmp_path / "both.csv"
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", "both", "--out", str(out)]) == 5
    assert "internal error: dense and fast-path amplitudes differ by 1.000e-06 > tol 1e-10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("engine", ["dense", "fastpath", "both"])
def test_run_refuses_a_circuit_over_other_modes_before_the_family_check(tmp_path, capsys, engine):
    circ = write_json(tmp_path / "c.json", circuit_to_json_dict(Circuit(5, 0.0, (bs(1, 4, 0.4),))))
    assert main(["run", "--preset", "split-pair", "--circuit", circ, "--engine", engine]) == 4
    assert capsys.readouterr().err == "error: circuit is over 5 modes, state over 4\n"
