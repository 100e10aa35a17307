"""Tests for the benchmark itself: seeded inputs, output checks and trace reach.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import cmath
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run as bench
import spans
import verify
import workloads


@pytest.fixture(scope="module")
def program():
    return bench.load_program()


def _shape(item: workloads.Item) -> tuple:
    """Everything about an item that a seed must not change."""
    state, circuit = item.state or {}, item.circuit or {}
    return (
        item.key, item.shape, item.argv, item.reference, item.inverse, item.grid, item.headline,
        state.get("m"), len(state.get("amplitudes", ())),
        sorted({e["occ"].count("1") for e in state.get("amplitudes", ())}),
        circuit.get("m"), sorted(Counter(g["kind"] for g in circuit.get("gates", ())).items()),
        [k for k, g in enumerate(circuit.get("gates", ())) if g["kind"] == "PA"],
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_items(workload, 11) == workloads.make_items(workload, 11)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_inputs_of_the_same_shapes(workload):
    a, b = workloads.make_items(workload, 11), workloads.make_items(workload, 12)
    assert [_shape(i) for i in a] == [_shape(i) for i in b]
    seeded = [(x, y) for x, y in zip(a, b) if x.state is not None]
    assert seeded and all(x.state != y.state and x.circuit != y.circuit for x, y in seeded)


def _run_first(program, tmp_path, workload: str, key: str):
    item = next(i for i in workloads.make_items(workload, 3) if i.key == key)
    [prep], out = bench.prepare([item], tmp_path)
    code, _, text = bench.call_cli(program, prep.argv, out)
    assert code == 0
    return prep, text


def _rewrite_amplitude(text: str, change) -> str:
    header, first, *rest = text.splitlines()
    occ, re, im = first.split(",")
    amp = change(complex(float(re), float(im)))
    return "\n".join([header, f"{occ},{amp.real!r},{amp.imag!r}", *rest]) + "\n"


def test_run_check_rejects_a_scaled_amplitude(program, tmp_path):
    prep, text = _run_first(program, tmp_path, "run-fast", "fast-pa-0")
    checker = bench.Checker(program)
    assert checker.check(prep, 0, text).ok
    bad = _rewrite_amplitude(text, lambda a: 1.001 * a)
    verdict = bench.Checker(program).check(prep, 0, bad)
    assert not verdict.ok and "norm drift" in verdict.reason


def test_reference_check_rejects_a_rotated_amplitude(program, tmp_path):
    # a phase keeps the norm, so only the dense reference can catch it
    prep, text = _run_first(program, tmp_path, "run-fast", "fast-pa-0")
    bad = _rewrite_amplitude(text, lambda a: a * cmath.exp(0.01j))
    verdict = bench.Checker(program).check(prep, 0, bad)
    assert not verdict.ok and "reference deviation" in verdict.reason


def test_inverse_check_rejects_a_rotated_amplitude(program, tmp_path):
    prep, text = _run_first(program, tmp_path, "run-pairing", "pairing-00")
    assert prep.item.inverse and bench.Checker(program).check(prep, 0, text).ok
    bad = _rewrite_amplitude(text, lambda a: a * cmath.exp(0.01j))
    verdict = bench.Checker(program).check(prep, 0, bad)
    assert not verdict.ok and "inverse circuit" in verdict.reason


def test_scan_check_rejects_unequal_entropies_and_missing_rows(program, tmp_path):
    prep, text = _run_first(program, tmp_path, "entropy-scan", "scan-split-pair")
    assert verify.check_scan(text, prep.item.grid, prep.item.headline).ok
    header, *rows = text.splitlines()
    phi, theta, s_x, s_y, e_sp, rank = rows[5].split(",")
    rows_bad = rows[:5] + [",".join([phi, theta, repr(float(s_x) + 1e-6), s_y, e_sp, rank])] + rows[6:]
    verdict = verify.check_scan("\n".join([header, *rows_bad]), prep.item.grid, prep.item.headline)
    assert not verdict.ok and "S_x - S_y" in verdict.reason
    assert not verify.check_scan("\n".join([header, *rows[:-1]]), prep.item.grid, prep.item.headline).ok


def test_nonzero_exit_code_fails_the_item(program, tmp_path):
    prep, text = _run_first(program, tmp_path, "run-fast", "fast-pa-0")
    assert not bench.Checker(program).check(prep, 2, text).ok
    broken = bench.Prepared(prep.item, [a if not a.endswith(".state.json") else a + ".missing" for a in prep.argv],
                            prep.input_table)
    code, _, out_text = bench.call_cli(program, broken.argv, tmp_path / "out.csv")
    assert code == 2 and not bench.Checker(program).check(broken, code, out_text).ok


def test_self_time_subtracts_the_union_of_children():
    tid = 1
    recorded = [
        (0, "cli.main", 0.0, 10.0, None, tid, 0, None),
        (1, "optics.run_circuit", 1.0, 4.0, 0, tid, 0, None),
        (2, "optics.run_circuit", 3.0, 6.0, 0, tid + 1, 0, None),
    ]
    assert spans.self_times(recorded) == {0: 5.0, 1: 3.0, 2: 3.0}


#: items per workload that reach every name the reach table expects
REACH_ITEMS = {"run-dense": 1, "run-pairing": 1, "run-fast": 6, "entropy-scan": 2}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reaches_exactly_the_predicted_layers(program, tmp_path, workload):
    prepared, out = bench.prepare(workloads.make_items(workload, 5)[: REACH_ITEMS[workload]], tmp_path)
    originals = (program.cli.main, program.fastpath.np, program.entanglement.DensityMatrix.__post_init__)
    recorder = spans.Recorder()
    recorder.install()
    try:
        phase = bench.timed_phase(program, prepared, out, count=len(prepared), recorder=recorder)
    finally:
        recorder.remove()
    assert (program.cli.main, program.fastpath.np, program.entanglement.DensityMatrix.__post_init__) == originals
    assert recorder.missing == [] and recorder.attr_failures == 0
    assert bench.Checker(program).check_phase(phase) == []
    assert spans.reach_report(workload, spans.call_counts(recorder)) == {"ok": True, "missing": [], "unexpected": []}
    metrics = spans.layer_metrics(recorder, len(phase.records), phase.wall)
    assert set(metrics) | {"trace.overhead_s"} == set(spans.PER_LAYER_NAMES)
    assert metrics["trace.root_coverage"] >= 0.95


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{bench.HERE.name}/run.py", "--workload", "run-fast", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
