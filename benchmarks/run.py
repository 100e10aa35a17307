#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ``anyonsim`` command line.

    python3 benchmarks/run.py --workload run-dense --seed 1 --seconds 10 --trace 0

Run from the repository root (any checkout: nothing is installed, the
program is imported from ``src/``). One process runs one workload:

1. ``setup_s``: the median over several child processes of the time from
   spawning the child to its first timed item, which covers importing
   ``anyonsim`` (numpy and scipy with it), generating the seeded inputs and
   their JSON files, and one untimed warm-up item per item shape.
2. The same set-up in this process, then the timed phase: the workload's
   items, one after another, each one ``anyonsim.cli.main(argv)`` call,
   until ``--seconds`` have passed.
3. Every output is checked (outside the item timer); a nonzero exit code or
   a failed check fails the item.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones: ``items_per_s`` and ``item_p50_ms``,
both taken from each item's fastest repeat in the timed phase (see
:func:`best_latencies`), ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` the timed phase runs
for half of ``--seconds`` untraced, then the same items again with span
wrappers installed (see ``spans.py``), and the metrics are the per-layer
numbers of that traced half, per item. The line before it, starting with
``diagnostics``, holds figures that are recorded but never gated: the error
rate, reference deviations, norm drift, pruned mass, the latency tail,
library versions and thread settings. Generated files go to ``.bench_work/``
and are removed; traced runs leave their spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import verify
from workloads import WORKLOADS, Item, make_items

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: child processes whose set-up time is measured per run; setup_s is their median
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
#: set for every run: with the entropy-scan pool at its default two workers,
#: that workload's run-to-run spread was 0.23 on a 2-core host, as the
#: GIL-bound workers contend for the second core
PINNED_ENV = {"ANYONSIM_THREADS": "1"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "ANYONSIM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/anyonsim`` to benchmark."""


def load_program():
    """Import ``anyonsim`` from this checkout's ``src/``, never from an installed copy."""
    init = SRC / "anyonsim" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import anyonsim
    import anyonsim.cli

    if Path(anyonsim.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported anyonsim from {anyonsim.__file__}, not from {SRC}")
    return anyonsim


@dataclass
class Prepared:
    """An item with its JSON inputs written and its argv bound to real paths."""

    item: Item
    argv: list[str]
    input_table: dict[str, complex] | None


def prepare(items: list[Item], workdir: Path) -> tuple[list[Prepared], Path]:
    out = workdir / "out.csv"
    prepared = []
    for item in items:
        paths = {"@out": str(out)}
        for kind, payload in (("state", item.state), ("circuit", item.circuit)):
            if payload is not None:
                path = workdir / f"{item.key}.{kind}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                paths[f"@{kind}"] = str(path)
        table = None
        if item.state is not None:
            table = {e["occ"]: complex(e["re"], e["im"]) for e in item.state["amplitudes"]}
        prepared.append(Prepared(item, [paths.get(a, a) for a in item.argv], table))
    return prepared, out


def call_cli(program, argv: list[str], out: Path) -> tuple[int | None, float, str | None]:
    """One item: exit code (None if it raised), wall seconds, output text (None if absent)."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        # looked up on the module at each call, so the traced run reaches the wrapper
        code = program.cli.main(argv)
    except Exception:  # a crash fails the item; the run goes on
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - t0
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, seconds, text


def warm_up(program, prepared: list[Prepared], out: Path) -> None:
    seen = set()
    for prep in prepared:
        if prep.item.shape not in seen:
            seen.add(prep.item.shape)
            call_cli(program, prep.argv, out)


@dataclass
class Record:
    index: int
    prep: Prepared
    code: int | None
    seconds: float
    #: output text when it differs from the first output of the same item, else None
    text: str | None = None
    same_as_first: bool = True


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)
    first_text: dict[str, str | None] = field(default_factory=dict)
    wall: float = 0.0


def timed_phase(program, prepared: list[Prepared], out: Path, seconds: float | None = None,
                count: int | None = None, recorder: spans.Recorder | None = None) -> Phase:
    """Run items in order, cycling, for ``seconds`` or for exactly ``count`` items."""
    phase = Phase()
    start = time.perf_counter()
    k = 0
    while (count is None and time.perf_counter() - start < seconds) or (count is not None and k < count):
        prep = prepared[k % len(prepared)]
        if recorder is not None:
            recorder.item = k
        code, took, text = call_cli(program, prep.argv, out)
        rec = Record(k, prep, code, took)
        key = prep.item.key
        if key not in phase.first_text:
            phase.first_text[key] = text
        elif text != phase.first_text[key]:
            rec.text, rec.same_as_first = text, False
        phase.records.append(rec)
        k += 1
    phase.wall = time.perf_counter() - start
    return phase


# -- checks ----------------------------------------------------------------


class Checker:
    """Checks outputs against the program's public API, run outside any timer."""

    def __init__(self, program) -> None:
        self.program = program
        self._cache: dict[tuple, verify.Verdict] = {}
        self.max_deviation = 0.0
        self.max_inverse_deviation = 0.0
        self.max_norm_drift = 0.0
        self.deviation_checks = 0

    def _table(self, state) -> dict[str, complex]:
        return {self.program.occ_to_string(occ, state.m): complex(a) for occ, a in state.amplitudes.items()}

    def _inputs(self, item: Item):
        api = self.program
        state = api.state_from_json_dict(item.state)
        circ = api.circuit_from_json_dict(item.circuit)
        return state, api.Circuit(circ.m, state.phi, circ.gates)

    def _check_run(self, prep: Prepared, text: str) -> verify.Verdict:
        item, api = prep.item, self.program
        reference = None
        if item.reference is not None:
            state, circuit = self._inputs(item)
            engine = api.run_circuit_fastpath if item.reference == "fastpath" else api.run_circuit
            reference = self._table(engine(state, circuit))
        verdict = verify.check_run(text, prep.input_table, reference)
        if verdict.norm_drift is not None:
            self.max_norm_drift = max(self.max_norm_drift, verdict.norm_drift)
        if verdict.deviation is not None:
            self.max_deviation = max(self.max_deviation, verdict.deviation)
            self.deviation_checks += 1
        if not verdict.ok or not item.inverse:
            return verdict
        state, circuit = self._inputs(item)
        out = verify.amplitudes_from_csv(text)
        evolved = api.state_from_json_dict({
            "m": state.m,
            "phi": state.phi,
            "amplitudes": [{"occ": occ, "re": a.real, "im": a.imag} for occ, a in out.items()],
        })
        back = verify.check_inverse(self._table(api.run_circuit(evolved, circuit.reversed_dagger())), prep.input_table)
        self.max_inverse_deviation = max(self.max_inverse_deviation, back.deviation)
        return back if not back.ok else verdict

    def check(self, prep: Prepared, code: int | None, text: str | None) -> verify.Verdict:
        if code != 0:
            return verify.Verdict(False, f"exit code {code}")
        if text is None:
            return verify.Verdict(False, "no output file")
        key = (prep.item.key, text)
        if key not in self._cache:
            if prep.item.grid is not None:
                self._cache[key] = verify.check_scan(text, prep.item.grid, prep.item.headline)
            else:
                self._cache[key] = self._check_run(prep, text)
        return self._cache[key]

    def check_phase(self, phase: Phase) -> list[str]:
        """Failure reasons, one per failed item."""
        failures = []
        for rec in phase.records:
            text = phase.first_text[rec.prep.item.key] if rec.same_as_first else rec.text
            verdict = self.check(rec.prep, rec.code, text)
            if verdict.ok and not rec.same_as_first and rec.prep.item.grid is not None:
                verdict = verify.Verdict(False, "repeat of a scan item is not byte-identical")
            if not verdict.ok:
                failures.append(f"{rec.prep.item.key}#{rec.index}: {verdict.reason}")
        return failures


# -- set-up time -------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: set up, then report the monotonic clock."""
    _, _, workdir = setup(load_program(), workload, seed)
    try:
        print(json.dumps({"ready": time.monotonic()}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready seconds of :data:`SETUP_PROBES` children, run one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start)
    return samples


def setup(program, workload: str, seed: int) -> tuple[list[Prepared], Path, Path]:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    prepared, out = prepare(make_items(workload, seed), workdir)
    warm_up(program, prepared, out)
    return prepared, out, workdir


# -- reporting ---------------------------------------------------------------


def latency_tail(latencies: list[float]) -> dict:
    """The highest of a few percentiles with at least ten items beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        beyond = n - max(1, -(-int(p * n) // 100))
        if beyond >= 10:
            best = {"percentile": p, "ms": ordered[n - beyond - 1] * 1e3, "items_beyond": beyond}
    return {"items": n, "tail": best}


def best_latencies(records: list[Record]) -> dict[str, float]:
    """Each item's fastest repeat, in seconds.

    The host's speed drifts in bursts that only ever add time, so an
    item's fastest repeat is much steadier from run to run than the
    phase's wall time or the median of all latencies (both are kept as
    diagnostics).
    """
    best: dict[str, float] = {}
    for rec in records:
        key = rec.prep.item.key
        best[key] = min(best.get(key, rec.seconds), rec.seconds)
    return best


def environment(program) -> dict:
    import numpy
    import scipy

    workers = getattr(program.cli, "_max_workers", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "entropy_scan_workers": workers() if callable(workers) else None,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    try:
        program = load_program()
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    prepared, out, workdir = setup(program, args.workload, args.seed)
    checker = Checker(program)
    diagnostics: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if not args.trace:
            phase = timed_phase(program, prepared, out, seconds=args.seconds)
            phases = [phase]
        else:
            plain = timed_phase(program, prepared, out, seconds=args.seconds / 2)
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = timed_phase(program, prepared, out, count=len(plain.records), recorder=recorder)
            finally:
                recorder.remove()
            phases = [plain, traced]
        failures = [f for ph in phases for f in checker.check_phase(ph)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(ph.records) for ph in phases)
    latencies = [r.seconds for r in phases[0].records]
    diagnostics.update({
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "items_by_shape": {s: sum(r.prep.item.shape == s for r in phases[0].records)
                           for s in sorted({p.item.shape for p in prepared})},
        "max_reference_deviation": checker.max_deviation if checker.deviation_checks else None,
        "max_inverse_deviation": checker.max_inverse_deviation,
        "max_norm_drift": checker.max_norm_drift,
        "latency": latency_tail(latencies),
        **environment(program),
    })
    if not args.trace:
        passed = len(phase.records) - len(failures)
        best = best_latencies(phase.records)
        diagnostics["wall_items_per_s"] = passed / phase.wall
        diagnostics["wall_item_p50_ms"] = statistics.median(latencies) * 1e3
        diagnostics["fewest_repeats"] = min(Counter(r.prep.item.key for r in phase.records).values())
        metrics = {
            "items_per_s": metric(passed / len(phase.records) * len(best) / sum(best.values()), "1/s"),
            "item_p50_ms": metric(statistics.median(best.values()) * 1e3, "ms"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        diagnostics["setup_samples_s"] = setup_samples
    else:
        items = len(traced.records)
        layer = spans.layer_metrics(recorder, items, traced.wall)
        layer["trace.overhead_s"] = (traced.wall - plain.wall) / items
        metrics = {name: metric(value, PER_LAYER_UNITS[name]) for name, value in layer.items()}
        pool_threads: dict[int, set[int]] = {}
        for s in recorder.spans:
            if s[5] != threading.get_ident():
                pool_threads.setdefault(s[6], set()).add(s[5])
        diagnostics.update({
            "reach": spans.reach_report(args.workload, spans.call_counts(recorder)),
            "self_time_shares": spans.self_time_shares(recorder),
            "pruned_mass": spans.pruned_mass(recorder),
            "pool_threads_per_item": max(map(len, pool_threads.values()), default=0),
            "unwrapped": recorder.missing,
            "attribute_failures": recorder.attr_failures,
        })
    OUT.mkdir(exist_ok=True)
    if args.trace:
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    (OUT / f"diagnostics-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(diagnostics, indent=1), encoding="utf-8"
    )
    print("diagnostics " + json.dumps(diagnostics))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name in ("optics.occupancy", "fastpath.useful", "trace.root_coverage"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/item"
    return "count/item"


PER_LAYER_UNITS = {name: _unit(name) for name in spans.PER_LAYER_NAMES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
