"""Span tracing for the benchmark's traced run.

The program is not changed: :meth:`Recorder.install` replaces the public
functions of ``cli``, ``optics``, ``operators``, ``fastpath``,
``entanglement``, ``transmute`` and ``states`` with timing wrappers at every
``anyonsim`` module attribute that holds them, so a caller that did
``from .x import f`` reaches the wrapper too. Two library calls are wrapped
as their callers look them up: ``scipy.linalg.expm`` as ``optics.expm`` and
``numpy.linalg.det`` as ``fastpath`` calls it (through its ``np`` name).
:meth:`Recorder.remove` puts every original back.

A span is (id, name, start, end, parent id, thread id, item id, attributes).
Spans are kept in memory; :func:`layer_metrics` turns them into per-layer
numbers and :meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = ("cli", "optics", "operators", "fastpath", "entanglement", "transmute", "states")
APPLY_GATE_KINDS = ("PS", "BS", "PA", "FSWAP")
ENTANGLEMENT_FUNCS = (
    "particle_trace_rdm",
    "is_separable",
    "minimal_entropy_modes",
    "slater_decompose",
    "one_body_matrix",
    "von_neumann_entropy",
)
#: library calls timed where the program calls them; their time is not the layer's own
EXTERNAL = ("optics.expm", "fastpath.det")
#: time spent computing span attributes, excluded from every layer
BOOKKEEPING = "trace.bookkeeping"


def _apply_gate_name(args, kwargs) -> str:
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    return f"optics.apply_gate.{gate.kind}"


def _nnz_attrs(args, kwargs, result) -> dict:
    state = args[0] if args else kwargs["state"]
    return {"nnz_in": len(state.amplitudes), "nnz_out": len(result.amplitudes)}


def _expm_attrs(args, kwargs, result) -> dict:
    return {"dim": int(result.shape[0])}


def _block_attrs(args, kwargs, result) -> dict:
    table, u = args[0], args[1]
    counts = {occ.bit_count() for occ in table}
    return {
        "nnz_in": len(table),
        "nnz_out": len(result),
        "targets": sum(math.comb(u.m, n) for n in counts if n > 0),
    }


def _prune_attrs(args, kwargs, result) -> dict:
    table = args[0] if args else kwargs["table"]
    return {"dropped": sum(abs(a) ** 2 for occ, a in table.items() if occ not in result)}


@dataclass(frozen=True)
class Target:
    """A function to wrap: where it is defined, its span name and what to record about a call."""

    module: str
    attr: str
    name: str | Callable
    layer: str
    attrs: Callable | None = None
    root: bool = False


TARGETS = (
    Target("anyonsim.cli", "main", "cli.main", "cli", root=True),
    Target("anyonsim.optics", "run_circuit", "optics.run_circuit", "optics"),
    Target("anyonsim.optics", "apply_gate", _apply_gate_name, "optics", _nnz_attrs),
    Target("anyonsim.optics", "expm", "optics.expm", "optics", _expm_attrs),
    Target("anyonsim.operators", "operator_matrix", "operators.operator_matrix", "operators"),
    Target("anyonsim.fastpath", "run_circuit_fastpath", "fastpath.run_circuit_fastpath", "fastpath"),
    Target("anyonsim.fastpath", "compile_single_particle", "fastpath.compile_single_particle", "fastpath"),
    Target("anyonsim.fastpath", "_evolve_nc_block", "fastpath.block", "fastpath", _block_attrs),
    *(Target("anyonsim.entanglement", f, f"entanglement.{f}", "entanglement") for f in ENTANGLEMENT_FUNCS),
    Target("anyonsim.transmute", "transmute_state", "transmute.transmute_state", "transmute"),
    Target("anyonsim.transmute", "fermionize", "transmute.fermionize", "transmute"),
    Target("anyonsim.states", "apply_annihilate", "states.apply_annihilate", "states"),
    Target("anyonsim.states", "prune", "states.prune", "states", _prune_attrs),
)

#: every span name the traced run can produce, with its layer
SPAN_LAYER = {
    "cli.main": "cli",
    "optics.run_circuit": "optics",
    **{f"optics.apply_gate.{k}": "optics" for k in APPLY_GATE_KINDS},
    "optics.expm": "optics",
    "operators.operator_matrix": "operators",
    "fastpath.run_circuit_fastpath": "fastpath",
    "fastpath.compile_single_particle": "fastpath",
    "fastpath.block": "fastpath",
    "fastpath.det": "fastpath",
    **{f"entanglement.{f}": "entanglement" for f in ENTANGLEMENT_FUNCS},
    "entanglement.DensityMatrix": "entanglement",
    "transmute.transmute_state": "transmute",
    "transmute.fermionize": "transmute",
    "states.apply_annihilate": "states",
    "states.prune": "states",
}

#: span names each workload must reach; every other name in SPAN_LAYER must stay at zero calls
EXPECTED_REACH = {
    "run-dense": {
        "cli.main", "optics.run_circuit", "optics.apply_gate.PS", "optics.apply_gate.BS",
        "optics.apply_gate.FSWAP", "optics.expm", "operators.operator_matrix", "states.prune",
    },
    "run-pairing": {
        "cli.main", "optics.run_circuit", "optics.apply_gate.PS", "optics.apply_gate.BS",
        "optics.apply_gate.PA", "optics.apply_gate.FSWAP", "optics.expm", "operators.operator_matrix",
        "states.prune",
    },
    "run-fast": {
        "cli.main", "fastpath.run_circuit_fastpath", "fastpath.compile_single_particle",
        "fastpath.block", "fastpath.det", "states.prune",
    },
    "entropy-scan": {
        "cli.main", "optics.run_circuit", "optics.apply_gate.PS", "optics.apply_gate.BS",
        "optics.expm", "operators.operator_matrix", "transmute.transmute_state", "transmute.fermionize",
        *(f"entanglement.{f}" for f in ENTANGLEMENT_FUNCS), "entanglement.DensityMatrix",
        "states.apply_annihilate", "states.prune",
    },
}


class _Proxy(types.ModuleType):
    """A module stand-in that serves some attributes itself and forwards the rest."""

    def __init__(self, real: types.ModuleType, **override: Any) -> None:
        super().__init__(real.__name__)
        self.__dict__.update(override)
        self._real = real

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class Recorder:
    """Collects spans from wrapped program functions during one traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.attr_failures = 0
        self.missing: list[str] = []
        self.item: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name, layer: str, attrs: Callable | None = None, root: bool = False) -> Callable:
        spans, errors, ids, clock = self.spans, self.errors, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            if root:
                self._root = sid
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if root:
                    self._root = None
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except Exception:  # an attribute the program no longer exposes must not fail the call
                    self.attr_failures += 1
                spans.append((next(ids), BOOKKEEPING, t1, clock(), parent, threading.get_ident(), self.item, None))
            spans.append((sid, span_name, t0, t1, parent, threading.get_ident(), self.item, extra))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- installing ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at each ``anyonsim`` module attribute that holds it."""
        modules = [mod for key, mod in sorted(sys.modules.items()) if key == "anyonsim" or key.startswith("anyonsim.")]
        for target in TARGETS:
            home = sys.modules.get(target.module)
            original = getattr(home, target.attr, None) if home is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self.wrap(original, target.name, target.layer, target.attrs, target.root)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        fastpath = sys.modules.get("anyonsim.fastpath")
        np = getattr(fastpath, "np", None)
        if np is not None and hasattr(np, "linalg"):
            det = self.wrap(np.linalg.det, "fastpath.det", "fastpath")
            self._patch(fastpath, "np", _Proxy(np, linalg=_Proxy(np.linalg, det=det)))
        else:
            self.missing.append("anyonsim.fastpath.np.linalg.det")
        entanglement = sys.modules.get("anyonsim.entanglement")
        density = getattr(entanglement, "DensityMatrix", None)
        if density is not None and "__post_init__" in vars(density):
            post = self.wrap(density.__post_init__, "entanglement.DensityMatrix", "entanglement")
            self._patch(density, "__post_init__", post)
        else:
            self.missing.append("anyonsim.entanglement.DensityMatrix.__post_init__")

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: one row per span, names listed once."""
        names = sorted({s[1] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], s[5], s[6], s[7]] for s in self.spans]
        payload = {"fields": ["id", "name", "start", "end", "parent", "thread", "item", "attrs"], "names": names, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- derived metrics -----------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _covered(children.get(s[0], []), s[2], s[3]) for s in spans}


def layer_metrics(rec: Recorder, items: int, phase_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced phase, each divided by the number of items it ran."""
    spans = rec.spans
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    expm_gate_nnz_out = 0
    expm_parents = {s[4] for s in spans if s[1] == "optics.expm"}
    for s in spans:
        name = s[1]
        if name == BOOKKEEPING:
            continue
        incl[name] += s[3] - s[2]
        calls[name] += 1
        if name not in EXTERNAL:
            layer_self[SPAN_LAYER[name]] += own[s[0]]
        extra = s[7] or {}
        if name.startswith("optics.apply_gate."):
            attrs["optics.nnz_in"] += extra.get("nnz_in", 0)
            attrs["optics.nnz_out"] += extra.get("nnz_out", 0)
            if s[0] in expm_parents:
                expm_gate_nnz_out += extra.get("nnz_out", 0)
        elif name == "optics.expm":
            attrs["optics.expm.dim_sum"] += extra.get("dim", 0)
        elif name == "fastpath.block":
            for key in ("nnz_in", "nnz_out", "targets"):
                attrs[f"fastpath.{key}"] += extra.get(key, 0)

    per = 1.0 / max(items, 1)
    out: dict[str, float] = {}

    def timed(name: str) -> None:
        out[f"{name}.s"] = incl[name] * per
        out[f"{name}.calls"] = calls[name] * per

    timed("cli.main")
    timed("optics.run_circuit")
    out["optics.apply_gate.calls"] = sum(calls[f"optics.apply_gate.{k}"] for k in APPLY_GATE_KINDS) * per
    for k in APPLY_GATE_KINDS:
        out[f"optics.apply_gate.{k}.s"] = incl[f"optics.apply_gate.{k}"] * per
    timed("optics.expm")
    out["optics.expm.dim_sum"] = attrs["optics.expm.dim_sum"] * per
    out["optics.nnz_in"] = attrs["optics.nnz_in"] * per
    out["optics.nnz_out"] = attrs["optics.nnz_out"] * per
    dim_sum = attrs["optics.expm.dim_sum"]
    out["optics.occupancy"] = expm_gate_nnz_out / dim_sum if dim_sum else 0.0
    timed("operators.operator_matrix")
    for name in ("run_circuit_fastpath", "compile_single_particle", "block", "det"):
        timed(f"fastpath.{name}")
    for key in ("targets", "nnz_in", "nnz_out"):
        out[f"fastpath.{key}"] = attrs[f"fastpath.{key}"] * per
    targets = attrs["fastpath.targets"]
    out["fastpath.useful"] = attrs["fastpath.nnz_out"] / targets if targets else 0.0
    for f in ENTANGLEMENT_FUNCS:
        timed(f"entanglement.{f}")
    timed("entanglement.DensityMatrix")
    for name in ("transmute.transmute_state", "transmute.fermionize", "states.apply_annihilate", "states.prune"):
        timed(name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * per
        out[f"{layer}.errors"] = rec.errors.get(layer, 0) * per
    roots = [(s[2], s[3]) for s in spans if s[4] is None and s[1] == "cli.main"]
    lo = min((a for a, _ in roots), default=0.0)
    out["trace.root_coverage"] = _covered(roots, lo, lo + phase_wall) / phase_wall if phase_wall > 0 else 0.0
    out["trace.spans"] = sum(calls.values()) * per
    return out


def self_time_shares(rec: Recorder) -> dict[str, float]:
    """Share of all recorded self time held by each layer, with the two library calls apart."""
    own = self_times(rec.spans)
    buckets: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        if s[1] == BOOKKEEPING:
            continue
        buckets[s[1] if s[1] in EXTERNAL else SPAN_LAYER[s[1]]] += own[s[0]]
    total = sum(buckets.values())
    return {k: round(v / total, 4) for k, v in sorted(buckets.items())} if total else {}


def reach_report(workload: str, metrics_calls: dict[str, int]) -> dict:
    """Compare which span names were reached against :data:`EXPECTED_REACH`."""
    expected = EXPECTED_REACH[workload]
    missing = sorted(n for n in expected if metrics_calls.get(n, 0) == 0)
    unexpected = sorted(n for n in SPAN_LAYER if n not in expected and metrics_calls.get(n, 0) > 0)
    return {"ok": not missing and not unexpected, "missing": missing, "unexpected": unexpected}


def pruned_mass(rec: Recorder) -> float:
    """Total |amp|^2 that ``prune`` dropped during the traced phase."""
    return sum(((s[7] or {}).get("dropped", 0.0) for s in rec.spans if s[1] == "states.prune"), 0.0)


def call_counts(rec: Recorder) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in rec.spans:
        if s[1] != BOOKKEEPING:
            counts[s[1]] += 1
    return dict(counts)


#: every per-layer metric name, in report order (an empty recorder yields them all)
PER_LAYER_NAMES = (*layer_metrics(Recorder(), 1, 1.0), "trace.overhead_s")
