"""Seeded inputs for the benchmark workloads.

Each workload is one pass of items. An item is one ``anyonsim`` CLI call
(``run`` or ``entropy-scan``) plus the JSON files it reads and the checks
its output must pass. The same (workload, seed) always gives the same
items; the seed changes angles, mode positions, statistics sectors and
input amplitudes, never the item shapes or their counts, so every seed asks
for the same amount of work.

This module does not import ``anyonsim``: the program only ever sees the
JSON files written from these payloads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: entropy-scan grid of the seeded two-particle item (phi count, theta count)
SCAN_GRID = (7, 5)
#: the CLI's default entropy-scan grid, used by the split-pair item
DEFAULT_SCAN_GRID = (13, 9)


@dataclass(frozen=True)
class Item:
    """One CLI call.

    ``argv`` may hold the placeholders ``@state``, ``@circuit`` and ``@out``;
    the harness replaces them by the paths it writes ``state``, ``circuit``
    and the output CSV to.
    """

    key: str
    shape: str
    argv: tuple[str, ...]
    state: dict | None = None
    circuit: dict | None = None
    #: reference engine the output must agree with: "fastpath", "dense" or None
    reference: str | None = None
    #: run the output back through ``Circuit.reversed_dagger()`` and compare with the input
    inverse: bool = False
    #: entropy-scan grid as (phi count, theta count); None for ``run`` items
    grid: tuple[int, int] | None = None
    #: split-pair headline: E_SP <= 1e-8 and Slater rank 1 at every point
    headline: bool = False


def _occ_string(occ: int, m: int) -> str:
    return "".join("1" if occ >> k & 1 else "0" for k in range(m))


def _state(rng: random.Random, m: int, n: int, nconf: int) -> dict:
    """A normalized superposition of ``nconf`` distinct n-particle configurations."""
    occs: set[int] = set()
    while len(occs) < nconf:
        occs.add(sum(1 << k for k in rng.sample(range(m), n)))
    amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in occs]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return {
        "m": m,
        "phi": rng.uniform(0.0, TWO_PI),
        "amplitudes": [
            {"occ": _occ_string(occ, m), "re": a.real / norm, "im": a.imag / norm}
            for occ, a in zip(sorted(occs), amps)
        ],
    }


def _angle(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _brickwork(rng: random.Random, m: int, offset: int, n_fswap: int = 3) -> list[dict]:
    """One nearest-neighbour brickwork layer: BS from ``offset``, PS on every mode, a few adjacent FSWAPs."""
    gates = [{"kind": "BS", "i": i, "j": i + 1, "theta": _angle(rng)} for i in range(offset, m, 2)]
    gates += [{"kind": "PS", "i": i, "theta": _angle(rng)} for i in range(1, m + 1)]
    for _ in range(n_fswap):
        i = rng.randint(1, m - 1)
        gates.append({"kind": "FSWAP", "i": i, "j": i + 1})
    rng.shuffle(gates)
    return gates


def _distinct_pair(rng: random.Random, m: int) -> tuple[int, int]:
    i, j = rng.sample(range(1, m + 1), 2)
    return i, j


def _run_argv(engine: str) -> tuple[str, ...]:
    return ("run", "--state", "@state", "--circuit", "@circuit", "--engine", engine, "--out", "@out")


def run_dense(seed: int) -> list[Item]:
    """m=10, N=5 nearest-neighbour circuits on the dense engine (sector dimension 252)."""
    rng = random.Random(f"run-dense:{seed}")
    items = []
    for k in range(4):
        m, n = 10, 5
        state = _state(rng, m, n, 1 + k % 4)
        circuit = {"m": m, "phi": 0.0, "gates": _brickwork(rng, m, 1 + k % 2)}
        items.append(
            Item(f"dense-{k:02d}", "dense-10-5", _run_argv("dense"), state, circuit, reference="fastpath")
        )
    return items


def _pairing_circuit(rng: random.Random, m: int) -> list[dict]:
    """20 gates: 4 PA on ordered, possibly distant pairs at fixed slots; distant BS, PS, distant FSWAP."""
    rest: list[dict] = []
    for _ in range(6):
        i, j = _distinct_pair(rng, m)
        rest.append({"kind": "BS", "i": i, "j": j, "theta": _angle(rng)})
    for _ in range(6):
        rest.append({"kind": "PS", "i": rng.randint(1, m), "theta": _angle(rng)})
    for _ in range(4):
        i, j = _distinct_pair(rng, m)
        rest.append({"kind": "FSWAP", "i": i, "j": j})
    rng.shuffle(rest)
    gates: list[dict] = []
    for slot in range(20):
        if slot % 5 == 1:
            i, j = _distinct_pair(rng, m)
            gates.append({"kind": "PA", "i": i, "j": j, "theta": _angle(rng)})
        else:
            gates.append(rest.pop())
    return gates


def run_pairing(seed: int) -> list[Item]:
    """m=8, N=4 inputs through out-of-family circuits with pairing gates on the dense engine."""
    rng = random.Random(f"run-pairing:{seed}")
    items = []
    for k in range(16):
        m, n = 8, 4
        state = _state(rng, m, n, 1 + k % 4)
        circuit = {"m": m, "phi": 0.0, "gates": _pairing_circuit(rng, m)}
        items.append(
            Item(f"pairing-{k:02d}", "pairing-8-4", _run_argv("dense"), state, circuit, inverse=k % 4 == 0)
        )
    return items


def run_fast(seed: int) -> list[Item]:
    """Determinant fast path at sizes the dense engine cannot reach within one item.

    Per pass: six (14,7) and two (12,6) brickwork circuits from basis
    inputs, two (10,5) circuits from inputs of 32 and 56 configurations,
    and two (8,4) circuits split into three determinant segments by PA(1,2).
    The (10,5) and (8,4) items are also checked against the dense engine.
    Shapes are interleaved so that any prefix of a pass has about the
    pass's mix, and the (14,7) items hold the median latency.
    """
    rng = random.Random(f"run-fast:{seed}")
    argv = _run_argv("fastpath")

    def brick(k: int, m: int) -> Item:
        state = _state(rng, m, m // 2, 1)
        circuit = {"m": m, "phi": 0.0, "gates": _brickwork(rng, m, 1 + k % 2)}
        return Item(f"fast-{m}-{k}", f"fast-brick-{m}-{m // 2}", argv, state, circuit)

    def wide(k: int, nconf: int) -> Item:
        state = _state(rng, 10, 5, nconf)
        circuit = {"m": 10, "phi": 0.0, "gates": _brickwork(rng, 10, 1 + k % 2)}
        return Item(f"fast-wide-{k}", "fast-wide-10-5", argv, state, circuit, reference="dense")

    def segmented(k: int) -> Item:
        gates = _brickwork(rng, 8, 1)
        for offset in (2, 1):
            gates += [{"kind": "PA", "i": 1, "j": 2, "theta": _angle(rng)}] + _brickwork(rng, 8, offset)
        state = _state(rng, 8, 4, 1)
        return Item(f"fast-pa-{k}", "fast-pa-8-4", argv, state, {"m": 8, "phi": 0.0, "gates": gates}, reference="dense")

    items = []
    for k in range(2):
        items += [brick(3 * k, 14), brick(k, 12), brick(3 * k + 1, 14), wide(k, (32, 56)[k])]
        items += [brick(3 * k + 2, 14), segmented(k)]
    return items


def _grid_argv(grid: tuple[int, int]) -> tuple[str, ...]:
    return (
        "--phi-grid", f"0:{TWO_PI!r}:{grid[0]}",
        "--theta-grid", f"0:{math.pi!r}:{grid[1]}",
    )


def entropy_scan(seed: int) -> list[Item]:
    """The split-pair headline on the default grid, then three seeded 8-mode two-particle scans.

    The seeded circuit is a chain of 7 nearest-neighbour beam splitters
    with a null angle (the sweep angle binds to them) and fixed phase
    shifters.
    """
    rng = random.Random(f"entropy-scan:{seed}")
    items = [
        Item(
            "scan-split-pair",
            "scan-split-pair",
            ("entropy-scan", "--preset", "split-pair", "--out", "@out"),
            grid=DEFAULT_SCAN_GRID,
            headline=True,
        )
    ]
    for k in range(3):
        m = 8
        gates: list[dict] = []
        for i in range(1, m):
            gates.append({"kind": "BS", "i": i, "j": i + 1, "theta": None})
            gates.append({"kind": "PS", "i": i + 1, "theta": _angle(rng)})
        state = _state(rng, m, 2, 4)
        argv = ("entropy-scan", "--state", "@state", "--circuit", "@circuit") + _grid_argv(SCAN_GRID) + ("--out", "@out")
        items.append(
            Item(f"scan-chain-{k}", "scan-chain-8-2", argv, state, {"m": m, "phi": 0.0, "gates": gates}, grid=SCAN_GRID)
        )
    return items


WORKLOADS = {
    "run-dense": run_dense,
    "run-pairing": run_pairing,
    "run-fast": run_fast,
    "entropy-scan": entropy_scan,
}


def make_items(workload: str, seed: int) -> list[Item]:
    """One pass of items for a workload; identical for identical (workload, seed)."""
    try:
        factory = WORKLOADS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}") from None
    return factory(seed)
