"""The stacked-determinant block against a per-minor determinant loop."""

import math
from itertools import combinations

import numpy as np
import pytest

from anyonsim import AnyonState, Circuit, bs, fswap, ps, run_circuit, run_circuit_fastpath
from anyonsim import fastpath
from conftest import table_diff


def per_minor_block(table, u):
    """One np.linalg.det call per (target, input) pair, inputs summed in table order."""
    m = u.m
    out = {}
    for occ, amp in table.items():
        if occ == 0:
            out[0] = out.get(0, 0.0) + amp
    for n in sorted({occ.bit_count() for occ in table} - {0}):
        comps = [(w, amp) for w, amp in table.items() if w.bit_count() == n]
        for rows in combinations(range(m), n):
            total = 0.0 + 0.0j
            for w, amp in comps:
                cols = [k for k in range(m) if w >> k & 1]
                total += amp * np.linalg.det(u.matrix[np.ix_(rows, cols)])
            if abs(total) > 0.0:
                out[sum(1 << r for r in rows)] = complex(total)
    return out


def random_segment(rng, m, depth=3):
    gates = []
    for _ in range(depth):
        gates += [bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))) for a in range(1, m)]
        gates += [ps(i, float(rng.uniform(-np.pi, np.pi))) for i in range(1, m + 1)]
    return fastpath.compile_single_particle(Circuit(m, 0.0, tuple(gates)))


def random_table(rng, m, counts):
    """Random amplitudes on `k` configurations of each particle number `n` in `counts`."""
    table = {}
    for n, k in counts.items():
        picks = list(combinations(range(m), n))
        for idx in rng.choice(len(picks), size=k, replace=False):
            table[sum(1 << r for r in picks[idx])] = complex(rng.normal(), rng.normal())
    return table


@pytest.mark.parametrize(
    "m, counts",
    [
        (13, {6: 3, 0: 1}),  # 1716 targets: crosses a chunk boundary
        (7, {2: 5, 3: 4}),
        (9, {0: 1, 4: 2}),
    ],
)
def test_block_matches_per_minor_determinants(rng, m, counts):
    u = random_segment(rng, m)
    table = random_table(rng, m, counts)
    got = fastpath._evolve_nc_block(table, u)
    ref = per_minor_block(table, u)
    assert set(got) == set(ref)
    assert table_diff(got, ref) < 1e-14


def test_chunk_boundary_is_exercised():
    assert math.comb(13, 6) > fastpath._DET_CHUNK


def test_fastpath_beyond_64_modes():
    m = 70
    state = AnyonState(m, 0.9, {(1 << 2) | (1 << 63): 0.6, (1 << 9) | (1 << 64): 0.8j})
    circuit = Circuit(m, 0.9, (bs(64, 65, 0.7), ps(64, 1.3), bs(5, 6, -0.4), fswap(66, 67)))
    fast = run_circuit_fastpath(state, circuit)
    dense = run_circuit(state, circuit)
    assert max(fast.amplitudes) >= 1 << 64
    assert table_diff(fast, dense) < 1e-12


def test_each_run_between_pairing_gates_is_compiled_once(monkeypatch):
    from anyonsim import pa

    segments = []
    real_compile = fastpath.compile_single_particle

    def record(circuit):
        segments.append(tuple(g.label() for g in circuit.gates))
        return real_compile(circuit)

    monkeypatch.setattr(fastpath, "compile_single_particle", record)
    gates = (pa(1, 2, 0.3), bs(2, 3, 0.4), ps(1, 0.5), pa(1, 2, 0.6), pa(1, 2, 0.7), fswap(3, 4), bs(1, 2, 0.8))
    fastpath._evolve_table({0b0101: 1.0 + 0.0j}, Circuit(4, 0.0, gates))
    assert segments == [(bs(2, 3, 0.4).label(), ps(1, 0.5).label()), (fswap(3, 4).label(), bs(1, 2, 0.8).label())]
