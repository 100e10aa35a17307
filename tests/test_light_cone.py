"""The light-cone block against a full enumeration of row sets, bit for bit."""

import math
import time
from itertools import chain, combinations, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim import Circuit, InvariantBreachError, bs, fswap, pa, ps
from anyonsim import fastpath
from anyonsim.errors import PreconditionError

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi, allow_nan=False)
amplitudes = st.floats(-1.0, 1.0, allow_nan=False)


def full_enumeration_block(table, u):
    """Every C(m, N) row set per sector as stacked determinants, inputs summed in table order in real arithmetic."""
    m = u.m
    bits = np.array([1 << k for k in range(m)], dtype=object)
    out = {}
    by_n = {}
    for occ, amp in table.items():
        by_n.setdefault(occ.bit_count(), {})[occ] = amp
    for n, comps in by_n.items():
        if n == 0:
            for occ, amp in comps.items():
                out[occ] = out.get(occ, 0.0) + amp
            continue
        inputs = [(amp, u.matrix[:, [k for k in range(m) if w >> k & 1]]) for w, amp in comps.items()]
        targets = chain.from_iterable(combinations(range(m), n))
        while (flat := np.fromiter(islice(targets, fastpath._DET_CHUNK * n), dtype=np.intp)).size:
            rows = flat.reshape(-1, n)
            totals = np.zeros(len(rows), dtype=complex)
            for amp, sub in inputs:
                d = np.linalg.det(sub[rows])
                totals.real += amp.real * d.real - amp.imag * d.imag
                totals.imag += amp.real * d.imag + amp.imag * d.real
            keep = np.abs(totals) > 0.0
            out.update(zip(bits[rows[keep]].sum(axis=1).tolist(), totals[keep].tolist()))
    return out


def exact(table):
    """Keys, order and the bits of every amplitude, signed zeros included."""
    return [(occ, complex(amp).real.hex(), complex(amp).imag.hex()) for occ, amp in table.items()]


@st.composite
def segmented_cases(draw):
    """Depth 1-6 nearest-neighbour layers, some split by PA(1,2), on a superposition of several particle numbers."""
    m = draw(st.integers(3, 10))
    gates = []
    for layer in range(draw(st.integers(1, 6))):
        gates += [bs(a, a + 1, draw(angles)) for a in range(1 + layer % 2, m, 2) if draw(st.booleans())]
        gates += [ps(i, draw(angles)) for i in draw(st.lists(st.integers(1, m), max_size=3))]
        if draw(st.booleans()):
            a = draw(st.integers(1, m - 1))
            gates.append(fswap(a, a + 1))
        if draw(st.integers(0, 3)) == 0:
            gates.append(pa(1, 2, draw(angles)))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=10, unique=True))
    table = {occ: complex(draw(amplitudes), draw(amplitudes)) for occ in occs}
    return table, Circuit(m, 0.0, tuple(gates))


@SETTINGS
@given(segmented_cases())
def test_light_cone_block_is_bitwise_the_full_enumeration(case):
    table, circuit = case
    u = fastpath.compile_single_particle(Circuit(circuit.m, 0.0, tuple(g for g in circuit.gates if g.kind != "PA")))
    assert exact(fastpath._evolve_nc_block(table, u)) == exact(full_enumeration_block(table, u))
    got = fastpath._evolve_table(dict(table), circuit)
    with mock.patch.object(fastpath, "_evolve_nc_block", full_enumeration_block):
        ref = fastpath._evolve_table(dict(table), circuit)
    assert exact(got) == exact(ref)


def test_disjoint_cones_stream_in_order():
    # inputs whose shallow light cones split into two halves: the union of
    # the cones has C(12, 4) = 495 row sets, each cone at most C(6, 4) = 15
    rng = np.random.default_rng(5)
    gates = [bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))) for a in (1, 3, 5, 7, 9, 11, 2, 4, 8, 10)]
    u = fastpath.compile_single_particle(Circuit(12, 0.0, tuple(gates)))
    table = {0b000000011011: 0.6 + 0.1j, 0b110110000000: -0.3 + 0.7j, 0b000000001111: 0.2j}
    assert exact(fastpath._evolve_nc_block(table, u)) == exact(full_enumeration_block(table, u))


def test_distant_clusters_over_the_union_budget_are_refused():
    # each cone has 16 modes, C(16, 8) = 12 870 row sets, but targets
    # stream from the union of the two cones: 32 modes, C(32, 8) row sets
    m, n = 40, 8
    left, right = (1 << n) - 1, ((1 << n) - 1) << (m - n)
    # a staircase sweeps each cluster's particles over 2n modes
    stairs = (*range(1, 2 * n), *range(m - 1, m - 2 * n, -1))
    u = fastpath.compile_single_particle(Circuit(m, 0.0, tuple(bs(a, a + 1, 0.2 + 0.01 * a) for a in stairs)))
    amp = complex(math.sqrt(0.5))
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match=f"enumerate {math.comb(2 * n * 2, n)} minors"):
        fastpath._evolve_nc_block({left: amp, right: -amp}, u)
    assert time.perf_counter() - start < 1.0


def test_shallow_staircase_at_40_modes_is_exact_and_fast():
    m, n = 40, 20
    x = (1 << n) - 1
    u = fastpath.compile_single_particle(Circuit(m, 0.0, tuple(bs(a, a + 1, 0.3 + 0.05 * a) for a in range(1, n + 1))))
    start = time.perf_counter()
    out = fastpath._evolve_nc_block({x: 1.0 + 0.0j}, u)
    assert time.perf_counter() - start < 1.0
    assert len(out) == n + 1
    assert all(out[y] == fastpath.amplitude_number_conserving(u, x, y) for y in out)
    assert abs(sum(abs(a) ** 2 for a in out.values()) - 1.0) < 1e-12


def test_subnormal_transfer_entry_is_flushed_before_the_block():
    u = np.eye(3, dtype=complex)
    u[0, 2] = 1e-310
    assert fastpath._evolve_nc_block({0b011: 1.0 + 0.0j}, fastpath.SingleParticleUnitary(u)) == {0b011: 1.0 + 0.0j}



def test_non_finite_determinant_total_is_refused():
    # a normal transfer matrix, so only the check on the totals can fire
    u = fastpath.compile_single_particle(Circuit(4, 0.0, (bs(1, 2, 0.4), bs(2, 3, 0.9))))
    real_det = np.linalg.det
    with mock.patch.object(fastpath.np.linalg, "det", lambda a: np.full_like(real_det(a), np.nan)):
        with pytest.raises(InvariantBreachError, match="amplitude of an 2-particle segment is not finite"):
            fastpath._evolve_nc_block({0b0011: 1.0 + 0.0j}, u)
