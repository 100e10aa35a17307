"""Fixed costs of a fast-path segment: one transfer buffer, row-set blocks sized by cells, forced rows, one-pass rows."""

import cmath
import time

import numpy as np
import pytest

from anyonsim import Circuit, bs, fswap, occ_to_string, ps
from anyonsim import fastpath
from anyonsim.errors import PreconditionError
from test_light_cone import exact, full_enumeration_block


def per_gate_eye_product(circuit):
    """One fresh identity per gate, its entries set, multiplied onto the running total, then flushed."""
    m = circuit.m
    total = np.eye(m, dtype=complex)
    for gate in circuit.gates:
        t = np.eye(m, dtype=complex)
        a = gate.i - 1
        if gate.kind == "PS":
            t[a, a] = cmath.exp(1j * gate.theta)
        elif gate.kind == "BS":
            b = gate.j - 1
            c, s = np.cos(gate.theta), np.sin(gate.theta)
            t[a, a] = t[b, b] = c
            t[a, b] = t[b, a] = 1j * s
        else:
            b = gate.j - 1
            t[a, a] = t[b, b] = 0.0
            t[a, b] = t[b, a] = 1.0
        total = t @ total
    return fastpath.SingleParticleUnitary(total).matrix


def random_circuit(rng, m, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(3)
        a = int(rng.integers(1, m)) if m > 1 else 1
        theta = float(rng.uniform(-np.pi, np.pi))
        if kind == 0 or m == 1:
            gates.append(ps(int(rng.integers(1, m + 1)), theta))
        elif kind == 1:
            gates.append(bs(a, a + 1, theta))
        else:
            gates.append(fswap(a, a + 1))
    return Circuit(m, 0.0, tuple(gates))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 14])
def test_compiled_segment_is_bitwise_the_per_gate_identity_product(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(8):
        circuit = random_circuit(rng, m, int(rng.integers(0, 60)))
        got = fastpath.compile_single_particle(circuit).matrix
        assert got.tobytes() == per_gate_eye_product(circuit).tobytes()


def test_segments_compiled_in_turn_keep_the_bits_of_each_alone():
    rng = np.random.default_rng(3)
    first, second = random_circuit(rng, 14, 40), random_circuit(rng, 14, 40)
    u_first = fastpath.compile_single_particle(first)
    kept = u_first.matrix.copy()
    u_second = fastpath.compile_single_particle(second)
    assert u_first.matrix.tobytes() == kept.tobytes() == per_gate_eye_product(first).tobytes()
    assert u_second.matrix.tobytes() == per_gate_eye_product(second).tobytes()


def test_block_bits_do_not_depend_on_the_cell_bound(monkeypatch):
    # one sector of 60 inputs, from the 252 five-particle configurations of 10 modes
    rng = np.random.default_rng(11)
    occs = [occ for occ in range(1 << 10) if occ.bit_count() == 5]
    rng.shuffle(occs)
    table = {occ: complex(rng.normal(), rng.normal()) for occ in occs[:60]}
    u = fastpath.compile_single_particle(random_circuit(rng, 10, 30))
    default = exact(fastpath._evolve_nc_block(table, u))
    for cells in (1, 10**9):
        monkeypatch.setattr(fastpath, "_BLOCK_CELLS", cells)
        assert exact(fastpath._evolve_nc_block(table, u)) == default
    assert default == exact(full_enumeration_block(table, u))


def test_right_edge_staircase_at_40_modes_is_answered_exactly():
    # BS(20, 21) ... BS(39, 40) leaves modes 1-19 untouched, so their rows are
    # forced: 21 row sets of C(40, 20)
    m, n = 40, 20
    x = (1 << n) - 1
    u = fastpath.compile_single_particle(Circuit(m, 0.0, tuple(bs(a, a + 1, 0.3 + 0.05 * a) for a in range(n, m))))
    start = time.perf_counter()
    out = fastpath._evolve_nc_block({x: 1.0 + 0.0j}, u)
    assert time.perf_counter() - start < 1.0
    assert len(out) == n + 1
    assert all(out[y] == fastpath.amplitude_number_conserving(u, x, y) for y in out)
    assert abs(sum(abs(a) ** 2 for a in out.values()) - 1.0) < 1e-12


def forced_row_case():
    """Inputs that all hold modes 1 and 3, which no gate touches; the other particles spread over modes 5-12."""
    rng = np.random.default_rng(21)
    gates = [ps(1, 0.7), ps(3, -1.1)]
    for layer in range(3):
        gates += [bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))) for a in range(5 + layer % 2, 12, 2)]
    u = fastpath.compile_single_particle(Circuit(12, 0.0, tuple(gates)))
    pinned = 0b101
    table = {pinned | 1 << 4 | 1 << 6: 0.5 + 0.1j, pinned | 1 << 7 | 1 << 11: -0.2 + 0.4j, pinned | 1 << 5 | 1 << 9: 0.3j}
    return table, u


def test_forced_rows_keep_the_full_enumeration_bits():
    table, u = forced_row_case()
    assert exact(fastpath._evolve_nc_block(table, u)) == exact(full_enumeration_block(table, u))


def test_the_budget_counts_the_row_sets_that_hold_the_forced_rows(monkeypatch):
    # rows 0 and 2 are forced; the cones hold 6, 8 and 8 other rows and
    # their union 8, so the budget counts max(C(8, 2), C(6, 2) + 2 C(8, 2))
    # = 71 minors, where the full cones would count C(8, 4) + 2 C(10, 4) = 490
    table, u = forced_row_case()
    monkeypatch.setattr(fastpath, "_MINOR_BUDGET", 71)
    fastpath._evolve_nc_block(table, u)
    monkeypatch.setattr(fastpath, "_MINOR_BUDGET", 70)
    with pytest.raises(PreconditionError, match="enumerate 71 minors"):
        fastpath._evolve_nc_block(table, u)


def per_bit_join(occ, m):
    return "".join("1" if occ >> i & 1 else "0" for i in range(m))


def test_occupation_strings_match_the_per_bit_join():
    rng = np.random.default_rng(8)
    for m in range(1, 71):
        occs = [0, (1 << m) - 1, 1 << m, (1 << (m + 3)) - 1, -1]
        occs += [int(rng.integers(0, 2**62)) << int(rng.integers(0, 12)) for _ in range(20)]
        for occ in occs:
            assert occ_to_string(occ, m) == per_bit_join(occ, m)
