"""The gate path exponentiates on the orbits of the state's kets.

The oracle is the whole-space exponential of the generator built from the
fractional Jordan-Wigner creators (:mod:`jw_oracle`), which shares no code
with the kernel: on every state the two must agree, and the orbit path
must never need a whole sector.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import jw_oracle as jw
from anyonsim import (
    AnyonState,
    BogoliubovPair,
    Circuit,
    apply_gate,
    apply_induced_bogoliubov,
    bs,
    pa,
    ps,
    run_circuit_fastpath,
)
from anyonsim.optics import generator_expr
from conftest import orbits, random_state, table_diff

PHIS = (0.0, 1.1, np.pi, 5.5)


def sparse_state(rng, m, phi, nkets):
    """A random state on ``nkets`` kets of mixed particle number."""
    occs = rng.choice(1 << m, size=nkets, replace=False)
    amps = rng.normal(size=nkets) + 1j * rng.normal(size=nkets)
    amps /= np.linalg.norm(amps)
    return AnyonState(m, phi, {int(occ): complex(a) for occ, a in zip(occs, amps)})


def gates_for(m):
    return [
        ps(1, 0.7), ps(m, -2.3),
        bs(1, 2, 0.9), bs(m - 1, m, -0.4), bs(1, m, 1.3), bs(2, m - 1, 2.2),
        pa(1, 2, 0.6), pa(2, 1, 0.6), pa(1, m, -0.8), pa(m, 1, -0.8), pa(3, m - 1, 1.7),
    ]


def oracle(state, gate):
    return jw.evolve(state, [gate])


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize("phi", PHIS)
def test_gates_match_whole_sector_oracle(rng, m, phi):
    states = [random_state(rng, m, phi), sparse_state(rng, m, phi, 7), sparse_state(rng, m, phi, 2)]
    for psi in states:
        assert len({occ.bit_count() for occ in psi.amplitudes}) > 1
        for gate in gates_for(m):
            assert table_diff(apply_gate(psi, gate), oracle(psi, gate)) < 1e-12, gate


@pytest.mark.parametrize("m", [5, 6])
def test_single_gate_orbits_have_at_most_two_kets(rng, m):
    psi = random_state(rng, m, 1.1)
    for gate in gates_for(m):
        sizes = {len(o) for o in orbits(generator_expr(gate, m), psi.phi, psi.amplitudes)}
        assert sizes <= ({1} if gate.kind == "PS" else {1, 2}), gate


@pytest.mark.parametrize("phi", PHIS)
def test_pairing_bogoliubov_matches_whole_sector_oracle(rng, phi):
    m = 5
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = 0.3 * (x + x.conj().T)
    y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    b = 0.3 * (y - y.T)
    pair = BogoliubovPair.from_generator(a, b)
    assert not pair.is_rotation()
    u = expm(1j * jw.bogoliubov_generator(m, a, b))  # on the table, which every sector shares
    for psi in (random_state(rng, m, phi), sparse_state(rng, m, phi, 3)):
        ref = jw.table(u @ jw.vector(m, psi.amplitudes))
        assert table_diff(apply_induced_bogoliubov(psi, pair), ref) < 1e-12


def test_wide_gates_never_enumerate_a_sector():
    # a whole parity sector at m = 24 holds 2^23 kets, over the dense budget
    m, phi = 24, 1.1
    # modes (3, 5, 20), (6, 11, 17) and (2, 9, 20): every gate below moves or phases some ket
    occs = (1 << 2) | (1 << 4) | (1 << 19), (1 << 5) | (1 << 10) | (1 << 16), (1 << 1) | (1 << 8) | (1 << 19)
    psi = AnyonState(m, phi, {occ: amp for occ, amp in zip(occs, (0.6, 0.48j, -0.64))})

    # BS(5, 6) is in the determinant family
    circuit = Circuit(m, phi, (bs(5, 6, 0.8),))
    assert table_diff(apply_gate(psi, bs(5, 6, 0.8)), run_circuit_fastpath(psi, circuit)) < 1e-12

    for gate, inverse in ((bs(3, 17, 0.7), bs(3, 17, -0.7)), (pa(20, 2, 1.2), pa(20, 2, -1.2))):
        out = apply_gate(psi, gate)
        assert table_diff(out, psi) > 0.1
        assert table_diff(apply_gate(out, inverse), psi) < 1e-12
    out = apply_gate(psi, ps(9, 0.4))
    assert table_diff(out, {**psi.amplitudes, occs[2]: psi.amplitudes[occs[2]] * np.exp(0.4j)}) < 1e-12
