"""The closed-form particle trace against the frontier walk, and against the one-body matrix.

The reference below applies the annihilators one by one through
``apply_annihilate``, keeping one state per chain prefix, and accumulates
the reduced matrix in NumPy as the package once did.
"""

import math
import signal
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim import AnyonState, Circuit, InvariantBreachError, PreconditionError, bs, one_body_rdm, particle_trace_rdm, ps, run_circuit
from anyonsim.entanglement import von_neumann_entropy
from anyonsim.states import PRUNE_EPS, apply_annihilate


def frontier_chain_amplitudes(state, depth):
    frontier = {(): state}
    for _ in range(depth):
        nxt = {}
        for prefix, st_ in frontier.items():
            for i in range(1, state.m + 1):
                lowered = apply_annihilate(st_, i)
                if lowered.amplitudes:
                    nxt[prefix + (i,)] = lowered
        frontier = nxt
    return {chain: st_.amplitudes.get(0, 0.0 + 0.0j) for chain, st_ in frontier.items()}


def frontier_particle_trace(state, slot):
    amps = frontier_chain_amplitudes(state, state.particle_number())
    buckets = {}
    for chain, value in amps.items():
        ctx = chain[: slot - 1] + chain[slot:]
        buckets.setdefault(ctx, []).append((chain[slot - 1], value))
    mat = np.zeros((state.m, state.m), dtype=complex)
    for entries in buckets.values():
        for i, vi in entries:
            for j, vj in entries:
                mat[i - 1, j - 1] += vi * vj.conjugate()
    return mat / np.trace(mat).real


def random_n_state(rng, m, n, phi, nkets):
    occs = [sum(1 << k for k in picks) for picks in combinations(range(m), n)]
    picks = rng.choice(len(occs), size=min(nkets, len(occs)), replace=False)
    amps = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
    return AnyonState(m, phi, {occs[k]: complex(a) for k, a in zip(picks, amps / np.linalg.norm(amps))})


def near_eps_state(rng, m, n, phi):
    """Every second ket carries an amplitude within a few ulps of PRUNE_EPS, so pruning decides its chains."""
    psi = random_n_state(rng, m, n, phi, 12)
    table = dict(psi.amplitudes)
    for k, occ in enumerate(list(table)[1::2]):
        scale = PRUNE_EPS * (1.0 + (k % 5 - 2) * 2.0**-52)
        angle = rng.uniform(0.0, 2 * math.pi)
        table[occ] = scale * complex(math.cos(angle), math.sin(angle))
    return AnyonState(m, phi, table)


def evolved_state(rng, m, n, phi):
    """NumPy-scalar amplitudes, as the dense engine returns them."""
    psi = random_n_state(rng, m, n, phi, 4)
    gates = tuple(bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))) for a in range(1, m)) + (ps(1, 0.3),)
    return run_circuit(psi, Circuit(m, phi, gates))


CASES = [(m, n) for n in range(1, 5) for m in range(max(n, 2), 9)]


@pytest.mark.parametrize("m, n", CASES)
@pytest.mark.parametrize("phi", [0.0, math.pi, None])
def test_particle_trace_bitwise_equals_frontier_walk(rng, m, n, phi):
    # the closed form adds the chains up in another order than the walk: they agree to 1e-14, not bit for bit
    phi = float(rng.uniform(0.0, 2 * math.pi)) if phi is None else phi
    for psi in (random_n_state(rng, m, n, phi, 20), near_eps_state(rng, m, n, phi), evolved_state(rng, m, n, phi)):
        for slot in range(1, n + 1):
            got = particle_trace_rdm(psi, keep=slot).matrix
            assert np.max(np.abs(got - frontier_particle_trace(psi, slot))) <= 1e-14, slot


def seeded_states(rng, count, phi=None):
    """Random definite-N states with N <= 8 on m <= 11 modes, at random phi unless ``phi`` is given."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(max(n, 2), 12))
        sector = float(rng.uniform(0.0, 2 * math.pi)) if phi is None else phi
        yield random_n_state(rng, m, n, sector, int(rng.integers(1, 30)))


def test_keeping_the_first_slot_is_the_one_body_matrix(rng):
    # W_1(k) = q^k is the phase of <a+_j a_i>, which one_body_rdm reaches through apply_annihilate
    for psi in seeded_states(rng, 100):
        gap = np.max(np.abs(particle_trace_rdm(psi, keep=1).matrix - one_body_rdm(psi).matrix))
        assert gap <= 1e-14, (psi.m, psi.particle_number(), psi.phi)


def test_every_slot_is_the_one_body_matrix_for_fermions(rng):
    for psi in seeded_states(rng, 60, phi=0.0):
        rho = one_body_rdm(psi).matrix
        for slot in range(1, psi.particle_number() + 1):
            assert np.max(np.abs(particle_trace_rdm(psi, keep=slot).matrix - rho)) <= 1e-14, (psi.m, slot)


def test_kets_at_or_below_the_prune_threshold_add_nothing(rng):
    psi = near_eps_state(rng, 6, 3, 1.3)
    kept = {occ: amp for occ, amp in psi.amplitudes.items() if abs(amp) > PRUNE_EPS}
    assert 0 < len(kept) < len(psi.amplitudes) - 1  # some near-threshold kets are dropped, some kept
    for slot in (1, 2, 3):
        got = particle_trace_rdm(psi, keep=slot).matrix
        assert got.tobytes() == particle_trace_rdm(AnyonState(6, 1.3, kept), keep=slot).matrix.tobytes()


def test_chain_walk_rejects_non_finite_amplitude():
    psi = AnyonState(3, 0.4, {0b011: 0.6, 0b110: complex(float("nan"), 0.0)})
    with pytest.raises(InvariantBreachError):
        particle_trace_rdm(psi, keep="x")


@st.composite
def two_particle_states(draw):
    m = draw(st.integers(2, 8))
    phi = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    occs = draw(st.lists(st.sampled_from([(1 << a) | (1 << b) for a, b in combinations(range(m), 2)]), min_size=1, max_size=8, unique=True))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    table = {occ: complex(draw(parts), draw(parts)) for occ in occs}
    if sum(abs(a) ** 2 for a in table.values()) < 1e-6:
        table[occs[0]] = 1.0 + 0.0j
    return AnyonState(m, phi, table)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(two_particle_states())
def test_x_and_y_traces_share_their_spectrum(psi):
    rho_x, rho_y = particle_trace_rdm(psi, keep="x"), particle_trace_rdm(psi, keep="y")
    assert np.max(np.abs(np.sort(rho_x.spectrum) - np.sort(rho_y.spectrum))) < 1e-12
    assert abs(von_neumann_entropy(rho_x) - von_neumann_entropy(rho_y)) < 1e-10


def test_entropy_of_density_matrix_reuses_its_spectrum(rng):
    rho = particle_trace_rdm(random_n_state(rng, 5, 2, 0.8, 10), keep="x")
    assert von_neumann_entropy(rho) == von_neumann_entropy(rho.matrix)


def test_particle_trace_of_twelve_particles_needs_no_chains():
    psi = AnyonState(12, 1.3, {(1 << 12) - 1: 1.0})  # 12! = 479 001 600 annihilation chains

    def enumerating(signum, frame):
        raise TimeoutError("still running after 1 s: the chains are being enumerated")

    # the alarm also stops an enumeration of the chains before it takes the host's memory
    previous = signal.signal(signal.SIGALRM, enumerating)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        rho = particle_trace_rdm(psi, keep=1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert np.max(np.abs(rho.matrix - np.eye(12) / 12)) <= 1e-15


def test_a_table_pruned_to_nothing_has_no_particle_trace():
    tiny = AnyonState(4, 1.3, {0b0011: PRUNE_EPS, 0b0101: 0.5 * PRUNE_EPS * 1j})
    with pytest.raises(PreconditionError, match="^particle trace of the zero vector$"):
        particle_trace_rdm(tiny, 1)
