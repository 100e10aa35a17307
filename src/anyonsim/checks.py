"""Self-contained property suites behind ``anyonsim check``.

Each suite evaluates an operator identity exhaustively on small mode
counts (or on seeded random instances) and reports its worst deviation.
The exchange-relation suite is the convention audit: it is what pins the
reordering-phase sign in :mod:`anyonsim.states`, so a deliberate sign flip
there must make it fail.  It, the number commutators and the phi = pi half
of the statistics endpoints only yield their identities; the one basis-ket
loop, :func:`_worst_on_basis`, builds them once per (m, phi).  The phi = 0
sign reference stays hand-written, ket by ket against ``apply_create``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .operators import annihilation, apply_operator_expr, creation, identity_expr, number
from .optics import ANGLED_KINDS, Circuit, apply_fswap, apply_gate, bs, decompose_distant, fswap, pa, ps, run_circuit
from .fastpath import anyonic_amplitude_via_fastpath
from .states import AnyonState, apply_create, basis_state, max_amplitude_diff
from .transmute import TransmutationMap, transmute_operator

# 11 points covering [0, 2*pi) with both statistics endpoints 0 and pi on it
DEFAULT_PHI_GRID = tuple(np.linspace(0.0, np.pi, 6)) + tuple(np.linspace(np.pi, 2 * np.pi, 6, endpoint=False)[1:])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float


def _worst_on_basis(m_values, phi_values, identities) -> float:
    """Largest |lhs - rhs| on any basis ket over the ``(lhs, rhs)`` pairs ``identities(m, phi)`` yields.

    The pairs are built once per (m, phi); ``rhs`` None stands for zero."""
    worst = 0.0
    for m in m_values:
        for phi in phi_values:
            pairs = list(identities(m, phi))
            for occ in range(1 << m):
                ket = basis_state(occ, phi, m)
                for lhs, rhs in pairs:
                    want = {} if rhs is None else apply_operator_expr(ket, rhs).amplitudes
                    worst = max(worst, max_amplitude_diff(apply_operator_expr(ket, lhs).amplitudes, want))
    return worst


def check_exchange_relations(m_values=(1, 2, 3, 4), phi_values=DEFAULT_PHI_GRID, atol=1e-10) -> CheckResult:
    """Both deformed exchange relations on every basis state and index pair."""

    def identities(m, phi):
        for i, j in product(range(1, m + 1), repeat=2):
            eps = (i < j) - (i > j)
            a_i, adag_j, a_j = annihilation(m, i), creation(m, j), annihilation(m, j)
            yield a_i * adag_j + (adag_j * a_i).scaled(complex(np.exp(-1j * phi * eps))), identity_expr(m) if i == j else None
            yield a_i * a_j + (a_j * a_i).scaled(complex(np.exp(1j * phi * eps))), None

    worst = _worst_on_basis(m_values, phi_values, identities)
    return CheckResult("exchange-relations", worst <= atol, worst)


def check_number_commutators(m_values=(2, 3, 4), phi_values=DEFAULT_PHI_GRID, atol=1e-10) -> CheckResult:
    """[n_i, n_j] = 0 and [n_i, a_j] = -delta_ij a_j on every basis state."""

    def identities(m, phi):
        for i, j in product(range(1, m + 1), repeat=2):
            n_i, n_j, a_j = number(m, i), number(m, j), annihilation(m, j)
            yield n_i * n_j - n_j * n_i, None
            yield n_i * a_j - a_j * n_i, a_j.scaled(-1.0) if i == j else None

    worst = _worst_on_basis(m_values, phi_values, identities)
    return CheckResult("number-commutators", worst <= atol, worst)


def check_statistics_endpoints(m_values=(2, 3, 4), atol=1e-10) -> CheckResult:
    """At phi = 0 all reordering phases are real signs; at phi = pi cross-mode operators commute."""
    worst = 0.0
    for m in m_values:
        for occ in range(1 << m):
            ket = basis_state(occ, 0.0, m)
            for i in range(1, m + 1):
                bit = 1 << (i - 1)
                expected = 0.0 if occ & bit else (-1.0) ** (occ & (bit - 1)).bit_count()
                worst = max(worst, abs(apply_create(ket, i).amplitude(occ | bit) - expected))

    def commutators(m, phi):
        for i, j in product(range(1, m + 1), repeat=2):
            if i != j:
                a_i, a_j = annihilation(m, i), annihilation(m, j)
                yield a_i * a_j - a_j * a_i, None

    worst = max(worst, _worst_on_basis(m_values, (np.pi,), commutators))
    return CheckResult("statistics-endpoints", worst <= atol, worst)


def _random_state(rng: np.random.Generator, m: int, phi: float) -> AnyonState:
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return AnyonState(m, phi, {occ: complex(a) for occ, a in enumerate(amps)})


def _random_expr(rng: np.random.Generator, m: int):
    expr = identity_expr(m).scaled(complex(rng.normal(), rng.normal()))
    for _ in range(int(rng.integers(1, 4))):
        i, j = int(rng.integers(1, m + 1)), int(rng.integers(1, m + 1))
        pick = rng.integers(0, 3)
        factor = creation(m, i) if pick == 0 else annihilation(m, i) if pick == 1 else creation(m, i) * annihilation(m, j)
        expr = expr * factor
    return expr


def check_transmutation_laws(trials: int = 60, atol: float = 1e-10) -> CheckResult:
    """Composition, inverse, number invariance, and matrix-element transport."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        phi1, phi2, phi3 = rng.uniform(0.0, 2 * np.pi, size=3)
        expr = _random_expr(rng, m)
        ket = _random_state(rng, m, phi3)
        left = transmute_operator(transmute_operator(expr, TransmutationMap(phi1, phi2)), TransmutationMap(phi2, phi3))
        right = transmute_operator(expr, TransmutationMap(phi1, phi3))
        lhs, rhs = apply_operator_expr(ket, left), apply_operator_expr(ket, right)
        worst = max(worst, max_amplitude_diff(lhs.amplitudes, rhs.amplitudes))

        ket1 = _random_state(rng, m, phi1)
        round_trip = transmute_operator(
            transmute_operator(expr, TransmutationMap(phi1, phi2)), TransmutationMap(phi2, phi1)
        )
        lhs, rhs = apply_operator_expr(ket1, round_trip), apply_operator_expr(ket1, expr)
        worst = max(worst, max_amplitude_diff(lhs.amplitudes, rhs.amplitudes))

        i = int(rng.integers(1, m + 1))
        n_img = transmute_operator(number(m, i), TransmutationMap(phi1, phi2))
        ket2 = _random_state(rng, m, phi2)
        lhs, rhs = apply_operator_expr(ket2, n_img), apply_operator_expr(ket2, number(m, i))
        worst = max(worst, max_amplitude_diff(lhs.amplitudes, rhs.amplitudes))

        # transport: the phi-sector image of a fermionic operator has the
        # same Fock matrix elements as the original has at phi = 0
        img = transmute_operator(expr, TransmutationMap(0.0, phi2))
        for occ in range(1 << m):
            x0 = basis_state(occ, 0.0, m)
            xphi = basis_state(occ, phi2, m)
            out0 = apply_operator_expr(x0, expr)
            outphi = apply_operator_expr(xphi, img)
            worst = max(worst, max_amplitude_diff(outphi.amplitudes, out0.amplitudes))
    return CheckResult("transmutation-laws", worst <= atol, worst)


def check_fswap_identities(atol: float = 1e-10) -> CheckResult:
    """Involution, the three-swap braid identity, and distant-gate decomposition."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for m in (2, 3, 4):
        for occ in range(1 << m):
            ket = basis_state(occ, 0.0, m)
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    twice = apply_fswap(apply_fswap(ket, i, j), i, j)
                    worst = max(worst, max_amplitude_diff(twice.amplitudes, ket.amplitudes))
    for occ in range(8):
        ket = basis_state(occ, 0.0, 3)
        braid = apply_fswap(apply_fswap(apply_fswap(ket, 1, 2), 2, 3), 1, 2)
        direct = apply_fswap(ket, 1, 3)
        worst = max(worst, max_amplitude_diff(braid.amplitudes, direct.amplitudes))
    for _ in range(8):
        m = int(rng.integers(3, 6))
        theta = float(rng.uniform(-np.pi, np.pi))
        i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
        kind = ANGLED_KINDS[int(rng.integers(0, len(ANGLED_KINDS)))]
        gate = ps(int(i), theta) if kind == "PS" else (bs(int(i), int(j), theta) if kind == "BS" else pa(int(i), int(j), theta))
        seq = Circuit(m, 0.0, tuple(decompose_distant(gate)))
        for occ in range(1 << m):
            ket = basis_state(occ, 0.0, m)
            got, want = run_circuit(ket, seq), apply_gate(ket, gate)
            worst = max(worst, max_amplitude_diff(got.amplitudes, want.amplitudes))
    return CheckResult("fswap-identities", worst <= atol, worst)


def check_fastpath_oracle(trials: int = 6, atol: float = 1e-10) -> CheckResult:
    """Determinant amplitudes against dense evolution on random in-family circuits."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(trials):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, min(m, 3) + 1))
        gates = []
        for _ in range(int(rng.integers(1, 9))):
            pick = rng.integers(0, 3)
            if pick == 0:
                gates.append(ps(int(rng.integers(1, m + 1)), float(rng.uniform(-np.pi, np.pi))))
            elif pick == 1:
                a = int(rng.integers(1, m))
                gates.append(bs(a, a + 1, float(rng.uniform(-np.pi, np.pi))))
            else:
                a, b = rng.choice(np.arange(1, m + 1), size=2, replace=False)
                gates.append(fswap(int(a), int(b)))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        circuit = Circuit(m, phi, tuple(gates))
        x = int(rng.choice([occ for occ in range(1 << m) if occ.bit_count() == n]))
        dense = run_circuit(basis_state(x, phi, m), circuit)
        for y, amp in dense.amplitudes.items():
            fast = anyonic_amplitude_via_fastpath(circuit, x, y)
            worst = max(worst, abs(fast - amp))
    return CheckResult("fastpath-oracle", worst <= atol, worst)


def check_default_grid() -> CheckResult:
    grid = np.asarray(DEFAULT_PHI_GRID)
    ok = bool(np.any(np.abs(grid) < 1e-15) and np.any(np.abs(grid - np.pi) < 1e-15) and len(grid) == 11)
    return CheckResult("phi-grid-endpoints", ok, 0.0 if ok else 1.0)


def run_all(fast: bool = True) -> list[CheckResult]:
    """Run every suite; ``fast`` trims the exhaustive ranges for CLI use."""
    ms = (1, 2, 3) if fast else (1, 2, 3, 4, 5)
    phis = DEFAULT_PHI_GRID[::2] if fast else DEFAULT_PHI_GRID
    return [
        check_exchange_relations(m_values=ms, phi_values=phis),
        check_number_commutators(m_values=ms[1:] or (2,), phi_values=phis),
        check_statistics_endpoints(m_values=(2, 3)),
        check_transmutation_laws(trials=20 if fast else 60),
        check_fswap_identities(),
        check_fastpath_oracle(trials=4 if fast else 8),
        check_default_grid(),
    ]
