"""Reduced density matrices, entanglement measures, and separability.

Two distinct reductions coexist for particle states:

* the *particle partial trace* integrates out particles by their position
  in the creation string; for exchanged orderings the deformed statistics
  inject explicit phases, which is exactly the mechanism that makes the
  naive single-particle entropy sector-dependent.  An ordered annihilation
  chain ends on the vacuum from exactly one ket, with that ket's amplitude
  times one exchange phase per inversion of the chain; summed over the
  orderings of the traced particles this leaves a closed-form weight per
  pair of kept modes, so each ket is read once and no chain is built;
* the *one-body matrix* of ladder-bilinear expectations, whose spectrum in
  the fermionic sector is sector-invariant and yields the minimal-entropy
  mode representation that actually decides separability.

Entropies are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvariantBreachError, PreconditionError
from .fastpath import SingleParticleUnitary, _evolve_nc_block
from .states import (
    NORM_ATOL,
    AnyonState,
    apply_annihilate,
    check_index,
    check_tol,
    inner_product,
    prune,
    reorder_phase,
)
from .transmute import fermionize

_HERM_ATOL = 1e-10
_EIG_FLOOR = -1e-10
_EIG_CUT = 1e-12
#: pair coefficients at or below this are zero, and so are differences
#: between them: it splits off the kernel of the pair normal form, joins
#: coefficients into degenerate clusters, and bounds the block check
_Z_FLOOR = 1e-8
#: the smallest ``tol`` :func:`is_separable` takes; occupations carry rounding near 1e-15
SEPARABILITY_TOL_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """A trace-one Hermitian positive matrix with validated invariants.

    ``spectrum`` holds the ascending eigenvalues computed by the positivity
    check; :func:`von_neumann_entropy` reads them instead of recomputing.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantBreachError("density matrix must be square")
        # each test is written so that NaN fails it
        if not np.abs(mat - mat.conj().T).max() <= _HERM_ATOL:
            raise InvariantBreachError("density matrix is not Hermitian")
        if not abs(np.trace(mat).real - 1.0) <= _HERM_ATOL:
            raise InvariantBreachError("density matrix trace must be one")
        lam = np.linalg.eigvalsh(mat)
        if not np.min(lam) >= _EIG_FLOOR:
            raise InvariantBreachError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "spectrum", lam)


def binary_entropy(p: float) -> float:
    """Shannon entropy of (p, 1-p) in bits, with 0 log 0 = 0."""
    p = min(1.0, max(0.0, p))
    out = 0.0
    for q in (p, 1.0 - p):
        if q > _EIG_CUT:
            out -= q * np.log2(q)
    return float(out)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Spectral entropy in bits; tiny negative eigenvalues are clamped to zero.

    A :class:`DensityMatrix` is already validated and brings its spectrum;
    a raw array is checked for Hermiticity and diagonalized here.
    """
    if isinstance(rho, DensityMatrix):
        lam = rho.spectrum
    else:
        mat = np.asarray(rho, dtype=complex)
        if not np.abs(mat - mat.conj().T).max() <= _HERM_ATOL:  # NaN fails too
            raise PreconditionError("entropy requires a Hermitian matrix")
        lam = np.linalg.eigvalsh(mat)
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > _EIG_CUT]
    return float(-(lam * np.log2(lam)).sum())


def _definite_particle_number(state: AnyonState) -> int:
    n = state.particle_number()
    if n is None:
        raise PreconditionError("state mixes particle-number sectors")
    return n


def _check_normalized(state: AnyonState) -> None:
    """Raise PreconditionError if |psi|^2 is off 1 by more than ``NORM_ATOL`` (NaN fails); the table is only read."""
    norm2 = state.norm() ** 2
    if not abs(norm2 - 1.0) <= NORM_ATOL:
        raise PreconditionError(f"the state is not normalized, |psi|^2 = {norm2:.12g}")


def one_body_matrix(state: AnyonState) -> np.ndarray:
    """Raw matrix of ladder bilinears, entry (k, l) = <a+_l a_k>; trace = N."""
    lowered = [apply_annihilate(state, k) for k in range(1, state.m + 1)]
    mat = np.empty((state.m, state.m), dtype=complex)
    for k in range(state.m):
        mat[k, k] = inner_product(lowered[k], lowered[k])
        for l in range(k + 1, state.m):
            val = inner_product(lowered[l], lowered[k])
            mat[k, l] = val
            mat[l, k] = val.conjugate()
    return mat


def one_body_rdm(state: AnyonState) -> DensityMatrix:
    """Trace-one one-body reduced density matrix of a normalized definite-N state.

    An input with |psi|^2 off 1 by more than ``NORM_ATOL`` raises
    PreconditionError naming |psi|^2 before anything is computed.
    """
    _check_normalized(state)
    n = _definite_particle_number(state)
    if n < 1:
        raise PreconditionError("one-body reduction needs at least one particle")
    return DensityMatrix(one_body_matrix(state) / n)


def _trace_weights(phi: float, n: int, slot: int) -> list[complex]:
    """Entry k is W(k) = sum_b C(k, b) C(n-1-k, slot-1-b) conj(q)^b q^(k-b), with q = ``reorder_phase(phi, 1)``.

    A chain's vacuum amplitude is its ket's amplitude times conj(q) to the
    number of inversions of the chain.  In the product of the chains with
    kept modes i < j and the same traced modes in the same order, the
    inversions among the traced modes cancel.  Of the k traced modes
    strictly between i and j, each of the b placed before the kept slot
    leaves conj(q), and each of the others q.  Summed over the orderings
    of the traced modes, the product is A_i conj(A_j) W(k) times
    (slot-1)! (n-slot)!, a factor common to all entries that the
    normalization removes.
    """
    q = reorder_phase(phi, 1)
    qc = q.conjugate()
    return [
        sum(
            math.comb(k, b) * math.comb(n - 1 - k, slot - 1 - b) * qc**b * q ** (k - b)
            for b in range(max(0, slot - n + k), min(k, slot - 1) + 1)
        )
        for k in range(n)
    ]


def particle_trace_rdm(state: AnyonState, keep: str | int = "y") -> DensityMatrix:
    """Single-particle state after tracing out all other particles.

    For two-particle states ``keep`` is ``"x"`` (first slot of the creation
    string; tracing the second injects exchange phases) or ``"y"`` (second
    slot; the traced sum runs with no extra phase).  For general N an
    integer slot 1..N (no bool) may be kept.  The result is trace-normalized.

    Each ket ``occ`` is read once: for every occupied mode i it lands in the
    bucket of its context S = ``occ`` without i, the N-1 traced modes.  Each
    pair i < j in a bucket adds A_i conj(A_j) W(k) to entry (i, j) and the
    conjugate to entry (j, i), with k the number of modes of S strictly
    between i and j (see :func:`_trace_weights`).  The work is the sum of
    the squared bucket sizes, at most nnz N (m-N+1), and no ordering of the
    traced particles is enumerated.  The table goes through
    :func:`~anyonsim.states.prune` first: a ket with |amplitude| at or below
    :data:`~anyonsim.states.PRUNE_EPS` adds nothing, and a non-finite one
    raises.
    """
    n = _definite_particle_number(state)
    if isinstance(keep, str):
        if keep not in ("x", "y"):
            raise PreconditionError("keep must be 'x', 'y', or a slot index")
        if n != 2:
            raise PreconditionError("the x/y form of the trace applies to two-particle states")
        slot = 1 if keep == "x" else 2
    else:
        check_index(keep, "kept slot")
        if keep > n:
            raise PreconditionError(f"kept slot {keep} out of range 1..{n}")
        slot = keep
    weights = _trace_weights(state.phi, n, slot)
    buckets: dict[int, list[tuple[int, complex]]] = {}
    for occ, amp in prune(state.amplitudes).items():
        amp = complex(amp)
        rest = occ
        while rest:
            bit = rest & -rest
            rest ^= bit
            buckets.setdefault(occ ^ bit, []).append((bit.bit_length() - 1, amp))
    acc = [[0j] * state.m for _ in range(state.m)]
    for ctx, entries in buckets.items():
        entries.sort()  # by mode; the modes in a bucket differ, so no amplitudes are compared
        for x, (i, ai) in enumerate(entries):
            acc[i][i] += ai * ai.conjugate() * weights[0]
            for j, aj in entries[x + 1 :]:
                val = ai * aj.conjugate() * weights[(ctx & ((1 << j) - (2 << i))).bit_count()]
                acc[i][j] += val
                acc[j][i] += val.conjugate()
    mat = np.array(acc, dtype=complex)
    tr = np.trace(mat).real
    if tr <= 0.0:
        raise PreconditionError("particle trace of the zero vector")
    return DensityMatrix(mat / tr)


class MinimalEntropyModes(NamedTuple):
    """Eigenmodes of the sector-invariant one-body matrix.

    ``mode_basis`` holds one mode per column (descending occupation);
    ``occupations`` are the per-mode eigenvalues in [0, 1], whose binary
    entropies sum to ``e_sp``.
    """

    mode_basis: np.ndarray
    e_sp: float
    occupations: np.ndarray


def minimal_entropy_modes(state: AnyonState) -> MinimalEntropyModes:
    """Mode representation minimizing the summed per-mode binary entropy.

    Computed from the fermionic-sector one-body matrix, whose eigenvalues
    are independent of the statistics tag of the input.  An input with
    |psi|^2 off 1 by more than ``NORM_ATOL`` raises PreconditionError naming
    |psi|^2 before anything is computed.
    """
    _check_normalized(state)
    _definite_particle_number(state)
    mat = one_body_matrix(fermionize(state))
    evals, evecs = np.linalg.eigh(mat)
    order = np.argsort(evals)[::-1]
    evals = evals[order].real
    evecs = evecs[:, order]
    if np.min(evals) < _EIG_FLOOR or np.max(evals) > 1.0 - _EIG_FLOOR:
        raise InvariantBreachError("mode occupations must lie in [0, 1]")
    occ = np.clip(evals, 0.0, 1.0)
    e_sp = float(sum(binary_entropy(p) for p in occ))
    return MinimalEntropyModes(evecs, e_sp, occ)


@dataclass(frozen=True)
class TwoParticleCoefficients:
    """Antisymmetric coefficient matrix of a two-particle state.

    Entry (i, j) with i < j is the amplitude on the configuration with
    modes i and j occupied (increasing-order basis), extended
    antisymmetrically; squared entries over i < j sum to one for a
    normalized state.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        if not np.abs(mat + mat.T).max() <= 1e-12:  # NaN fails too
            raise InvariantBreachError("pair-coefficient matrix must be antisymmetric")
        total = float(np.sum(np.abs(mat) ** 2)) / 2.0
        if not abs(total - 1.0) <= 1e-10:
            raise InvariantBreachError("pair coefficients must carry unit norm")


@dataclass(frozen=True)
class SlaterDecomposition:
    """Normal form of a two-particle state as elementary pair excitations.

    ``mode_unitary @ C @ mode_unitary.T`` is block diagonal with 2 x 2
    antisymmetric blocks carrying the coefficients ``z`` (descending,
    nonnegative, squares summing to one).  Row 2k-1 and row 2k of
    ``mode_unitary`` define the dressed pair of modes for z_k: the state
    equals ``sum_k z_k g+_{2k-1} g+_{2k} |vac>`` with
    ``g+_r = sum_i conj(mode_unitary[r-1, i-1]) a+_i``.
    """

    mode_unitary: np.ndarray
    z: np.ndarray
    rank: int


def two_particle_coefficients(state: AnyonState) -> TwoParticleCoefficients:
    """Extract the antisymmetric pair matrix from a two-particle state.

    A state with |psi|^2 off 1 by more than ``NORM_ATOL`` raises
    PreconditionError, after the matrix is built, so that a NaN table
    still fails its antisymmetry invariant first.
    """
    n = _definite_particle_number(state)
    if n != 2:
        raise PreconditionError(f"pair coefficients require exactly two particles, got {n}")
    psi = fermionize(state).normalized()
    mat = np.zeros((state.m, state.m), dtype=complex)
    for occ, amp in psi.amplitudes.items():
        i = (occ & -occ).bit_length()  # lowest occupied mode
        j = occ.bit_length()  # highest occupied mode
        mat[i - 1, j - 1] = amp
        mat[j - 1, i - 1] = -amp
    coeffs = TwoParticleCoefficients(mat)
    _check_normalized(state)
    return coeffs


def _pair_block_rows(c: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of a unitary bringing an antisymmetric matrix to 2x2-block form, and the pair count.

    Deflates ``space``, orthonormal columns spanning what no row covers yet.
    A pair round takes the SVD of C on the space; its values come in equal
    pairs, one per coefficient z, taken two at a time.  The leading cluster,
    treated as degenerate, takes each next pair led by a value above
    ``_Z_FLOOR`` and within it of the previous pair's last.  The row u is
    seeded at the earliest axis the cluster touches; its partner is
    C+ conj(u) on the whole space, made orthogonal to u, so u^T C partner
    = z and C couples the pair to no other row.  Once no pair is left above
    ``_Z_FLOOR``, the kernel rows are seeded at the earliest axis the space
    touches, with no SVD of C.
    """
    space = np.eye(c.shape[0], dtype=complex)
    rows: list[np.ndarray] = []
    n_pairs = 0
    pairing = True
    while space.shape[1]:
        seeds = space
        if pairing:
            _, sing, vh = np.linalg.svd(c @ space, full_matrices=False)
            pairing = sing[0] > _Z_FLOOR
        if pairing:
            hi = 2
            while hi + 1 < len(sing) and _Z_FLOOR < sing[hi] and sing[hi - 1] - sing[hi] <= _Z_FLOOR:
                hi += 2
            seeds = space @ vh[:hi].conj().T
        k = int(np.argmax(np.einsum("ij,ij->i", seeds, seeds.conj()).real > 1e-9))
        u = seeds @ seeds[k].conj()
        u /= math.sqrt(np.vdot(u, u).real)
        found = [u]
        if pairing:
            w = space @ (space.conj().T @ (c.conj().T @ u.conj()))
            nr = math.sqrt(np.vdot(w, w).real)
            w -= np.vdot(u, w) * u
            nw = math.sqrt(np.vdot(w, w).real)
            if not (nr >= 0.5 * sing[0] and nw >= 0.5 * nr):
                raise InvariantBreachError("pairing partner collapsed; antisymmetric structure violated")
            found.append(w / nw)
            n_pairs += 1
            pairing = len(sing) > 3 and sing[2] > _Z_FLOOR
        rows.extend(found)
        if len(found) == space.shape[1]:
            break  # the rows fill the space: nothing is left to deflate
        new = np.array(found)
        rest = space - new.T @ (new.conj() @ space)
        left, sv, _ = np.linalg.svd(rest, full_matrices=False)
        space = left[:, sv > 0.5]
        if space.shape[1] != rest.shape[1] - len(found):
            raise InvariantBreachError("deflation lost orthogonal directions")
    return np.array(rows), n_pairs


def slater_decompose(state: AnyonState, rank_tol: float = _Z_FLOOR) -> SlaterDecomposition:
    """Pair normal form of a two-particle state.

    The coefficients equal those of the fermionic-sector counterpart with
    the same amplitude table, so they are independent of the statistics
    tag.  The returned coefficients are read off the transformed matrix,
    not from the singular values, so the two routes stay independent.
    The pair rows of the transformed matrix must match the block form to
    ``_Z_FLOOR``; the kernel block holds only singular values at or below
    it, which the floor calls zero.  The rank is the fewest leading pairs
    whose tail sqrt(sum_{k>rank} z_k^2) is at most ``rank_tol``; at the
    default every returned coefficient exceeds it, so all of them count.
    A ``rank_tol`` that is negative or not finite raises PreconditionError.
    """
    check_tol("rank_tol", rank_tol)
    coeffs = two_particle_coefficients(state)
    c = coeffs.matrix
    u_mat, n_pairs = _pair_block_rows(c)
    z_form = u_mat @ c @ u_mat.T
    z = np.array([z_form[2 * k, 2 * k + 1].real for k in range(n_pairs)])
    check = z_form[: 2 * n_pairs].copy()
    for k in range(n_pairs):
        check[2 * k, 2 * k + 1] -= z[k]
        check[2 * k + 1, 2 * k] += z[k]
    if np.abs(check).max() > _Z_FLOOR or (len(z) > 0 and np.min(z) < -1e-12):
        raise InvariantBreachError("block-diagonalization of the pair matrix failed")
    order = np.argsort(z)[::-1]
    perm: list[int] = []
    for k in order:
        perm.extend([2 * k, 2 * k + 1])
    perm.extend(range(2 * n_pairs, state.m))
    u_mat = u_mat[perm]
    z = np.clip(z[order], 0.0, None)
    tails = np.sqrt(np.cumsum(z[::-1] ** 2)[::-1])  # tails[r] = sqrt(sum_{k>=r} z_k^2), 0-based
    rank = int(np.sum(tails > rank_tol))
    return SlaterDecomposition(u_mat, z, rank)


def reconstruct_from_slater(dec: SlaterDecomposition, m: int) -> AnyonState:
    """Rebuild sum_k z_k g+_{2k-1} g+_{2k} |vac> in the fermionic sector.

    The determinant engine rotates the table ``{a+_{2k-1} a+_{2k}|vac>: z_k}``
    by ``mode_unitary^H``.  ``m`` must be the decomposition's mode count.
    """
    if m != len(dec.mode_unitary):
        raise PreconditionError(f"decomposition is over {len(dec.mode_unitary)} modes, not {m}")
    table = {3 << 2 * k: complex(zk) for k, zk in enumerate(dec.z)}
    return AnyonState(m, 0.0, _evolve_nc_block(table, SingleParticleUnitary(dec.mode_unitary.conj().T)))


@dataclass(frozen=True)
class SeparabilityReport:
    """Verdict plus the witness mode basis that diagonalizes the one-body matrix."""

    separable: bool
    occupations: np.ndarray
    mode_basis: np.ndarray
    e_sp: float
    slater_rank: int | None


def check_separability_tol(name: str, tol: float) -> None:
    """Raise PreconditionError naming ``tol`` unless it is a tolerance :func:`is_separable` can decide with.

    It must pass :func:`~anyonsim.states.check_tol` (finite and
    nonnegative) and lie in ``[SEPARABILITY_TOL_FLOOR, 1)``: below the
    floor the rounding of the occupations alone reads as entanglement, and
    at 1 or above every occupation in [0, 1] lies within ``tol`` of both 0
    and 1.
    """
    check_tol(name, tol)
    if not SEPARABILITY_TOL_FLOOR <= tol < 1.0:
        raise PreconditionError(f"{name} must lie in [{SEPARABILITY_TOL_FLOOR:g}, 1) to decide separability, got {tol}")


def is_separable(state: AnyonState, tol: float = 1e-8) -> SeparabilityReport:
    """Decide whether a definite-N state is a dressed Fock configuration.

    True iff the N largest occupation eigenvalues of the minimal-entropy
    mode representation lie within ``tol`` of 1 and the rest within
    ``tol`` of 0.  For two particles the verdict is cross-checked against
    the pair normal form (a single coefficient iff separable);
    disagreement raises, since the two criteria are equivalent.  The
    reported Slater rank is the one cross-checked: the occupations of the
    pair modes are z_k^2, each twice, and sum_k z_k^2 = 1, so the state is
    separable iff sum_{k>=2} z_k^2 <= ``tol``, and the rank is taken with
    ``rank_tol`` = sqrt(``tol``) on that tail, which makes it 1 exactly
    then.  A ``tol`` outside ``[SEPARABILITY_TOL_FLOOR, 1)`` or not finite
    raises PreconditionError (:func:`check_separability_tol`), and so does
    an input with |psi|^2 off 1 by more than ``NORM_ATOL``, before either
    verdict is computed.
    """
    check_separability_tol("tol", tol)
    modes = minimal_entropy_modes(state)
    n = state.particle_number()
    occ = modes.occupations  # descending
    sep = bool(np.all(np.abs(occ[:n] - 1.0) <= tol) and np.all(occ[n:] <= tol))
    rank: int | None = None
    if n == 2:
        rank = slater_decompose(state, rank_tol=float(np.sqrt(tol))).rank
        if (rank == 1) != sep:
            raise InvariantBreachError(f"pair normal form (rank {rank}) disagrees with mode occupations {modes.occupations}")
    return SeparabilityReport(sep, modes.occupations, modes.mode_basis, modes.e_sp, rank)
