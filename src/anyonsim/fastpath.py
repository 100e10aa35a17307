"""Polynomial-time amplitudes for the classically simulable circuit family.

Circuits built from phase shifters, nearest-neighbour beam splitters and
mode swaps compile to a single m x m transfer matrix; a Fock matrix element
between N-particle configurations is then the determinant of the N x N
submatrix with rows picked by the output configuration and columns by the
input one (both in increasing mode order, matching the basis convention of
:mod:`anyonsim.states`, so no extra permutation sign appears).  Because the
family is invariant under statistics transmutation, the same numbers are
the amplitudes in every phi sector.

Minors are evaluated only inside each input's light cone: the rows where
its transfer-matrix columns are nonzero (a shallow nearest-neighbour
circuit has a banded transfer matrix, so a particle reaches few modes).
Of the row sets inside the cone, only those that meet every input column
are evaluated, as stacked determinants: one ``np.linalg.det`` call per
chunk of (input, row set) pairs.  This is exact: every skipped minor has a
zero row or a zero column, LU returns exactly +-0 for it once the transfer
matrix has no subnormal part, and adding +-0 leaves a running total's bits
unchanged, so the table is bit for bit that of the full C(m, N)
enumeration.  A row that is the only live row of some column of every
input of a sector is forced: a row set without it has a zero column for
every input, so its amplitude is exactly 0 and it is never enumerated.
Target row sets stream from the union of a sector's cones, each the forced
rows F plus N - |F| other rows; inserting the same rows into every set
keeps the lexicographic order, and with it the bits.  A block of row sets
keeps its (input, row set, row) cone test within ``_BLOCK_CELLS`` cells
(one row set at least), and its pairs go to ``np.linalg.det``
``_DET_CHUNK`` at a time.  The budget counts this
reduced enumeration: a segment that would enumerate more than
``_MINOR_BUDGET`` row sets, C(|union| - |F|, N - |F|), or evaluate more
minors than that, the sum over the inputs of C(|cone| - |F|, N - |F|), is
refused with :class:`~anyonsim.errors.PreconditionError`.  A right-edge
staircase ``BS(20, 21)`` ... ``BS(39, 40)`` on 20 particles in 40 modes
forces 19 rows and evaluates 21 minors out of C(40, 20).

Every other single-particle rotation (``apply_induced_bogoliubov`` with
V = 0, ``reconstruct_from_slater``) runs here too, through
:func:`_rotate_table`, under the same light cone and minor budget.

``PA(1, 2)`` is also admitted: its action is dense but strictly local to
the two lowest modes (they have no modes to their left), so evolution
composes determinant blocks with a 2 x 2 rotation on the {empty, doubly
occupied} pair space.  Any other pairing gate, and any distant beam
splitter, is rejected; those circuits are served by the dense engine.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations, groupby, islice
from typing import Mapping

import numpy as np

from .errors import FamilyMismatchError, InvariantBreachError, ParticleNumberMismatch, PreconditionError
from .optics import Circuit, GateElement, check_fits
from .states import AnyonState, check_norm_kept, check_occs, prune

_UNITARY_ATOL = 1e-10
#: (input, row set) pairs per stacked determinant call in :func:`_evolve_nc_block`
_DET_CHUNK = 1024
#: most (input, row set, row) cells in one block of :func:`_sector_blocks`
_BLOCK_CELLS = 64 * _DET_CHUNK
#: most minors one compiled segment may evaluate, about 20 s of 7 x 7 determinants
_MINOR_BUDGET = 10**7
#: smallest normal float; smaller transfer-matrix parts are flushed to zero
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SingleParticleUnitary:
    """Transfer matrix of a number-conserving circuit on creation operators."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        u = self.matrix
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise InvariantBreachError("transfer matrix must be square")
        dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        if not dev <= _UNITARY_ATOL:  # NaN fails too
            raise InvariantBreachError(f"transfer matrix is not unitary (deviation {dev:.3e})")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def _gate_entries(gate: GateElement) -> tuple[tuple[int, int, complex], ...]:
    """The (row, column, value) entries, 0-based, where a PS, BS or FSWAP that :func:`check_family` has admitted differs from the identity."""
    a = gate.i - 1
    if gate.kind == "PS":
        return ((a, a, cmath.exp(1j * gate.theta)),)
    b = gate.j - 1
    if gate.kind == "BS":
        c, s = np.cos(gate.theta), np.sin(gate.theta)
        return ((a, a, c), (b, b, c), (a, b, 1j * s), (b, a, 1j * s))
    return ((a, a, 0.0), (b, b, 0.0), (a, b, 1.0), (b, a, 1.0))


def check_family(circuit: Circuit) -> None:
    """Raise FamilyMismatchError naming the first out-of-family gate: a distant BS, or a PA other than PA(1,2)."""
    for gate in circuit.gates:
        if gate.kind in ("PS", "FSWAP"):
            continue
        if gate.kind == "BS":
            if abs(gate.i - gate.j) != 1:
                raise FamilyMismatchError(f"{gate.label()}: distant beam splitters are out of family")
            continue
        # a PA: only the ordered pair (1, 2) keeps the same form in every
        # sector; the reversed ordering picks up a sector-dependent pair phase
        if (gate.i, gate.j) != (1, 2):
            raise FamilyMismatchError(f"{gate.label()}: pairing gates other than PA(1,2) are out of family")


def compile_single_particle(circuit: Circuit) -> SingleParticleUnitary:
    """Fold a number-conserving circuit into one transfer matrix.

    A circuit :func:`check_family` refuses, or one holding a PA gate, which
    has no single-particle transfer matrix, raises FamilyMismatchError.
    Gates compose left to right: the first listed gate multiplies first.
    One identity buffer serves the whole segment: each gate writes its
    entries into it, multiplies the running total by all of it, and puts
    the identity back.  Real and imaginary parts below the smallest normal
    float are set to 0.
    """
    check_family(circuit)
    t = np.eye(circuit.m, dtype=complex)
    total = t.copy()
    for gate in circuit.gates:
        if gate.kind == "PA":
            raise FamilyMismatchError(f"{gate.label()}: a pairing gate has no single-particle transfer matrix")
        entries = _gate_entries(gate)
        for r, c, value in entries:
            t[r, c] = value
        total = t @ total
        for r, c, _ in entries:
            t[r, c] = 1.0 if r == c else 0.0
    return _flushed(total)


def _flushed(t: np.ndarray) -> SingleParticleUnitary:
    """A copy of ``t`` with real and imaginary parts below the smallest normal float set to 0."""
    t = np.array(t, dtype=complex)
    # LAPACK's LU gives NaN for a singular minor holding a subnormal entry
    # (det([[0, 0], [2.2e-313j, 1]]) is NaN); flush such parts to zero
    for part in (t.real, t.imag):
        part[np.abs(part) < _TINY] = 0.0
    return SingleParticleUnitary(t)


def _occupied(occ: int, m: int) -> list[int]:
    """Occupied modes of a configuration, 0-based and increasing: a minor's row or column order."""
    return [k for k in range(m) if occ >> k & 1]


def amplitude_number_conserving(u: SingleParticleUnitary, x: int, y: int) -> complex:
    """Matrix element <y|circuit|x> via the determinant of a submatrix.

    Configurations with different particle numbers have amplitude zero;
    that case is flagged with a :class:`ParticleNumberMismatch` warning.
    Raises PreconditionError for a bitmask outside ``0 <= x < 2**m``.
    """
    check_occs(u.m, (x, y))
    n_x, n_y = x.bit_count(), y.bit_count()
    if n_x != n_y:
        warnings.warn(
            f"configurations carry {n_x} and {n_y} particles; amplitude is identically zero",
            ParticleNumberMismatch,
            stacklevel=2,
        )
        return 0.0 + 0.0j
    if n_x == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(u.matrix[:, _occupied(x, u.m)][_occupied(y, u.m)]))


def _sector_blocks(cones: np.ndarray, forced: np.ndarray, n: int):
    """Target row sets of one particle-number sector, and the (input, target) pairs to evaluate.

    ``cones[i]`` is input ``i``'s light cone as a boolean row mask, and
    ``forced`` the rows every row set holds: increasing, and inside every
    cone.  Yields ``(rows, who, at)``: a block of target row sets, each the
    forced rows plus N - |forced| other rows of the cones' union, streamed
    in lexicographic order, and the pairs whose target ``rows[at]`` lies
    inside input ``who``'s cone, grouped by input in table order.  A block
    holds as many row sets as keep its (input, row set, row) cone test
    within ``_BLOCK_CELLS`` cells.
    """
    dtype = np.min_scalar_type(cones.shape[1])
    pinned = forced.astype(dtype)
    free = cones.any(axis=0)
    free[forced] = False
    free_rows, k = np.flatnonzero(free).tolist(), n - len(forced)
    flat = chain.from_iterable(combinations(free_rows, k))
    count = math.comb(len(free_rows), k)
    per_block = max(1, _BLOCK_CELLS // (len(cones) * n))
    for start in range(0, count, per_block):
        size = min(per_block, count - start)
        rows = np.fromiter(islice(flat, size * k), dtype=dtype, count=size * k).reshape(size, k)
        # the forced rows lie in every cone, so the other rows decide the test
        who, at = np.nonzero(cones[:, rows].all(axis=2))
        if len(pinned):
            rows = np.sort(np.hstack((rows, np.broadcast_to(pinned, (size, len(pinned))))), axis=1)
        yield rows, who, at


def _evolve_nc_block(table: dict[int, complex], u: SingleParticleUnitary) -> dict[int, complex]:
    """Apply a compiled segment to every particle-number sector of a table.

    Only the row sets that hold the sector's forced rows F, lie inside an
    input's light cone and meet every input column are evaluated (see the
    module docstring for why that is exact).  Each target's amplitude
    accumulates over the inputs in table order, and targets come out in
    lexicographic order within each sector, as the full enumeration gives
    them.  Output bitmasks are summed as Python ints, so any ``m`` works.

    Raises InvariantBreachError if ``u`` has a subnormal part, and
    PreconditionError, before evaluating anything, if the segment would
    enumerate more than ``_MINOR_BUDGET`` minors: per sector, the larger of
    C(|union of the cones| - |F|, N - |F|) and the sum over the inputs of
    C(|cone| - |F|, N - |F|).
    """
    m = u.m
    parts = np.abs(np.stack([u.matrix.real, u.matrix.imag]))
    if parts[parts < _TINY].any():
        # LU can turn a minor holding a subnormal entry into NaN, and the
        # skipped minors would no longer be exactly zero
        raise InvariantBreachError(
            "transfer matrix has a subnormal part, for which a minor's determinant may be not finite"
        )
    by_n: dict[int, list[int]] = {}
    for occ in table:
        by_n.setdefault(occ.bit_count(), []).append(occ)
    sectors = {}
    work = 0
    for n, occs in by_n.items():
        if n:
            cols = u.matrix[:, [_occupied(occ, m) for occ in occs]].transpose(1, 0, 2)  # (input, row, column)
            live = cols != 0.0
            cones = live.any(axis=2)
            # each row's live columns as packed bits: a row set meets every
            # column when the OR of its rows' bits is all ones
            hits = np.packbits(live, axis=2)
            pins = live & (live.sum(axis=1) == 1)[:, None, :]  # the one live row of a column
            forced = np.flatnonzero(pins.any(axis=2).all(axis=0))
            sectors[n] = (cols, hits, cones, forced)
            f = len(forced)
            work += max(
                math.comb(int(cones.any(axis=0).sum()) - f, n - f),
                sum(math.comb(k - f, n - f) for k in cones.sum(axis=1).tolist()),
            )
    if work > _MINOR_BUDGET:
        raise PreconditionError(
            f"the fast path would enumerate {work} minors for one segment, over the budget of {_MINOR_BUDGET}"
        )
    bits = np.array([1 << k for k in range(m)], dtype=object)
    out: dict[int, complex] = {}
    for n, occs in by_n.items():
        if n == 0:
            for occ in occs:
                out[occ] = out.get(occ, 0.0) + table[occ]
            continue
        cols, hits, cones, forced = sectors[n]
        every_column = np.packbits(np.ones(n, dtype=bool))
        amps = np.array([table[occ] for occ in occs], dtype=complex)
        for rows, who, at in _sector_blocks(cones, forced, n):
            totals = np.zeros(len(rows), dtype=complex)
            for start in range(0, len(who), _DET_CHUNK):
                w, a = who[start : start + _DET_CHUNK], at[start : start + _DET_CHUNK]
                picked = rows[a]
                covered = (np.bitwise_or.reduce(hits[w[:, None], picked], axis=1) == every_column).all(axis=1)
                w, a = w[covered], a[covered]
                d = np.linalg.det(cols[w[:, None], picked[covered]])
                # real arithmetic rounds each product as a scalar complex
                # multiply does; numpy's vector complex multiply may not;
                # add.at adds repeated slots in pair order, so in table order
                re, im = amps.real[w], amps.imag[w]
                np.add.at(totals.real, a, re * d.real - im * d.imag)
                np.add.at(totals.imag, a, re * d.imag + im * d.real)
            mags = np.abs(totals)
            if not np.isfinite(mags).all():
                raise InvariantBreachError(f"a determinant amplitude of an {n}-particle segment is not finite")
            keep = mags > 0.0  # exact zeros are dropped
            out.update(zip(bits[rows[keep]].sum(axis=1).tolist(), totals[keep].tolist()))
    return out


def _rotate_table(table: dict[int, complex], t: np.ndarray) -> dict[int, complex]:
    """:func:`_evolve_nc_block` for the rotation ``a+_i -> sum_j t[j, i] a+_j``, subnormal parts of ``t`` flushed."""
    return _evolve_nc_block(table, _flushed(t))


def _apply_pa12(table: dict[int, complex], theta: float) -> dict[int, complex]:
    c, s = np.cos(theta), np.sin(theta)
    out: dict[int, complex] = {}
    for occ, amp in table.items():
        local = occ & 3
        if local == 0:
            out[occ] = out.get(occ, 0.0) + c * amp
            out[occ | 3] = out.get(occ | 3, 0.0) + 1j * s * amp
        elif local == 3:
            out[occ] = out.get(occ, 0.0) + c * amp
            out[occ & ~3] = out.get(occ & ~3, 0.0) + 1j * s * amp
        else:
            out[occ] = out.get(occ, 0.0) + amp
    return out


def _evolve_table(table: Mapping[int, complex], circuit: Circuit) -> dict[int, complex]:
    """Each PA(1, 2) gate in place, each maximal run of other gates as one compiled segment; ``table`` is only read."""
    for is_pa, run in groupby(circuit.gates, key=lambda gate: gate.kind == "PA"):
        if is_pa:
            for gate in run:
                table = _apply_pa12(table, gate.theta)
        else:
            segment = Circuit(circuit.m, circuit.phi, tuple(run))
            table = _evolve_nc_block(table, compile_single_particle(segment))
    return prune(table)


def run_circuit_fastpath(state: AnyonState, circuit: Circuit) -> AnyonState:
    """Evolve a state through an in-family circuit without dense exponentials.

    The computation happens on the sector-invariant amplitude table, so the
    result is exact for every phi.  A circuit over other modes or in another
    sector raises PreconditionError (:func:`~anyonsim.optics.check_fits`).
    Raises InvariantBreachError if the squared norm moves, by the rule of
    :func:`~anyonsim.states.check_norm_kept`.
    """
    check_fits(state, circuit)
    check_family(circuit)
    evolved = AnyonState(state.m, state.phi, _evolve_table(state.amplitudes, circuit))
    check_norm_kept(state, evolved)
    return evolved


def anyonic_amplitude_via_fastpath(circuit: Circuit, x: int, y: int) -> complex:
    """Amplitude <y|circuit|x> for an in-family circuit, valid in every sector."""
    if not any(g.kind == "PA" for g in circuit.gates):
        return amplitude_number_conserving(compile_single_particle(circuit), x, y)
    check_family(circuit)  # compile_single_particle checks a PA-free circuit
    check_occs(circuit.m, (x, y))
    evolved = _evolve_table({x: 1.0 + 0.0j}, circuit)
    return complex(evolved.get(y, 0.0))
