"""Second-quantized operator expressions with diagonal number strings.

An :class:`OperatorExpr` is a sum of :class:`LadderTerm` values.  Each term
is ``coefficient * (ordered ladder factors) * exp(i * sum_k w_k n_k)`` with
the diagonal number-string factor acting first (rightmost).  Keeping every
term in this trailing-diagonal canonical form makes products, adjoints and
statistics transmutation purely mechanical: commuting a diagonal rightward
through a ladder factor only shifts the weight seen at that factor's mode
by one unit, which contributes a scalar phase.

Every action of an expression's term on a basis ket goes through one
kernel, :func:`_act`, and every term has one form, :func:`_term_shape`: bit
masks for which kets it acts on, the ket it sends each to and per factor
the modes below it, with its coefficient and weights.  The dense engine's
orbit walk, :func:`anyonsim.optics._orbit_plan`, reads only the masks.  The
single ladder operators :func:`~anyonsim.states.apply_create` and
:func:`~anyonsim.states.apply_annihilate` keep their own loops and do not
go through :func:`_act`.
A factor that crosses ``c`` occupied modes contributes the reordering phase
``-exp(-i*phi)`` to the power ``c`` (conjugated for an annihilator), with
``0 <= c < m``; each caller of :func:`_act` builds a table of
:func:`~anyonsim.states.reorder_phase` over ``c = 0..m-1`` and its
conjugates once per call (:func:`_phase_tables`).  The table holds the very
values a call per factor would return, and :func:`_act` multiplies them in
the same order, so every matrix element and amplitude keeps its bits.
Nothing is kept across calls, so the table follows ``states._REORDER_SIGN``
as the exchange-relation audit sets it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvariantBreachError, PreconditionError
from .states import AnyonState, check_index, check_mode_count, prune, reorder_phase

CREATE = "create"
ANNIHILATE = "annihilate"
_FLIP = {CREATE: ANNIHILATE, ANNIHILATE: CREATE}


def _clean_weights(weights: Mapping[int, float]) -> dict[int, float]:
    return {mode: float(w) for mode, w in weights.items() if abs(w) > 1e-15}


@dataclass(frozen=True)
class LadderTerm:
    """``coefficient * factor_1 ... factor_p * exp(i sum_k w_k n_k)``.

    ``factors`` are (mode, kind) pairs written left to right, so the last
    factor acts on a ket first, after the diagonal string.
    """

    coefficient: complex
    factors: tuple[tuple[int, str], ...] = ()
    weights: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        wide = False  # some mode is of an integer type such as np.int64: store them all as int
        for mode, kind in self.factors:
            if kind not in (CREATE, ANNIHILATE):
                raise PreconditionError(f"unknown ladder kind {kind!r}")
            wide |= check_index(mode) is not mode
        for mode in self.weights:
            wide |= check_index(mode) is not mode
        if wide:
            object.__setattr__(self, "factors", tuple((check_index(mode), kind) for mode, kind in self.factors))
            object.__setattr__(self, "weights", {check_index(mode): w for mode, w in self.weights.items()})


def term_product(t1: LadderTerm, t2: LadderTerm) -> LadderTerm:
    """Canonical-form product t1 * t2 (t2 acts first)."""
    coeff = t1.coefficient * t2.coefficient
    # push t1's trailing diagonal rightward through t2's ladder factors
    for mode, kind in t2.factors:
        w = t1.weights.get(mode, 0.0)
        if w:
            coeff *= cmath.exp(1j * w) if kind == CREATE else cmath.exp(-1j * w)
    weights = dict(t2.weights)
    for mode, w in t1.weights.items():
        weights[mode] = weights.get(mode, 0.0) + w
    return LadderTerm(coeff, t1.factors + t2.factors, _clean_weights(weights))


def term_adjoint(t: LadderTerm) -> LadderTerm:
    factors_dag = tuple((mode, _FLIP[kind]) for mode, kind in reversed(t.factors))
    coeff = t.coefficient.conjugate() if isinstance(t.coefficient, complex) else complex(t.coefficient).conjugate()
    # the negated diagonal starts on the left; push it through the flipped factors
    for mode, kind in factors_dag:
        w = -t.weights.get(mode, 0.0)
        if w:
            coeff *= cmath.exp(1j * w) if kind == CREATE else cmath.exp(-1j * w)
    weights = {mode: -w for mode, w in t.weights.items()}
    return LadderTerm(coeff, factors_dag, _clean_weights(weights))


@dataclass(frozen=True)
class OperatorExpr:
    """A finite sum of ladder terms over m modes; action is linear."""

    m: int
    terms: tuple[LadderTerm, ...] = ()

    def __post_init__(self) -> None:
        m = check_mode_count(self.m)
        if m is not self.m:  # an integer type such as np.int64, stored as int
            object.__setattr__(self, "m", m)
        for t in self.terms:  # LadderTerm checked each mode is an index
            for mode, _ in t.factors:
                if mode > m:
                    raise PreconditionError(f"mode index {mode} out of range 1..{m}")
            for mode in t.weights:
                if mode > m:
                    raise PreconditionError(f"mode index {mode} out of range 1..{m}")

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if self.m != other.m:
            raise PreconditionError("cannot add expressions over different mode counts")
        return OperatorExpr(self.m, self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scaled(-1.0)

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            if self.m != other.m:
                raise PreconditionError("cannot multiply expressions over different mode counts")
            return OperatorExpr(
                self.m,
                tuple(term_product(t1, t2) for t1 in self.terms for t2 in other.terms),
            )
        return self.scaled(other)

    def __rmul__(self, other):
        return self.scaled(other)

    def scaled(self, c: complex) -> "OperatorExpr":
        return OperatorExpr(self.m, tuple(LadderTerm(c * t.coefficient, t.factors, dict(t.weights)) for t in self.terms))

    def adjoint(self) -> "OperatorExpr":
        return OperatorExpr(self.m, tuple(term_adjoint(t) for t in self.terms))


def identity_expr(m: int) -> OperatorExpr:
    return OperatorExpr(m, (LadderTerm(1.0 + 0.0j),))


def creation(m: int, i: int) -> OperatorExpr:
    return OperatorExpr(m, (LadderTerm(1.0 + 0.0j, ((i, CREATE),)),))


def annihilation(m: int, i: int) -> OperatorExpr:
    return OperatorExpr(m, (LadderTerm(1.0 + 0.0j, ((i, ANNIHILATE),)),))


def number(m: int, i: int, coefficient: complex = 1.0 + 0.0j) -> OperatorExpr:
    """``coefficient`` times the number operator a+_i a_i."""
    return OperatorExpr(m, (LadderTerm(coefficient, ((i, CREATE), (i, ANNIHILATE))),))


def hopping(m: int, i: int, j: int, coefficient: complex = 1.0 + 0.0j) -> OperatorExpr:
    """``coefficient`` times the hop a+_i a_j + a+_j a_i (Hermitian for a real coefficient)."""
    return OperatorExpr(
        m,
        (
            LadderTerm(coefficient, ((i, CREATE), (j, ANNIHILATE))),
            LadderTerm(coefficient, ((j, CREATE), (i, ANNIHILATE))),
        ),
    )


def pair_source(m: int, i: int, j: int, coefficient: complex = 1.0 + 0.0j) -> OperatorExpr:
    """``coefficient`` times the pair term a+_i a+_j + a_j a_i (Hermitian for a real coefficient)."""
    return OperatorExpr(
        m,
        (
            LadderTerm(coefficient, ((i, CREATE), (j, CREATE))),
            LadderTerm(coefficient, ((j, ANNIHILATE), (i, ANNIHILATE))),
        ),
    )


def _term_shape(term: LadderTerm) -> tuple | None:
    """Which kets a term acts on, where it sends them and what it multiplies them by; None if it acts on none.

    Returns ``(mask, need, flip, steps, coefficient, weights)``.  The term
    acts on ``occ`` exactly when ``occ & mask == need``: ``mask`` holds
    the modes its factors touch and ``need`` those that must be occupied
    before it acts (read factor by factor from the right: a creator needs
    its mode empty, an annihilator needs it occupied).  It sends ``occ``
    to ``occ ^ flip``.  A term such as ``a_i a_i`` acts on no ket.

    ``steps`` lists ``(below, offset, creates)`` in the order the factors
    act.  The factor's crossing count, the number of modes below it that
    are occupied when it acts, is ``(occ & below).bit_count() + offset``:
    ``below`` holds the modes below it that the term does not touch, and
    ``offset`` counts the touched modes below it that are occupied at that
    point, which ``need`` fixes; ``creates`` (1 or 0) picks its phase table.
    ``weights`` lists ``(bit, w)`` in the term's own order.
    """
    factors = [(1 << (mode - 1), kind == CREATE) for mode, kind in reversed(term.factors)]
    mask = need = 0
    for bit, creates in factors:
        if not mask & bit:
            mask |= bit
            need |= 0 if creates else bit
    now = need  # the touched modes occupied when the next factor acts
    steps = []
    for bit, creates in factors:
        if bool(now & bit) == creates:
            return None
        # creates as an int: indexing a tuple with a bool leaves CPython's fast path
        steps.append(((bit - 1) & ~mask, (now & (bit - 1)).bit_count(), int(creates)))
        now ^= bit
    weights = [(1 << (mode - 1), w) for mode, w in term.weights.items()]
    return mask, need, need ^ now, steps, term.coefficient, weights


def _phase_tables(m: int, phi: float) -> tuple[list[complex], list[complex]]:
    """``(conjugates, phases)`` of ``reorder_phase(phi, c)`` over ``c = 0..m-1``, indexed by a step's ``creates``; built per call."""
    plain = [reorder_phase(phi, c) for c in range(m)]
    return [p.conjugate() for p in plain], plain


def _act(occ: int, amp: complex, shape: tuple, tables: tuple) -> tuple[int, complex] | None:
    """The ket and amplitude a term sends ``amp |occ>`` to, or None when it kills ``occ``.

    ``shape`` is the term's :func:`_term_shape` and ``tables`` the
    caller's :func:`_phase_tables`.  The products are formed in the order
    ``((amp * coefficient) * exp(i * sum w)) * phase_1 * phase_2 ...``,
    with the factors' phases in the order the factors act.
    """
    mask, need, flip, steps, coefficient, weights = shape
    if occ & mask != need:
        return None
    a = amp * coefficient
    if weights:
        diag = 0.0
        for bit, w in weights:
            if occ & bit:
                diag += w
        if diag:
            a *= cmath.exp(1j * diag)
    for below, offset, creates in steps:
        a *= tables[creates][(occ & below).bit_count() + offset]
    return occ ^ flip, a


def apply_operator_expr(state: AnyonState, expr: OperatorExpr) -> AnyonState:
    """Linear action of an operator expression on a state."""
    if expr.m != state.m:
        raise PreconditionError(f"operator is over {expr.m} modes, state over {state.m}")
    tables = _phase_tables(expr.m, state.phi)
    out: dict[int, complex] = {}
    for shape in filter(None, map(_term_shape, expr.terms)):
        for occ, amp in state.amplitudes.items():
            res = _act(occ, amp, shape, tables)
            if res is not None:
                out[res[0]] = out.get(res[0], 0.0) + res[1]
    return AnyonState(state.m, state.phi, prune(out))


def operator_matrix(expr: OperatorExpr, phi: float, basis: Iterable[int]) -> np.ndarray:
    """Dense matrix of ``expr`` on an ordered basis of occupation bitmasks.

    The basis must be closed under the action of ``expr``; leakage raises.
    """
    basis = list(basis)
    index = {occ: k for k, occ in enumerate(basis)}
    shapes = list(filter(None, map(_term_shape, expr.terms)))
    tables = _phase_tables(expr.m, phi)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, occ in enumerate(basis):
        for shape in shapes:
            res = _act(occ, 1.0 + 0.0j, shape, tables)
            if res is None:
                continue
            row = index.get(res[0])
            if row is None:
                if abs(res[1]) > 1e-12:
                    raise InvariantBreachError("operator leaks out of the supplied basis")
                continue
            mat[row, col] += res[1]
    return mat
