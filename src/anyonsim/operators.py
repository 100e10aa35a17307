"""Second-quantized operator expressions with diagonal number strings.

An :class:`OperatorExpr` is a sum of :class:`LadderTerm` values.  Each term
is ``coefficient * (ordered ladder factors) * exp(i * sum_k w_k n_k)`` with
the diagonal number-string factor acting first (rightmost).  Keeping every
term in this trailing-diagonal canonical form makes products, adjoints and
statistics transmutation purely mechanical: commuting a diagonal rightward
through a ladder factor only shifts the weight seen at that factor's mode
by one unit, which contributes a scalar phase.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import InvariantBreachError, PreconditionError
from .states import AnyonState, annihilate_component, create_component, prune

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
        for mode, kind in self.factors:
            if kind not in (CREATE, ANNIHILATE):
                raise PreconditionError(f"unknown ladder kind {kind!r}")
            if mode < 1:
                raise PreconditionError(f"mode index {mode} must be >= 1")


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
        for t in self.terms:
            for mode, _ in t.factors:
                if mode > self.m:
                    raise PreconditionError(f"mode index {mode} out of range 1..{self.m}")
            for mode in t.weights:
                if not 1 <= mode <= self.m:
                    raise PreconditionError(f"weight mode index {mode} out of range 1..{self.m}")

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


def number(m: int, i: int) -> OperatorExpr:
    return OperatorExpr(m, (LadderTerm(1.0 + 0.0j, ((i, CREATE), (i, ANNIHILATE))),))


def hopping(m: int, i: int, j: int) -> OperatorExpr:
    """The Hermitian hop a+_i a_j + a+_j a_i."""
    return OperatorExpr(
        m,
        (
            LadderTerm(1.0 + 0.0j, ((i, CREATE), (j, ANNIHILATE))),
            LadderTerm(1.0 + 0.0j, ((j, CREATE), (i, ANNIHILATE))),
        ),
    )


def pair_source(m: int, i: int, j: int) -> OperatorExpr:
    """The Hermitian pair term a+_i a+_j + a_j a_i."""
    return OperatorExpr(
        m,
        (
            LadderTerm(1.0 + 0.0j, ((i, CREATE), (j, CREATE))),
            LadderTerm(1.0 + 0.0j, ((j, ANNIHILATE), (i, ANNIHILATE))),
        ),
    )


def _term_target(occ: int, term: LadderTerm) -> int | None:
    """The ket a term sends ``occ`` to, or None when a factor kills it; no phase is computed.

    A creator needs its mode empty and an annihilator needs it occupied;
    either flips the mode's bit.
    """
    for mode, kind in reversed(term.factors):
        bit = 1 << (mode - 1)
        if (occ & bit == 0) != (kind == CREATE):
            return None
        occ ^= bit
    return occ


def _apply_term_component(phi: float, occ: int, amp: complex, term: LadderTerm) -> tuple[int, complex] | None:
    """The ket and amplitude a term sends ``amp |occ>`` to, or None when a factor kills it."""
    a = amp * term.coefficient
    diag = 0.0
    for mode, w in term.weights.items():
        if occ >> (mode - 1) & 1:
            diag += w
    if diag:
        a *= cmath.exp(1j * diag)
    for mode, kind in reversed(term.factors):
        step = create_component(phi, occ, mode) if kind == CREATE else annihilate_component(phi, occ, mode)
        if step is None:
            return None
        occ, phase = step
        a *= phase
    return occ, a


def apply_operator_expr(state: AnyonState, expr: OperatorExpr) -> AnyonState:
    """Linear action of an operator expression on a state."""
    if expr.m != state.m:
        raise PreconditionError(f"operator is over {expr.m} modes, state over {state.m}")
    out: dict[int, complex] = {}
    for term in expr.terms:
        for occ, amp in state.amplitudes.items():
            res = _apply_term_component(state.phi, occ, amp, term)
            if res is not None:
                out[res[0]] = out.get(res[0], 0.0) + res[1]
    return AnyonState(state.m, state.phi, prune(out))


def orbits(expr: OperatorExpr, phi: float, kets: Iterable[int]) -> list[list[int]]:
    """The orbits of ``kets`` under the terms of ``expr``, in order of first reach.

    An orbit is every ket that a starting ket reaches by repeated action of
    the terms; a ket that an earlier orbit already holds starts none.  Which
    ket a term reaches does not depend on the sector ``phi``, so no phase is
    computed.  The union of the orbits is closed under ``expr``, so
    :func:`operator_matrix` on their concatenation is block-diagonal (for a
    Hermitian ``expr``), one block per orbit.
    """
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in kets:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for occ in orbit:  # the orbit grows while it is walked
            for term in expr.terms:
                target = _term_target(occ, term)
                if target is not None and target not in seen:
                    seen.add(target)
                    orbit.append(target)
        out.append(orbit)
    return out


def operator_matrix(expr: OperatorExpr, phi: float, basis: Iterable[int]) -> np.ndarray:
    """Dense matrix of ``expr`` on an ordered basis of occupation bitmasks.

    The basis must be closed under the action of ``expr``; leakage raises.
    """
    basis = list(basis)
    index = {occ: k for k, occ in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, occ in enumerate(basis):
        for term in expr.terms:
            res = _apply_term_component(phi, occ, 1.0 + 0.0j, term)
            if res is None:
                continue
            occ2, amp = res
            if occ2 not in index:
                if abs(amp) > 1e-12:
                    raise InvariantBreachError("operator leaks out of the supplied basis")
                continue
            mat[index[occ2], col] += amp
    return mat
