from typing import Iterable

import numpy as np
import pytest

from anyonsim import AnyonState, OperatorExpr
from anyonsim.operators import _term_shape
from anyonsim.optics import _orbit_plan
from anyonsim.states import reorder_phase


def table_diff(a: AnyonState | dict, b: AnyonState | dict) -> float:
    """Max componentwise amplitude difference, ignoring the phi tag."""
    ta = a.amplitudes if isinstance(a, AnyonState) else a
    tb = b.amplitudes if isinstance(b, AnyonState) else b
    keys = set(ta) | set(tb)
    return max((abs(complex(ta.get(k, 0.0)) - complex(tb.get(k, 0.0))) for k in keys), default=0.0)


def orbits(expr: OperatorExpr, phi: float, kets: Iterable[int]) -> list[list[int]]:
    """The orbits of ``kets`` under the terms of ``expr``, in order of first reach, as the dense engine walks them.

    Which ket a term reaches depends on neither the sector ``phi`` nor a
    coefficient, so ``phi`` is not read.  The union of the orbits is closed
    under ``expr``, so ``operator_matrix`` on their concatenation is
    block-diagonal (for a Hermitian ``expr``), one block per orbit.
    """
    basis, stacks = _orbit_plan(list(map(_term_shape, expr.terms)), kets)
    starts = sorted((int(idx[0]), len(idx)) for stack in stacks for idx in stack)
    return [basis[start : start + size] for start, size in starts]


def n_left(occ: int, i: int) -> int:
    """Number of occupied modes strictly below mode i."""
    return (occ & ((1 << (i - 1)) - 1)).bit_count()


def create_component(phi: float, occ: int, i: int) -> tuple[int, complex] | None:
    """Action of the mode-i creation operator on a single basis ket.

    Returns the new bitmask and phase, or None when mode i is occupied.
    """
    bit = 1 << (i - 1)
    if occ & bit:
        return None
    return occ | bit, reorder_phase(phi, n_left(occ, i))


def annihilate_component(phi: float, occ: int, i: int) -> tuple[int, complex] | None:
    """Adjoint of :func:`create_component`; None when mode i is empty."""
    bit = 1 << (i - 1)
    if not occ & bit:
        return None
    return occ ^ bit, reorder_phase(phi, n_left(occ, i)).conjugate()


def random_state(rng: np.random.Generator, m: int, phi: float, n: int | None = None) -> AnyonState:
    occs = [occ for occ in range(1 << m) if n is None or occ.bit_count() == n]
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    return AnyonState(m, phi, {occ: complex(a) for occ, a in zip(occs, amps)})


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
