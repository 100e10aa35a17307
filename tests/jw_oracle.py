"""The paper's fractional Jordan-Wigner transformation as dense matrices: a reference that shares no code with anyonsim.

On the 2^m-dimensional space whose basis index is the occupation bitmask
(mode 1 is bit 0), the creator of mode i in the sector phi is

    a+_i = prod_{k<i} exp(i (pi - phi) n_k) sigma+_i,

with sigma+_i raising bit i - 1 and n_k the occupation of mode k; a_i is its
adjoint.  At phi = 0 this is the fermionic Jordan-Wigner string, at phi = pi
hardcore bosons.  Everything below is built from these matrices with numpy
and ``scipy.linalg.expm``; this module imports nothing from ``anyonsim``, so
a fault in the package's kernel cannot hide in its reference.

Amplitude tables are dicts from bitmask to amplitude, as ``state.amplitudes``
holds them; :func:`vector` and :func:`table` convert.  A ladder factor is a
``(mode, kind)`` pair with kind ``"create"`` or ``"annihilate"``, written
left to right as in a product of operators.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.linalg import expm


@lru_cache(maxsize=256)
def creators(m: int, phi: float) -> tuple[np.ndarray, ...]:
    """``(a+_1, ..., a+_m)`` in sector ``phi``, read-only 2^m x 2^m matrices."""
    dim = 1 << m
    out = []
    for i in range(m):
        bit = 1 << i
        mat = np.zeros((dim, dim), dtype=complex)
        for occ in range(dim):
            if not occ & bit:
                mat[occ | bit, occ] = np.exp(1j * (math.pi - phi) * (occ & (bit - 1)).bit_count())
        mat.setflags(write=False)
        out.append(mat)
    return tuple(out)


def ladder(m: int, phi: float, mode: int, kind: str) -> np.ndarray:
    """a+_mode for ``"create"``, a_mode for ``"annihilate"``."""
    up = creators(m, phi)[mode - 1]
    if kind == "create":
        return up
    if kind == "annihilate":
        return up.conj().T
    raise ValueError(f"unknown ladder kind {kind!r}")


def number(m: int, mode: int) -> np.ndarray:
    """n_mode = a+_mode a_mode, the same in every sector."""
    return np.diag([complex(occ >> (mode - 1) & 1) for occ in range(1 << m)])


def term_matrix(m: int, phi: float, coefficient: complex, factors: Sequence[tuple[int, str]], weights: Mapping[int, float]) -> np.ndarray:
    """``coefficient * factor_1 ... factor_p * exp(i sum_k w_k n_k)``; the diagonal acts first."""
    diag = np.diag(np.exp(1j * np.array([sum(w for k, w in weights.items() if occ >> (k - 1) & 1) for occ in range(1 << m)])))
    return coefficient * reduce(np.matmul, [ladder(m, phi, mode, kind) for mode, kind in factors], np.eye(1 << m)) @ diag


def expr_matrix(m: int, phi: float, terms: Iterable[tuple[complex, Sequence[tuple[int, str]], Mapping[int, float]]]) -> np.ndarray:
    """The sum of :func:`term_matrix` over ``(coefficient, factors, weights)`` triples."""
    return sum((term_matrix(m, phi, *term) for term in terms), np.zeros((1 << m, 1 << m), dtype=complex))


def generator(m: int, phi: float, kind: str, i: int, j: int | None, theta: float) -> np.ndarray:
    """theta n_i (PS), theta (a+_i a_j + a+_j a_i) (BS) or theta (a+_i a+_j + a_j a_i) (PA)."""
    if kind == "PS":
        return theta * number(m, i)
    ai, aj = ladder(m, phi, i, "annihilate"), ladder(m, phi, j, "annihilate")
    if kind == "BS":
        return theta * (ai.conj().T @ aj + aj.conj().T @ ai)
    if kind == "PA":
        return theta * (ai.conj().T @ aj.conj().T + aj @ ai)
    raise ValueError(f"no generator for {kind!r}")


@lru_cache(maxsize=256)
def gate_matrix(m: int, phi: float, kind: str, i: int, j: int | None = None, theta: float | None = None) -> np.ndarray:
    """``expm(i * generator)`` for PS, BS and PA; FSWAP is 1 - n_i - n_j + a+_i a_j + a+_j a_i, at phi = 0 only.

    FSWAP is defined as the statistics-mapped fermionic swap, so away from
    phi = 0 its matrix is not built from the phi creators and this raises.
    The matrix is read-only and kept per argument tuple, because tests
    apply one gate to several states and a 64 x 64 ``expm`` takes 1-9 ms
    (2-core host, one or two BLAS threads).
    """
    if kind != "FSWAP":
        mat = expm(1j * generator(m, phi, kind, i, j, theta))
    elif phi != 0.0:
        raise ValueError("FSWAP is the mapped fermionic swap; its reference is at phi = 0 only")
    else:
        mat = np.eye(1 << m) - number(m, i) - number(m, j) + generator(m, 0.0, "BS", i, j, 1.0)
    mat.setflags(write=False)
    return mat


def evolve(state, gates) -> dict[int, complex]:
    """The table of ``state`` (with ``m``, ``phi`` and ``amplitudes``) after ``gates`` (each with ``kind``, ``i``, ``j`` and ``theta``), the first acting first."""
    vec = vector(state.m, state.amplitudes)
    for g in gates:
        vec = gate_matrix(state.m, state.phi, g.kind, g.i, g.j, g.theta) @ vec
    return table(vec)


def bogoliubov_generator(m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """H = sum a_kl a+_k a_l + 1/2 sum (b_kl a+_k a+_l + conj(b_kl) a_l a_k), from the phi = 0 creators."""
    up = creators(m, 0.0)
    down = [c.conj().T for c in up]
    h = np.zeros((1 << m, 1 << m), dtype=complex)
    for k in range(m):
        for l in range(m):
            h += a[k, l] * up[k] @ down[l] + 0.5 * (b[k, l] * up[k] @ up[l] + np.conj(b[k, l]) * down[l] @ down[k])
    return h


def vector(m: int, amplitudes: Mapping[int, complex]) -> np.ndarray:
    """The 2^m vector of an amplitude table."""
    vec = np.zeros(1 << m, dtype=complex)
    for occ, amp in amplitudes.items():
        vec[occ] = amp
    return vec


def table(vec: np.ndarray) -> dict[int, complex]:
    """The amplitude table of a 2^m vector, every entry kept."""
    return {occ: complex(amp) for occ, amp in enumerate(vec)}


def one_body_matrix(m: int, phi: float, vec: np.ndarray) -> np.ndarray:
    """Entry (k, l) = <a+_l a_k>."""
    down = [c.conj().T for c in creators(m, phi)]
    return np.array([[np.vdot(down[l] @ vec, down[k] @ vec) for l in range(m)] for k in range(m)])


def particle_trace(m: int, phi: float, vec: np.ndarray, n: int, slot: int) -> np.ndarray:
    """The trace-one state of particle ``slot`` of an ``n``-particle vector, from its chain amplitudes.

    The chain amplitude is psi(i_1..i_n) = <0| a_{i_n} ... a_{i_1} |psi>,
    with a_{i_1} applied first.  T is that tensor with slot ``slot``'s index
    as rows and every other index flattened into columns; the result is
    T T^dagger over its trace.
    """
    down = [c.conj().T for c in creators(m, phi)]
    chains = [vec]
    for _ in range(n):
        chains = [d @ v for v in chains for d in down]
    amps = np.array([v[0] for v in chains]).reshape((m,) * n)
    t = np.moveaxis(amps, slot - 1, 0).reshape(m, -1)
    rho = t @ t.conj().T
    return rho / np.trace(rho).real
