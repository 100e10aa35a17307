"""Sparse Fock-space states for one-dimensional fermionic anyons.

Conventions used throughout the package:

* Modes are labelled 1..m.
* A basis configuration is an integer bitmask with bit (i - 1) holding the
  occupation of mode i; the string form ``"0101"`` lists mode 1 first.
* The basis ket for a configuration is the one obtained by applying
  creation operators in strictly increasing mode order to the vacuum.
* Statistics enter through the reordering phase picked up when a creation
  operator for mode i is moved rightward past an occupied mode k < i: each
  crossing contributes ``-exp(i * s * phi)``.  The sign ``s`` is pinned by
  the exchange-relation check suite (see :mod:`anyonsim.checks`), not
  transcribed by hand; annihilation carries the conjugate phase.

States are immutable; every operation returns a new state.  Amplitudes with
magnitude below :data:`PRUNE_EPS` are dropped after each operator
application.  :func:`apply_create` and :func:`apply_annihilate` test the
mode bit and multiply each ket by its reordering phase in one loop.

Every mode index, slot and mode count goes through :func:`check_index`,
which hands back an integer type such as ``np.int64`` as the ``int`` it
names; the package stores and shifts that ``int``.  Occupation bitmasks
follow the same rule through :func:`check_occs`.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from .errors import InvariantBreachError, PreconditionError

TWO_PI = 2.0 * 3.141592653589793

#: amplitudes below this magnitude are pruned after operator application
PRUNE_EPS = 1e-14
#: relative tolerance on the squared norm a unitary evolution may move
NORM_ATOL = 1e-10
#: most modes a state, circuit or operator may span; ``1 << m`` and an m x m transfer matrix stay small up to it
MODE_COUNT_MAX = 1024

# Exchange sign s in the reordering phase (-exp(i*s*phi))**crossings.
# Fixed by requiring the deformed exchange relations (with epsilon = +1 for
# i < j) to hold on every basis state; flipping it is equivalent to
# phi -> -phi and is caught by the algebra suite.
_REORDER_SIGN = -1.0


def wrap_phi(phi: float) -> float:
    """Reduce a statistics parameter into the canonical window [0, 2*pi).

    The sector algebras are exactly 2*pi-periodic, so this is lossless.  A
    non-finite ``phi`` raises PreconditionError naming it; wrapped, it
    would read NaN.
    """
    if not math.isfinite(phi):
        raise PreconditionError(f"statistical parameter must be finite, got {phi}")
    out = phi % TWO_PI
    return 0.0 if out == TWO_PI else out


def occ_from_string(s: str) -> int:
    """Parse an occupation string like ``"0101"`` (mode 1 first) to a bitmask."""
    occ = 0
    for pos, ch in enumerate(s):
        if ch == "1":
            occ |= 1 << pos
        elif ch != "0":
            raise PreconditionError(f"occupation string must be over {{0,1}}, got {s!r}")
    return occ


def occ_to_string(occ: int, m: int) -> str:
    """Render a bitmask as an occupation string, mode 1 first; bits at or above ``m`` are not shown."""
    if m <= 0:
        return ""
    return format(occ & ((1 << m) - 1), f"0{m}b")[::-1]


def reorder_phase(phi: float, crossings: int) -> complex:
    """Phase for moving a creation operator past ``crossings`` occupied modes."""
    if crossings == 0:
        return 1.0 + 0.0j
    return ((-1.0) ** crossings) * cmath.exp(1j * _REORDER_SIGN * phi * crossings)


def same_sector(phi_a: float, phi_b: float) -> bool:
    """Whether two statistics parameters lie within 1e-12 of each other on the circle.

    The sectors are 2*pi-periodic, so 2*pi - eps and 0 name the same sector.
    """
    d = abs(phi_a - phi_b) % TWO_PI
    return min(d, TWO_PI - d) <= 1e-12


def _as_int(i, what: str) -> int:
    """``operator.index(i)``; PreconditionError for a bool or a type without ``__index__``, such as a float."""
    if isinstance(i, bool) or not hasattr(type(i), "__index__"):
        raise PreconditionError(f"{what} must be an integer, got {i!r}")
    return operator.index(i)


def check_index(i: int, what: str = "mode index") -> int:
    """``i`` as an ``int``; PreconditionError unless i, a mode index, slot or mode count (``what`` names it), is an integer >= 1.

    A bool is refused; a type with ``__index__``, such as ``np.int64``, passes
    and comes back as ``operator.index(i)``, so that ``1 << i`` is exact
    Python arithmetic (``1 << np.int64(65)`` is 0).  An ``int`` comes back
    as itself.
    """
    if type(i) is not int:
        i = _as_int(i, what)
    if i < 1:
        raise PreconditionError(f"{what} {i} must be >= 1")
    return i


def check_mode_count(m: int) -> int:
    """Mode count m as an ``int`` (:func:`check_index`); PreconditionError unless it is also at most :data:`MODE_COUNT_MAX`."""
    m = check_index(m, "mode count")
    if m > MODE_COUNT_MAX:
        raise PreconditionError(f"mode count {m} is over the bound of {MODE_COUNT_MAX} modes")
    return m


def check_mode(m: int, i: int) -> int:
    """Mode index i as an ``int`` (:func:`check_index`); PreconditionError unless it is also at most m."""
    i = check_index(i)
    if i > m:
        raise PreconditionError(f"mode index {i} out of range 1..{m}")
    return i


def check_sector(phi: float) -> None:
    """Raise PreconditionError unless the statistics parameter phi lies in [0, 2*pi) (NaN fails)."""
    if not 0.0 <= phi < TWO_PI:
        raise PreconditionError(f"statistical parameter must lie in [0, 2*pi), got {phi}")


def check_occs(m: int, occs: Collection[int]) -> Collection[int]:
    """The bitmasks in ``occs`` as ``int``s; PreconditionError unless each is an integer configuration of m modes.

    Bitmasks follow :func:`check_index`'s rule: a bool or a non-integral
    type such as a float is refused, and a type with ``__index__`` such as
    ``np.int64`` comes back as the ``int`` it names, in a new list.  When
    every bitmask is an ``int``, ``occs`` itself comes back.
    """
    top = 1 << m
    for occ in occs:
        if type(occ) is not int:
            return check_occs(m, [_as_int(occ, "occupation bitmask") for occ in occs])
        if not 0 <= occ < top:
            raise PreconditionError(f"occupation bitmask {occ} does not fit {m} modes")
    return occs


def check_tol(name: str, tol: float) -> None:
    """Raise PreconditionError unless tolerance ``tol`` is finite and nonnegative (NaN fails)."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"{name} must be finite and >= 0, got {tol}")


def _json_number(value) -> bool:
    """Whether a parsed JSON value is a number; booleans are not, although Python counts them.

    The exact-type test answers for everything ``json`` parses, without the
    1 us ``numbers.Real`` check per amplitude.
    """
    return type(value) in (int, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def json_int(name: str, value) -> int:
    """An integer field of a JSON input; a non-number, a boolean or a fractional part is refused."""
    if not _json_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_float(name: str, value) -> float:
    """A real field of a JSON input; anything but a number (``null``, a list, a string, a boolean) is refused.

    Non-finite values pass: the caller decides what they mean.
    """
    if not _json_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_of(name: str, value, kind: type):
    """An object (``kind`` dict) or array (``kind`` list) part of a JSON input; a value of any other type is refused."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a JSON {'object' if kind is dict else 'array'}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class AnyonState:
    """A pure state of fermionic anyons as a sparse amplitude table.

    ``amplitudes`` maps occupation bitmasks to complex amplitudes in the
    increasing-creation-order basis.  The table is not auto-normalized;
    use :meth:`normalized` explicitly.
    """

    m: int
    phi: float
    amplitudes: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        m = check_mode_count(self.m)
        if m is not self.m:  # an integer type such as np.int64, stored as int
            object.__setattr__(self, "m", m)
        check_sector(self.phi)
        occs = check_occs(m, self.amplitudes)
        if occs is not self.amplitudes:  # integer types such as np.int64, stored as int
            table = dict(zip(occs, self.amplitudes.values()))
            if len(table) < len(occs):
                raise PreconditionError("two occupation bitmasks name the same configuration")
            object.__setattr__(self, "amplitudes", table)

    def amplitude(self, occ: int | str) -> complex:
        if isinstance(occ, str):
            occ = occ_from_string(occ)
        return complex(self.amplitudes.get(occ, 0.0))

    def norm(self) -> float:
        """The square root of the sum of ``abs(a) ** 2``; PreconditionError if that sum is over the float range."""
        try:
            with np.errstate(over="ignore"):  # a numpy amplitude gives inf, with no RuntimeWarning
                norm2 = sum(abs(a) ** 2 for a in self.amplitudes.values())
        except OverflowError:  # a Python amplitude raises
            norm2 = math.inf
        if norm2 == math.inf:
            raise PreconditionError("state has |psi|^2 = inf: its squared norm is over the float range")
        return norm2 ** 0.5

    def normalized(self) -> "AnyonState":
        n = self.norm()
        if n == 0.0:
            raise PreconditionError("cannot normalize the zero vector")
        return AnyonState(self.m, self.phi, {k: v / n for k, v in self.amplitudes.items()})

    def particle_number(self) -> int | None:
        """The common particle number of all components, or None if mixed across sectors."""
        counts = {occ.bit_count() for occ in self.amplitudes}
        if len(counts) == 1:
            return counts.pop()
        return None


def check_norm_kept(before: AnyonState, after: AnyonState) -> None:
    """Raise InvariantBreachError if a unitary evolution moved the squared norm.

    The allowed drift is ``NORM_ATOL * max(1, |before|^2)``; a NaN drift fails.
    """
    norm_in = before.norm() ** 2
    drift = abs(after.norm() ** 2 - norm_in)
    if not drift <= NORM_ATOL * max(1.0, norm_in):
        raise InvariantBreachError(f"evolution changed the squared norm by {drift:.3e}")


def vacuum(m: int, phi: float = 0.0) -> AnyonState:
    """The m-mode vacuum in the phi statistics sector."""
    return AnyonState(m, phi, {0: 1.0 + 0.0j})


def basis_state(occ: int | str, phi: float = 0.0, m: int | None = None) -> AnyonState:
    """The Fock basis ket for an occupation pattern.

    ``occ`` is a string like ``"1010"`` (mode 1 first; its length is the
    mode count, and ``m``, if given, must equal it) or a raw bitmask, which
    requires ``m``.  Anything else raises PreconditionError.
    """
    if isinstance(occ, str):
        mask, width = occ_from_string(occ), len(occ)
    elif isinstance(occ, int):
        if m is None:
            raise PreconditionError("mode count m is required when occ is a bitmask")
        mask, width = occ, m
    else:
        raise PreconditionError(f"occupation must be a string of 0s and 1s or a bitmask, got {occ!r}")
    if m is not None and m != width:
        raise PreconditionError(f"occupation width {width} does not match m={m}")
    return AnyonState(width, phi, {mask: 1.0 + 0.0j})


def prune(table: dict[int, complex]) -> dict[int, complex]:
    """Drop entries with magnitude at most :data:`PRUNE_EPS`.

    A NaN or infinite amplitude raises InvariantBreachError: no evolution of
    a finite state produces one, and dropping it would hide the fault.
    """
    out: dict[int, complex] = {}
    for occ, amp in table.items():
        mag = abs(amp)
        if PRUNE_EPS < mag < math.inf:
            out[occ] = amp
        elif not mag <= PRUNE_EPS:  # NaN or infinite
            raise InvariantBreachError(f"amplitude of ket {occ:#b} is not finite: {amp}")
    return out


def apply_create(state: AnyonState, i: int) -> AnyonState:
    """Apply the creation operator for mode i; occupied components vanish, the others gain the phase of the occupied modes below i."""
    bit = 1 << (check_mode(state.m, i) - 1)
    out: dict[int, complex] = {}
    for occ, amp in state.amplitudes.items():
        if not occ & bit:
            out[occ | bit] = amp * reorder_phase(state.phi, (occ & (bit - 1)).bit_count())
    return AnyonState(state.m, state.phi, prune(out))


def apply_annihilate(state: AnyonState, i: int) -> AnyonState:
    """Apply the annihilation operator for mode i, the adjoint of :func:`apply_create`; empty components vanish."""
    bit = 1 << (check_mode(state.m, i) - 1)
    out: dict[int, complex] = {}
    for occ, amp in state.amplitudes.items():
        if occ & bit:
            out[occ ^ bit] = amp * reorder_phase(state.phi, (occ & (bit - 1)).bit_count()).conjugate()
    return AnyonState(state.m, state.phi, prune(out))


def apply_number(state: AnyonState, i: int) -> AnyonState:
    """Apply the number operator for mode i (keeps occupied components only)."""
    bit = 1 << (check_mode(state.m, i) - 1)
    return AnyonState(state.m, state.phi, {occ: amp for occ, amp in state.amplitudes.items() if occ & bit})


def inner_product(a: AnyonState, b: AnyonState) -> complex:
    """Hermitian inner product <a|b>; both states must share m and phi."""
    if a.m != b.m:
        raise PreconditionError(f"mode counts differ: {a.m} vs {b.m}")
    if not same_sector(a.phi, b.phi):
        raise PreconditionError(f"statistics sectors differ: phi={a.phi} vs {b.phi}")
    small, large = (a.amplitudes, b.amplitudes) if len(a.amplitudes) <= len(b.amplitudes) else (b.amplitudes, a.amplitudes)
    total = 0.0 + 0.0j
    for occ in small:
        if occ in large:
            total += a.amplitudes[occ].conjugate() * b.amplitudes[occ]
    return total


def max_amplitude_diff(a: Mapping[int, complex], b: Mapping[int, complex]) -> float:
    """Largest componentwise |a - b| over two amplitude tables (0 for two empty tables)."""
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def state_to_json_dict(state: AnyonState) -> dict:
    """Serialize to the wire format ``{"m", "phi", "amplitudes": [{"occ","re","im"}]}``."""
    return {
        "m": state.m,
        "phi": state.phi,
        "amplitudes": [
            {"occ": occ_to_string(occ, state.m), "re": float(amp.real), "im": float(amp.imag)}
            for occ, amp in sorted(state.amplitudes.items())
        ],
    }


def state_from_json_dict(data: dict) -> AnyonState:
    """Parse the wire format; ``phi`` is wrapped into [0, 2*pi) as ``--phi`` is.

    A repeated occupation, or a top level, ``amplitudes`` or entry of the
    wrong JSON type (:func:`json_of`), raises ValueError.
    """
    data = json_of("state", data, dict)
    m = json_int("m", data["m"])
    phi = wrap_phi(json_float("phi", data["phi"]))
    table: dict[int, complex] = {}
    for entry in json_of("amplitudes", data["amplitudes"], list):
        json_of("amplitude entry", entry, dict)
        if not isinstance(entry["occ"], str):
            raise ValueError(f"occ must be a string of 0s and 1s, got {entry['occ']!r}")
        occ = occ_from_string(entry["occ"])
        if len(entry["occ"]) != m:
            raise PreconditionError(f"occupation {entry['occ']!r} does not have {m} modes")
        if occ in table:
            raise ValueError(f"occupation {entry['occ']!r} appears twice")
        amp = complex(json_float("re", entry["re"]), json_float("im", entry["im"]))
        if not cmath.isfinite(amp):
            raise PreconditionError(f"amplitude of {entry['occ']!r} is not finite: {amp}")
        table[occ] = 0.0 + amp  # stores a -0.0 part as +0.0
    return AnyonState(m, phi, table)
