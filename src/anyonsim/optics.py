"""Linear-optical elements, circuits, and induced Bogoliubov transformations.

Gate semantics
--------------
``PS(i, theta)``, ``BS(i, j, theta)`` and ``PA(i, j, theta)`` are the
exponentials of their quadratic generators *in the algebra of the state
they act on*; evolution is computed as the exponential of the generator on
the orbits of the state's kets.  An orbit is the set of kets one ket
reaches by repeated action of the generator's terms, so the span of the
orbits is invariant and the generator is block-diagonal on it.  A single
gate couples each ket to at most one partner (blocks of size 1 or 2); an
induced Bogoliubov generator gives larger blocks.  Each block is
exponentiated densely from the native matrix elements.  A generator that
moves no ket, such as every phase shifter's ``theta * n_i``, is diagonal
in every sector (``n_i`` commutes with the anyonic string), so each ket is
its own orbit and the gate only multiplies it by one phase: one pass over
the table reads each ket's element, checks it real, and scales the
amplitude by its exponential, with no generator matrix, orbit walk or
``einsum``.  Every term of a beam splitter or pairing gate moves a ket, so
a ket alone in its orbit is one no term reaches: its block is 0 and the
gate leaves it alone.  Every other stack is checked Hermitian, sent to
the exponential by one router and applied by one ``einsum``.  The blocks
are the whole generator on the orbits: a term sends a ket only into its
own orbit, so every entry between two orbits is exactly 0.

``FSWAP(i, j)`` is the statistics-mapped image of the fermionic mode swap:
it acts on the amplitude table exactly as the fermionic closed form
``1 - n_i - n_j + (hop)`` does at phi = 0.  For adjacent modes this equals
the exponential of the native generator in every sector; for distant modes
at phi != 0 the mapped action is the defining one.

Sharing within a scan
---------------------
A :func:`scan_scope` (``entropy-scan`` opens one around its grid) is one
dict from the exact ``(s, s)`` bytes of a block of size 2 and up to its
exponential.  :func:`_exponentials` reads the open one in place of the
table it otherwise keeps per call, so the path is the same in and out of
a scope: ``expm`` exponentiates each slice of a stack on its own, so a
block met again gets the bits it got the first time.  A 1 x 1 stack goes
whole to ``np.exp``, the value scipy's ``expm`` returns for it, before
any table is read, so a phase shifter never touches the scope.  Orbit
walks (:func:`_orbit_plan`), generator matrices, Hermiticity checks,
pruning and the norm check run at every point.  The dict lives in a
:class:`contextvars.ContextVar`; it is reset when the ``with`` block ends
or raises, so nothing is kept across commands.

A gate whose orbit basis exceeds :data:`ORBIT_BASIS_MAX` kets, or whose
largest orbit exceeds :data:`ORBIT_BLOCK_MAX` kets, raises
PreconditionError before it builds anything on that basis.

scipy
-----
Every exponential of a block of size 2 and up goes through :func:`expm`,
which imports ``scipy.linalg`` on its first call; a 1 x 1 stack goes to
``np.exp``.  Importing the package, ``run --engine fastpath``, ``schmidt``
and a dense run of phase shifters and mode swaps alone therefore never
load scipy; the first block of size 2 and up (a beam splitter or pairing
gate that moves a ket) or :meth:`BogoliubovPair.from_generator` does.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvariantBreachError, PreconditionError
from .operators import (
    ANNIHILATE,
    CREATE,
    LadderTerm,
    OperatorExpr,
    hopping,
    _act,
    _phase_tables,
    _term_shape,
    number,
    operator_matrix,
    pair_source,
)
from .states import AnyonState, check_index, check_mode, check_mode_count, check_norm_kept, json_float, json_int, json_of, prune, same_sector
from .transmute import anyonize, fermionize

#: per gate kind: (takes a second mode, takes an angle)
GATE_KINDS = {"PS": (False, True), "BS": (True, True), "PA": (True, True), "FSWAP": (True, False)}
#: the kinds that take an angle, in :data:`GATE_KINDS` order
ANGLED_KINDS = tuple(kind for kind, (_, angle) in GATE_KINDS.items() if angle)

#: gate exponentials check Hermiticity of the generator to this
_HERM_ATOL = 1e-12
#: most kets one dense gate works on; a gate that moves kets builds a d x d generator on them (1 GiB of complex128 at the cap)
ORBIT_BASIS_MAX = 8192
#: most kets in one orbit block; ``expm`` of an s x s block needs several s x s complex work arrays
ORBIT_BLOCK_MAX = 4096


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(a)``, unchanged; scipy is imported on the first call.

    Each later call repeats the import, a ``sys.modules`` lookup: 0.4 us
    against 20 us for a stacked 2x2 ``expm`` (2-core host, one BLAS thread).
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


#: the open scan's block table: exact bytes of an (s, s) block with s >= 2 -> its exponential; None outside a scan
_SCAN_SCOPE: ContextVar[dict[bytes, np.ndarray] | None] = ContextVar("anyonsim_scan_scope", default=None)


@contextmanager
def scan_scope() -> Iterator[dict[bytes, np.ndarray]]:
    """Share block exponentials among the dense gates run inside the ``with`` block; yields the shared table.

    The table stands in for the one each gate keeps per call: the
    exponentials of blocks of size 2 and up (1 x 1 stacks go whole to
    ``np.exp``, so a diagonal gate shares nothing).  Exact: ``expm``
    exponentiates every slice of a stack on its own, so a reused block
    gives the bits a fresh one would.  The scope ends with the block, also
    when it raises; nothing is kept across scopes.
    """
    blocks: dict[bytes, np.ndarray] = {}
    token = _SCAN_SCOPE.set(blocks)
    try:
        yield blocks
    finally:
        _SCAN_SCOPE.reset(token)


@dataclass(frozen=True)
class GateElement:
    """A tagged optical element with 1-based mode indices and angle in radians."""

    kind: str
    i: int
    j: int | None = None
    theta: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and self.kind in GATE_KINDS):
            raise PreconditionError(f"unknown gate kind {self.kind!r}")
        i, j = check_index(self.i), None if self.j is None else check_index(self.j)
        if i is not self.i or j is not self.j:  # an integer type such as np.int64, stored as int
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        two_modes, angle = GATE_KINDS[self.kind]
        if (self.j is not None) != two_modes or (self.theta is not None) != angle:
            raise PreconditionError(f"{self.kind} takes {'two modes' if two_modes else 'one mode'} and {'an' if angle else 'no'} angle")
        if self.j == self.i:
            raise PreconditionError(f"{self.kind} needs two distinct modes")
        if self.theta is not None and not math.isfinite(self.theta):
            raise PreconditionError(f"{self.kind} angle must be finite, got {self.theta}")

    def modes(self) -> tuple[int, ...]:
        return (self.i,) if self.j is None else (self.i, self.j)

    def label(self) -> str:
        inner = ",".join(str(k) for k in self.modes())
        if self.theta is None:
            return f"{self.kind}({inner})"
        return f"{self.kind}({inner}; theta={self.theta:g})"


def ps(i: int, theta: float) -> GateElement:
    return GateElement("PS", i, None, theta)


def bs(i: int, j: int, theta: float) -> GateElement:
    return GateElement("BS", i, j, theta)


def pa(i: int, j: int, theta: float) -> GateElement:
    return GateElement("PA", i, j, theta)


def fswap(i: int, j: int) -> GateElement:
    return GateElement("FSWAP", i, j, None)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over m modes in a fixed statistics sector."""

    m: int
    phi: float
    gates: tuple[GateElement, ...] = ()

    def __post_init__(self) -> None:
        m = check_mode_count(self.m)
        if m is not self.m:  # an integer type such as np.int64, stored as int
            object.__setattr__(self, "m", m)
        for g in self.gates:
            for k in g.modes():
                check_mode(self.m, k)

    def reversed_dagger(self) -> "Circuit":
        """The inverse circuit: reversed order, negated angles."""
        inv = []
        for g in reversed(self.gates):
            if g.theta is None:
                inv.append(g)
            else:
                inv.append(GateElement(g.kind, g.i, g.j, -g.theta))
        return Circuit(self.m, self.phi, tuple(inv))


def generator_expr(gate: GateElement, m: int) -> OperatorExpr:
    """The Hermitian generator of gate = exp(i * generator), angle folded in.

    Each term is built once with coefficient ``theta * (1.0 + 0.0j)``, the
    product ``theta * expr`` would form (with its signed zeros).  Every
    gate generator has eigenvalues in {-1, 0, 1} on its orbits, so the gate
    has period 2*pi in theta: ``|theta| > pi`` is folded into (-pi, pi] as
    ``atan2(sin(theta), cos(theta))``, which keeps the generator's entries
    (and their rounding) at most pi in size; ``|theta| <= pi`` is used as
    given.  The gate's label, wire form and inverse keep the angle as given.
    """
    if gate.theta is None:  # FSWAP, the mapped swap (see the module docstring)
        raise PreconditionError(f"{gate.kind} has no single generator form here")
    theta = gate.theta
    if abs(theta) > math.pi:
        theta = math.atan2(math.sin(theta), math.cos(theta))
    c = theta * (1.0 + 0.0j)
    if gate.kind == "PS":
        return number(m, gate.i, c)
    if gate.kind == "BS":
        return hopping(m, gate.i, gate.j, c)
    return pair_source(m, gate.i, gate.j, c)


def _orbit_plan(shapes: list, kets) -> tuple[list[int], list[np.ndarray]]:
    """The orbits of ``kets`` concatenated in order of first reach and, per orbit size, an (orbits, size) array of their positions.

    An orbit is every ket a starting ket reaches by repeated action of the
    terms whose :func:`~anyonsim.operators._term_shape` are ``shapes``; a
    ket an earlier orbit holds starts none.  Only the masks are read, so
    the walk computes no phase, and a ``None`` shape moves nothing.
    """
    moves = [shape[:3] for shape in shapes if shape is not None]
    seen: set[int] = set()
    basis: list[int] = []
    starts: dict[int, list[int]] = {}  # orbit size -> positions in basis where such orbits start
    for start in kets:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for occ in orbit:  # the orbit grows while it is walked
            for mask, need, flip in moves:
                if occ & mask == need and occ ^ flip not in seen:
                    seen.add(occ ^ flip)
                    orbit.append(occ ^ flip)
        starts.setdefault(len(orbit), []).append(len(basis))
        basis.extend(orbit)
    return basis, [np.array(first)[:, None] + np.arange(size) for size, first in starts.items()]


def _apply_orbit_exponential(state: AnyonState, expr: OperatorExpr) -> AnyonState:
    """exp(i * expr) on the orbits of the state's kets under ``expr``.

    A generator none of whose terms moves a ket (every phase shifter) is
    one pass over the table: each ket is its own orbit, its element comes
    from :func:`_diagonal_elements`, with no walk or generator matrix, and
    is checked real (``|h - conj(h)| <= _HERM_ATOL``; a NaN passes on to
    :func:`~anyonsim.states.prune`, which refuses it).  The ``(k, 1, 1)``
    stack of ``1j * h`` goes through :func:`_exponentials`, and each
    amplitude ``a`` becomes ``0j + e * a`` in table order: the bits of an
    ``einsum`` sum from zero, so a -0.0 part of the product reads +0.0.

    Any other generator's orbits are concatenated into a basis, and the
    positions of the orbits of each size form one ``(k, s)`` stack.  The
    generator's matrix is built on the basis and its diagonal blocks are
    cut out per stack; every entry outside them is exactly 0, because the
    orbits are closed.  If every term moves a ket (every BS and PA), the
    1 x 1 stack holds kets no term reaches: it is dropped, and its
    amplitudes get ``+ 0.0``, the bits a 1 x 1 identity gave them.  Each
    stack left is checked Hermitian (``|h_rc - conj(h_cr)| <= _HERM_ATOL``)
    before any is exponentiated, then goes through :func:`_exponentials`
    and one ``einsum`` tail.  Both paths refuse a basis over
    :data:`ORBIT_BASIS_MAX` kets with one check.
    """
    if not state.amplitudes:
        return state
    shapes = list(filter(None, map(_term_shape, expr.terms)))  # the terms that act on some ket
    if any(shape[2] for shape in shapes):  # some term flips a mode
        basis, stacks = _orbit_plan(shapes, state.amplitudes)
    else:  # each ket is its own orbit
        basis, stacks = state.amplitudes, None
    if len(basis) > ORBIT_BASIS_MAX:
        raise PreconditionError(
            f"gate orbit basis has d = {len(basis)} kets, over the dense budget of {ORBIT_BASIS_MAX} kets per gate"
        )
    if stacks is None:
        diagonal = _diagonal_elements(state, expr, shapes)
        for h in diagonal:
            if abs(h - h.conjugate()) > _HERM_ATOL:
                raise InvariantBreachError("gate generator is not Hermitian on its orbits")
        phases = _exponentials(1j * np.array(diagonal, dtype=complex)[:, None, None]).ravel().tolist()
        # 0j + e * a is einsum's sum from zero: a -0.0 part of the product reads +0.0
        return AnyonState(state.m, state.phi, prune({occ: 0j + e * a for (occ, a), e in zip(state.amplitudes.items(), phases)}))
    size = max(idx.shape[1] for idx in stacks)
    if size > ORBIT_BLOCK_MAX:
        raise PreconditionError(f"gate orbit block has s = {size} kets, over the dense budget of {ORBIT_BLOCK_MAX} kets per block")
    vec = np.array([state.amplitudes.get(occ, 0.0) for occ in basis], dtype=complex)
    h = operator_matrix(expr, state.phi, basis)
    if all(shape[2] for shape in shapes):  # a 1 x 1 orbit is a ket no term reaches: exp(0) = 1
        for idx in stacks:
            if idx.shape[1] == 1:
                vec[idx] += 0.0  # a -0.0 part reads +0.0, the bits exponentiating its 0 block gives
        stacks = [idx for idx in stacks if idx.shape[1] > 1]
    blocks = [h[idx[:, :, None], idx[:, None, :]] for idx in stacks]
    for stack in blocks:
        if np.abs(stack - stack.conj().transpose(0, 2, 1)).max() > _HERM_ATOL:
            raise InvariantBreachError("gate generator is not Hermitian on its orbits")
    for idx, stack in zip(stacks, blocks):
        vec[idx] = np.einsum("kab,kb->ka", _exponentials(1j * stack), vec[idx])
    return AnyonState(state.m, state.phi, prune(dict(zip(basis, vec.tolist()))))


def _diagonal_elements(state: AnyonState, expr: OperatorExpr, shapes: list) -> list[complex]:
    """Each ket's element of an ``expr`` that moves no ket, in table order.

    ``shapes`` are the caller's :func:`~anyonsim.operators._term_shape`
    of the terms that act on some ket.  The element is summed from ``0j``
    over them in order, through the kernel and a per-call phase table as
    :func:`~anyonsim.operators.operator_matrix` uses, so it has the bits
    of that matrix's diagonal.  The caller checks each real, one by one.
    """
    tables = _phase_tables(expr.m, state.phi)
    diagonal = []
    for occ in state.amplitudes:
        h = 0j
        for shape in shapes:
            res = _act(occ, 1.0 + 0.0j, shape, tables)
            if res is not None:
                h += res[1]
        diagonal.append(h)
    return diagonal


def _exponentials(blocks: np.ndarray) -> np.ndarray:
    """``expm`` of each slice of a C-contiguous ``(k, s, s)`` stack, with the bits of a per-slice call.

    A 1 x 1 stack (of a generator with a term that moves no ket; a BS or
    PA sends none) goes whole to ``np.exp``, which is what scipy's ``expm``
    returns for any ``(..., 1, 1)`` input: the bits are the same, scipy is
    not loaded for it, and a dedupe would save nothing.  Larger blocks are
    keyed on their bytes in one table, the open :func:`scan_scope`'s or a
    fresh one per call, and only the blocks it lacks are sent to
    :func:`expm`, in first-occurrence order: ``expm`` exponentiates every
    slice on its own, so a block met again gets the bits it got the first
    time.
    """
    if blocks.shape[1] == 1:
        return np.exp(blocks)
    table = _SCAN_SCOPE.get()
    if table is None:
        table = {}
    raw, step = blocks.tobytes(), blocks[0].nbytes
    keys = [raw[k * step : (k + 1) * step] for k in range(len(blocks))]
    fresh: dict[bytes, int] = {}  # each block the table lacks -> the first slice holding it
    for k, key in enumerate(keys):
        if key not in table and key not in fresh:
            fresh[key] = k
    if fresh:
        table.update(zip(fresh, expm(blocks[list(fresh.values())])))
    return np.array([table[key] for key in keys])


def apply_gate(state: AnyonState, gate: GateElement) -> AnyonState:
    """Exact unitary action of one optical element on a state; :func:`apply_fswap` or the generator refuses a mode above ``state.m``."""
    if gate.kind == "FSWAP":
        return apply_fswap(state, gate.i, gate.j)
    return _apply_orbit_exponential(state, generator_expr(gate, state.m))


def apply_fswap(state: AnyonState, i: int, j: int) -> AnyonState:
    """Statistics-mapped fermionic mode swap between modes i and j.

    Acts on the amplitude table via the fermionic closed form: empty pairs
    are fixed, doubly occupied pairs flip sign, and single occupations hop
    with the parity of the modes strictly between i and j.
    """
    if i == j:
        raise PreconditionError("FSWAP needs two distinct modes")
    i, j = check_mode(state.m, i), check_mode(state.m, j)
    lo, hi = min(i, j), max(i, j)
    bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
    between = ((1 << (hi - 1)) - 1) ^ ((1 << lo) - 1)
    out: dict[int, complex] = {}
    for occ, amp in state.amplitudes.items():
        oi, oj = occ & bit_i != 0, occ & bit_j != 0
        if oi == oj:
            out[occ] = out.get(occ, 0.0) + (-amp if oi else amp)
        else:
            sign = -1.0 if (occ & between).bit_count() % 2 else 1.0
            swapped = occ ^ bit_i ^ bit_j
            out[swapped] = out.get(swapped, 0.0) + sign * amp
    return AnyonState(state.m, state.phi, prune(out))


def check_fits(state: AnyonState, circuit: Circuit) -> None:
    """Raise PreconditionError unless the circuit is over the state's modes and in its sector."""
    if state.m != circuit.m:
        raise PreconditionError(f"circuit is over {circuit.m} modes, state over {state.m}")
    if not same_sector(state.phi, circuit.phi):
        raise PreconditionError(f"circuit sector phi={circuit.phi} does not match state phi={state.phi}")


def run_circuit(state: AnyonState, circuit: Circuit) -> AnyonState:
    """Left-to-right application of a circuit (first listed gate acts first).

    Raises InvariantBreachError if the squared norm moves by more than
    ``NORM_ATOL * max(1, |in|^2)`` (:func:`~anyonsim.states.check_norm_kept`):
    every gate is unitary.
    """
    check_fits(state, circuit)
    out = state
    for gate in circuit.gates:
        out = apply_gate(out, gate)
    check_norm_kept(state, out)
    return out


def _nn_fswap_chain(a: int, b: int) -> list[GateElement]:
    """Expand a distant mode swap into nearest-neighbour swaps (a < b)."""
    if b == a + 1:
        return [fswap(a, b)]
    ladder = [fswap(k, k + 1) for k in range(a, b - 1)]
    return ladder + [fswap(b - 1, b)] + ladder[::-1]


def decompose_distant(gate: GateElement) -> list[GateElement]:
    """Rewrite a PS/BS/PA on arbitrary modes over the canonical generating set.

    The output uses only PS on mode 1, BS/PA on modes (1, 2), and
    nearest-neighbour FSWAPs; the dense products agree at phi = 0.  FSWAP
    inputs are expanded into nearest-neighbour swaps directly.
    """
    if gate.kind == "PS":
        if gate.i == 1:
            return [gate]
        chain = _nn_fswap_chain(1, gate.i)
        return chain + [ps(1, gate.theta)] + chain[::-1]
    if gate.kind == "FSWAP":
        lo, hi = sorted((gate.i, gate.j))
        return _nn_fswap_chain(lo, hi)
    if gate.kind == "BS":
        i, j = sorted((gate.i, gate.j))
        theta = gate.theta
    else:  # PA: antisymmetric under swapping the pair, so flip the angle
        i, j = gate.i, gate.j
        theta = gate.theta
        if i > j:
            i, j, theta = j, i, -theta
    if (i, j) == (1, 2):
        return [GateElement(gate.kind, 1, 2, theta)]
    chain: list[GateElement] = []
    if i != 1:
        chain += _nn_fswap_chain(1, i)
    if j != 2:
        chain += _nn_fswap_chain(2, j)
    return chain + [GateElement(gate.kind, 1, 2, theta)] + chain[::-1]


def circuit_to_json_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind, "i": g.i}
        if g.j is not None:
            entry["j"] = g.j
        if g.theta is not None:
            entry["theta"] = g.theta
        gates.append(entry)
    return {"m": circuit.m, "phi": circuit.phi, "gates": gates}


def circuit_from_json_dict(data: dict) -> Circuit:
    """Parse the wire format ``{"m", "phi", "gates": [{"kind", "i", "j", "theta"}]}``; a JSON value of the wrong type raises ValueError."""
    data = json_of("circuit", data, dict)
    gates = []
    for entry in json_of("gates", data["gates"], list):
        json_of("gate", entry, dict)
        gates.append(
            GateElement(
                entry["kind"],
                json_int("i", entry["i"]),
                json_int("j", entry["j"]) if "j" in entry and entry["j"] is not None else None,
                json_float("theta", entry["theta"]) if "theta" in entry and entry["theta"] is not None else None,
            )
        )
    return Circuit(json_int("m", data["m"]), json_float("phi", data["phi"]), tuple(gates))


@dataclass(frozen=True)
class BogoliubovPair:
    """Matrices (U, V) of a multi-mode canonical transformation.

    The pair describes the transformation of creation operators,
    ``a+_i -> sum_j U_ij a+_j + sum_k V_ik a_k``.  ``V = 0`` marks a pure
    change of single-particle basis.  Pairs with V != 0 must be built via
    :meth:`from_generator` so that state evolution has a well-defined
    exponential form (no matrix-logarithm branch choice is ever taken).
    """

    u: np.ndarray
    v: np.ndarray
    generator: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_rotation(cls, u: Sequence[Sequence[complex]]) -> "BogoliubovPair":
        u = np.asarray(u, dtype=complex)
        return cls(u, np.zeros_like(u))

    @classmethod
    def from_generator(cls, a: Sequence[Sequence[complex]], b: Sequence[Sequence[complex]]) -> "BogoliubovPair":
        """Pair induced by the quadratic Hamiltonian with hopping a and pairing b.

        ``a`` must be Hermitian, ``b`` antisymmetric; the generator is
        ``sum a_kl n-conserving terms + (1/2) sum (b_kl a+_k a+_l + h.c.)``.
        A generator whose exponential overflows gives a non-finite pair, which
        :meth:`validate` refuses; no RuntimeWarning escapes.
        """
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        m = a.shape[0]
        if a.shape != (m, m) or b.shape != (m, m):
            raise PreconditionError("generator matrices must be square and equal-sized")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise PreconditionError("generator matrices must be finite")
        if np.max(np.abs(a - a.conj().T)) > 1e-12:
            raise PreconditionError("hopping block of the generator must be Hermitian")
        if np.max(np.abs(b + b.T)) > 1e-12:
            raise PreconditionError("pairing block of the generator must be antisymmetric")
        big = np.block([[a.T, b.conj()], [-b, -a]])
        with np.errstate(over="ignore", invalid="ignore"):
            exp_big = expm(1j * big)
        return cls(exp_big[:m, :m], exp_big[:m, m:], generator=(a, b))

    def mode_count(self) -> int:
        return self.u.shape[0]

    def is_rotation(self) -> bool:
        return bool(np.max(np.abs(self.v)) <= 1e-12)

    def validate(self) -> None:
        """Raise PreconditionError unless U and V are square, equal-sized, finite and canonical within 1e-10.

        A residual that overflows, to inf or NaN, fails without a RuntimeWarning.
        """
        m = self.u.shape[0]
        if self.u.shape != (m, m) or self.v.shape != (m, m):
            raise PreconditionError("U and V must be square matrices of equal size")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise PreconditionError("U and V must be finite")
        eye = np.eye(m)
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = np.max(np.abs(self.u @ self.u.conj().T + self.v @ self.v.conj().T - eye))
            r2 = np.max(np.abs(self.u @ self.v.T + self.v @ self.u.T))
        if not (r1 <= 1e-10 and r2 <= 1e-10):
            raise PreconditionError(
                f"not a canonical pair: |UU+ + VV+ - 1| = {r1:.3e}, |UV^T + VU^T| = {r2:.3e}"
            )


def _quadratic_expr(m: int, a: np.ndarray, b: np.ndarray) -> OperatorExpr:
    """``sum a_kl a+_k a_l + sum_{k<l} (c_kl a+_k a+_l + h.c.)`` with ``c = (b - b^T) / 2``: each pairing operator once.

    ``c_kl`` is the ``(k, l)`` and ``(l, k)`` halves of ``(1/2) sum b_kl a+_k a+_l`` added.  The generator acts at
    phi = 0, where ``a+_l a+_k = -a+_k a+_l`` and every phase is exactly +-1, so the sum keeps the bits of the halves.
    """
    terms: list[LadderTerm] = []
    for k in range(m):
        for l in range(m):
            if abs(a[k, l]) > 1e-15:
                terms.append(LadderTerm(complex(a[k, l]), ((k + 1, CREATE), (l + 1, ANNIHILATE))))
            c = 0.5 * complex(b[k, l] - b[l, k])
            if k < l and abs(c) > 1e-15:
                terms.append(LadderTerm(c, ((k + 1, CREATE), (l + 1, CREATE))))
                terms.append(LadderTerm(c.conjugate(), ((l + 1, ANNIHILATE), (k + 1, ANNIHILATE))))
    return OperatorExpr(m, tuple(terms))


def apply_induced_bogoliubov(state: AnyonState, pair: BogoliubovPair) -> AnyonState:
    """Apply the sector-conjugated canonical transformation to a state.

    Implemented as fermionize -> fermionic action -> map back.  For V = 0
    the amplitudes are minors of ``U.T`` on the determinant engine, whose
    minor budget raises PreconditionError (:mod:`anyonsim.fastpath`);
    otherwise the exponential of the stored generator acts on the orbits of
    the state's kets.  A squared norm moved by more than
    :func:`~anyonsim.states.check_norm_kept` allows raises PreconditionError:
    the pair is too large to act unitarily in double precision.
    """
    pair.validate()
    if pair.mode_count() != state.m:
        raise PreconditionError(f"transformation is over {pair.mode_count()} modes, state over {state.m}")
    psi = fermionize(state)
    if pair.is_rotation():
        from .fastpath import SingleParticleUnitary, _evolve_nc_block  # fastpath imports this module

        result = AnyonState(state.m, 0.0, prune(_evolve_nc_block(psi.amplitudes, SingleParticleUnitary(pair.u.T))))
    else:
        if pair.generator is None:
            raise PreconditionError("pairing transformations must carry their quadratic generator")
        expr = _quadratic_expr(state.m, *pair.generator)
        result = _apply_orbit_exponential(psi, expr)
    out = anyonize(result, state.phi)
    try:
        check_norm_kept(state, out)
    except InvariantBreachError as drift:
        raise PreconditionError(f"the transformation is not unitary to working precision on this state: {drift}") from drift
    return out
