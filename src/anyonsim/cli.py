"""Command-line front end.

Subcommands
-----------
``run``           evolve a state through a circuit and emit an amplitude CSV
``entropy-scan``  sweep (phi, theta) and emit entropy/separability rows
``schmidt``       pair normal form of a two-particle state as JSON
``check``         run the fast property suites

Exit codes: 0 success, 1 a ``check`` suite failed, 2 malformed input,
3 engine/family mismatch, 4 precondition failure, 5 internal invariant
breach.

A value that starts with one ``-`` may follow its long option after a space
(``--phi -inf``, ``--out -x.csv``): it reads as if written after ``=``.

``run --engine fastpath``, ``schmidt`` and a dense run of phase shifters and
mode swaps alone never load scipy; the first dense exponential of a block of
size 2 and up does (see :mod:`anyonsim.optics`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from .checks import run_all
from .entanglement import (
    SeparabilityReport,
    check_separability_tol,
    is_separable,
    particle_trace_rdm,
    slater_decompose,
    von_neumann_entropy,
)
from .errors import FamilyMismatchError, InvariantBreachError, PreconditionError
from .fastpath import check_family, run_circuit_fastpath
from .optics import ANGLED_KINDS, Circuit, GateElement, check_fits, circuit_from_json_dict, run_circuit, scan_scope
from .presets import PRESETS
from .states import PRUNE_EPS, AnyonState, check_tol, json_of, max_amplitude_diff, occ_to_string, prune, state_from_json_dict, wrap_phi
from .transmute import transmute_state

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FAMILY = 3
EXIT_PRECONDITION = 4
EXIT_INVARIANT = 5

DEFAULT_PHI_GRID = "0:6.283185307179586:13"
DEFAULT_THETA_GRID = "0:3.141592653589793:9"
#: most (phi, theta) points one ``entropy-scan`` may sweep; the default grid has 117
_GRID_BUDGET = 10**5


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_grid(spec: str) -> tuple[float, float, int]:
    """A ``start:stop:count`` grid as the arguments of ``np.linspace``; the bounds must be finite."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:count', got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid bounds must be finite, got {spec!r}")
    if count < 1:
        raise ValueError("grid count must be >= 1")
    return start, stop, count


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_state(args) -> AnyonState:
    """Exactly one of ``--preset`` and ``--state``.

    A state file with no amplitude above ``PRUNE_EPS``, or whose ``|psi|^2``
    overflows to inf (:meth:`~anyonsim.states.AnyonState.norm`), raises
    PreconditionError.
    """
    if (args.preset is None) == (args.state is None):
        raise ValueError("exactly one of --state and --preset is required")
    phi = getattr(args, "phi", None)
    if args.preset is not None:
        try:
            factory = PRESETS[args.preset]
        except KeyError:
            raise ValueError(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}")
        return factory(wrap_phi(phi) if phi is not None else 0.0)
    if phi is not None:
        raise ValueError("--phi retags a preset; a --state file carries its own phi")
    state = state_from_json_dict(_load_json(args.state))
    if not prune(state.amplitudes):
        raise PreconditionError(f"state has no amplitude above {PRUNE_EPS:g} in magnitude: the zero vector")
    state.norm()  # refuses a |psi|^2 over the float range
    return state


@contextmanager
def _output(path: str | None):
    """Stdout for no path or ``-``, left open; otherwise the file, opened on entry and closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as out:
            yield out


def cmd_run(args) -> int:
    check_tol("--tol", args.tol)
    state = _load_state(args)
    data = _load_json(args.circuit) if args.circuit is not None else {"m": state.m, "gates": []}
    # the circuit runs in the state's sector, so its own phi field is never read
    circuit = circuit_from_json_dict({**json_of("circuit", data, dict), "phi": state.phi})
    check_fits(state, circuit)

    engine = args.engine
    if engine == "both":
        try:
            check_family(circuit)
        except FamilyMismatchError as exc:
            print(f"warning: {exc}; downgrading engine 'both' to 'dense'", file=sys.stderr)
            engine = "dense"

    dense_out = run_circuit(state, circuit) if engine in ("dense", "both") else None
    fast_out = run_circuit_fastpath(state, circuit) if engine in ("fastpath", "both") else None
    final = dense_out if dense_out is not None else fast_out

    if engine == "both":
        delta = max_amplitude_diff(dense_out.amplitudes, fast_out.amplitudes)
        print(f"max |dense - fastpath| = {delta:.3e}", file=sys.stderr)
        tol = args.tol * max(1.0, state.norm())  # relative above norm 1, as the squared-norm check is
        if delta > tol:
            raise InvariantBreachError(f"dense and fast-path amplitudes differ by {delta:.3e} > tol {tol:g}")

    rows = sorted(((occ_to_string(occ, final.m), amp) for occ, amp in final.amplitudes.items()), key=itemgetter(0))
    body = "".join(f"{occ},{_fmt(amp.real)},{_fmt(amp.imag)}\n" for occ, amp in rows)
    with _output(args.out) as out:
        out.write("occ,re,im\n" + body)
    return EXIT_OK


def _scan_template(circuit_data: dict, theta: float, phi: float) -> tuple[Circuit, list[int]]:
    """The circuit in sector ``phi`` with ``theta`` at every null angle, parsed and validated, and the positions of those gates.

    Only :data:`~anyonsim.optics.ANGLED_KINDS` take the scan angle;
    :func:`_rebind_theta` moves the template to another grid point.
    """
    gates = []
    slots = []
    for entry in json_of("gates", json_of("circuit", circuit_data, dict)["gates"], list):
        entry = dict(json_of("gate", entry, dict))
        if entry["kind"] in ANGLED_KINDS and entry.get("theta") is None:
            entry["theta"] = theta
            slots.append(len(gates))
        gates.append(entry)
    return circuit_from_json_dict({"m": circuit_data["m"], "phi": phi, "gates": gates}), slots


def _rebind_theta(template: Circuit, slots: list[int], theta: float, phi: float) -> Circuit:
    """``template`` in sector ``phi`` with ``theta`` at the gates in ``slots``; :class:`GateElement` still validates each angle."""
    gates = list(template.gates)
    for k in slots:
        gate = gates[k]
        gates[k] = GateElement(gate.kind, gate.i, gate.j, theta)
    return Circuit(template.m, phi, tuple(gates))


def _table_key(state: AnyonState) -> tuple[tuple[int, ...], bytes]:
    """The occupations in table order and the raw bytes of the amplitudes.

    Equal keys mean bit-identical tables (-0.0 and 0.0 differ), so any
    function of the table alone gives the same result on both.
    """
    return tuple(state.amplitudes), np.array(list(state.amplitudes.values()), dtype=complex).tobytes()


def cmd_entropy_scan(args) -> int:
    """One row per (phi, theta) grid point, each evolved through its own circuit.

    The separability report depends only on the mode count, the amplitude
    table and ``--tol``, so points whose evolved tables are bit-identical
    share one :func:`is_separable` call; the particle traces depend on phi
    and run at every point.

    The grid loop runs inside one :func:`~anyonsim.optics.scan_scope`:
    every point still walks its orbits and builds and checks its own
    generator matrices, but an orbit block of size 2 and up with the bytes
    of one met at an earlier point reuses its exponential.  That depends on
    nothing else, so every row keeps its bits.  The scope closes when the
    loop ends or raises.

    The circuit, ``--circuit`` or one null-angle ``BS(1, 2)`` over the
    state's modes, is parsed and validated once, after the grid is built;
    each point rebinds only its null angles (:func:`_rebind_theta`).  A grid
    of more than ``_GRID_BUDGET`` points raises PreconditionError before
    either axis is built.
    """
    check_separability_tol("--tol", args.tol)
    base = _load_state(args)
    default = {"m": base.m, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": None}]}
    circuit_data = _load_json(args.circuit) if args.circuit is not None else default
    phi_grid, theta_grid = _parse_grid(args.phi_grid), _parse_grid(args.theta_grid)
    points = phi_grid[2] * theta_grid[2]
    if points > _GRID_BUDGET:
        raise PreconditionError(
            f"the scan grid has {points} points ({phi_grid[2]} phi x {theta_grid[2]} theta), over the budget of {_GRID_BUDGET}"
        )
    phis, thetas = np.linspace(*phi_grid), np.linspace(*theta_grid)
    template, slots = _scan_template(circuit_data, float(thetas[0]), wrap_phi(float(phis[0])))
    reports: dict[tuple[tuple[int, ...], bytes], SeparabilityReport] = {}
    rows = []
    with scan_scope():
        for phi in phis:
            phi = float(phi)
            sector = wrap_phi(phi)
            state = transmute_state(base, sector)
            for theta in thetas:
                theta = float(theta)
                evolved = run_circuit(state, _rebind_theta(template, slots, theta, sector))
                s_x = von_neumann_entropy(particle_trace_rdm(evolved, keep="x"))
                s_y = von_neumann_entropy(particle_trace_rdm(evolved, keep="y"))
                key = _table_key(evolved)
                report = reports.get(key)
                if report is None:
                    report = reports[key] = is_separable(evolved, tol=args.tol)
                rank = report.slater_rank if report.slater_rank is not None else -1
                rows.append((phi, theta, s_x, s_y, report.e_sp, rank))

    with _output(args.out) as out:
        out.write("phi,theta,S_x,S_y,E_SP,slater_rank\n")
        for phi, theta, s_x, s_y, e_sp, rank in rows:
            out.write(f"{_fmt(phi)},{_fmt(theta)},{_fmt(s_x)},{_fmt(s_y)},{_fmt(e_sp)},{rank}\n")
    return EXIT_OK


def cmd_schmidt(args) -> int:
    state = _load_state(args)
    dec = slater_decompose(state)
    report = {
        "z": [float(zk) for zk in dec.z],
        "rank": dec.rank,
        "modeBasis": [
            [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in dec.mode_unitary
        ],
    }
    with _output(args.out) as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_all(fast=not args.full)
    failed = False
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name} (max error {res.max_error:.3e})")
        failed = failed or not res.passed
    return 1 if failed else EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="anyonsim", description="fermionic-anyon circuit and entanglement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        p.add_argument("--state", help="path to a state JSON file")
        p.add_argument("--preset", help=f"named preset state ({', '.join(sorted(PRESETS))})")

    p_run = sub.add_parser("run", help="evolve a state through a circuit; emit amplitude CSV")
    add_state_args(p_run)
    p_run.add_argument("--phi", type=float, default=None, help="statistics parameter for preset states")
    p_run.add_argument("--circuit", help="path to a circuit JSON file")
    p_run.add_argument("--engine", choices=("dense", "fastpath", "both"), default="dense")
    p_run.add_argument("--out", help="output path (default stdout)")
    p_run.add_argument("--tol", type=float, default=1e-10)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("entropy-scan", help="sweep (phi, theta); emit entropy/separability CSV")
    add_state_args(p_scan)
    p_scan.add_argument("--circuit", help="circuit JSON; gates with null theta take the sweep angle")
    p_scan.add_argument("--phi-grid", default=DEFAULT_PHI_GRID, help="phi sweep as start:stop:count")
    p_scan.add_argument("--theta-grid", default=DEFAULT_THETA_GRID, help="theta sweep as start:stop:count")
    p_scan.add_argument("--out", help="output path (default stdout)")
    p_scan.add_argument("--tol", type=float, default=1e-8)
    p_scan.set_defaults(func=cmd_entropy_scan)

    p_schmidt = sub.add_parser("schmidt", help="pair normal form of a two-particle state as JSON")
    add_state_args(p_schmidt)
    p_schmidt.add_argument("--out", help="output path (default stdout)")
    p_schmidt.set_defaults(func=cmd_schmidt)

    p_check = sub.add_parser("check", help="run the fast property suites")
    p_check.add_argument("--full", action="store_true", help="run the exhaustive variants")
    p_check.set_defaults(func=cmd_check)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--option -value`` as ``--option=-value`` where ``-value`` starts with exactly one ``-`` and is not ``-h``.

    argparse reads a token such as ``-1e-3``, ``-inf`` or ``-x.csv`` as an
    option, so without this the space form fails with "expected one
    argument" where the ``=`` form parses.  A token that starts with ``--``
    or is ``-h`` is never attached, so ``--phi --circuit c.json`` and
    ``--preset -h`` still lack a value; ``check --full -x`` fails as ``--full=-x``.
    """
    out: list[str] = []
    for token in argv:
        one_dash = token.startswith("-") and not token.startswith("--") and token != "-h"
        if one_dash and out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except FamilyMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantBreachError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
