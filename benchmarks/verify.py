"""Output checks for benchmark items.

Every function here reads the CLI's CSV text and returns a :class:`Verdict`;
none of them imports the program, so a check cannot share a defect with the
code it checks. Reference tables (another engine's output, the inverse
circuit's output) are computed by the caller and passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: the CLI's default ``--tol`` for ``run``; every amplitude and norm check uses it
RUN_TOL = 1e-10
#: |S_x - S_y| allowed on a scan row; both traces share a spectrum
ENTROPY_TOL = 1e-9
#: E_SP allowed on the split-pair headline scan
E_SP_TOL = 1e-8

AMPLITUDE_HEADER = "occ,re,im"
SCAN_HEADER = "phi,theta,S_x,S_y,E_SP,slater_rank"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    #: largest |amplitude - reference| seen, or None if no reference was compared
    deviation: float | None = None
    #: | ||out|| - ||in|| |, or None for scans
    norm_drift: float | None = None


def amplitudes_from_csv(text: str) -> dict[str, complex]:
    """Parse an ``anyonsim run`` amplitude CSV into {occupation string: amplitude}."""
    lines = text.splitlines()
    if not lines or lines[0] != AMPLITUDE_HEADER:
        raise ValueError(f"amplitude CSV must start with {AMPLITUDE_HEADER!r}")
    table: dict[str, complex] = {}
    for line in lines[1:]:
        occ, re, im = line.split(",")
        if occ in table:
            raise ValueError(f"configuration {occ} appears twice")
        table[occ] = complex(float(re), float(im))
    return table


def table_norm(table: dict) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in table.values()))


def max_deviation(a: dict, b: dict) -> float:
    """Largest componentwise |a - b| over the union of keys."""
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


def check_run(text: str, input_table: dict[str, complex], reference: dict[str, complex] | None = None) -> Verdict:
    """Norm preserved within :data:`RUN_TOL`; if given, agreement with ``reference`` within it too."""
    try:
        out = amplitudes_from_csv(text)
    except ValueError as exc:
        return Verdict(False, f"malformed amplitude CSV: {exc}")
    drift = abs(table_norm(out) - table_norm(input_table))
    if not drift <= RUN_TOL:
        return Verdict(False, f"norm drift {drift:.3e} > {RUN_TOL:g}", norm_drift=drift)
    if reference is None:
        return Verdict(True, norm_drift=drift)
    dev = max_deviation(out, reference)
    if not dev <= RUN_TOL:
        return Verdict(False, f"reference deviation {dev:.3e} > {RUN_TOL:g}", dev, drift)
    return Verdict(True, deviation=dev, norm_drift=drift)


def check_inverse(returned: dict[str, complex], input_table: dict[str, complex]) -> Verdict:
    """The output run back through the inverse circuit must give the input within :data:`RUN_TOL`."""
    dev = max_deviation(returned, input_table)
    if not dev <= RUN_TOL:
        return Verdict(False, f"inverse circuit misses the input by {dev:.3e} > {RUN_TOL:g}", dev)
    return Verdict(True, deviation=dev)


def _linspace(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [start]
    return [start + (stop - start) * k / (count - 1) for k in range(count)]


def check_scan(text: str, grid: tuple[int, int], headline: bool) -> Verdict:
    """Every grid row present, |S_x - S_y| <= 1e-9 on each; on the headline, E_SP ~ 0 and rank 1."""
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return Verdict(False, f"scan CSV must start with {SCAN_HEADER!r}")
    phis = _linspace(0.0, 2.0 * math.pi, grid[0])
    thetas = _linspace(0.0, math.pi, grid[1])
    expected = [(p, t) for p in phis for t in thetas]
    rows = lines[1:]
    if len(rows) != len(expected):
        return Verdict(False, f"scan has {len(rows)} rows, grid has {len(expected)} points")
    for line, (phi, theta) in zip(rows, expected):
        try:
            p, t, s_x, s_y, e_sp, rank = line.split(",")
            p, t, s_x, s_y, e_sp, rank = float(p), float(t), float(s_x), float(s_y), float(e_sp), int(rank)
        except ValueError:
            return Verdict(False, f"malformed scan row {line!r}")
        if not (abs(p - phi) <= 1e-9 and abs(t - theta) <= 1e-9):
            return Verdict(False, f"row {line!r} is not grid point ({phi:.12g}, {theta:.12g})")
        if not abs(s_x - s_y) <= ENTROPY_TOL:
            return Verdict(False, f"|S_x - S_y| = {abs(s_x - s_y):.3e} > {ENTROPY_TOL:g} on row {line!r}")
        if headline and not (e_sp <= E_SP_TOL and rank == 1):
            return Verdict(False, f"split-pair row {line!r} is not separable with Slater rank 1")
    return Verdict(True)
