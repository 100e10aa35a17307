"""``is_separable`` decides by the rule it cross-checks and refuses a ``tol`` that rule cannot use.

A state is separable iff its N largest occupations lie within ``tol`` of 1
and the rest within ``tol`` of 0.  For two particles that is exactly the
pair normal form's rank 1 at ``rank_tol = sqrt(tol)``, so the cross-check
never fires on a ``tol`` in ``[SEPARABILITY_TOL_FLOOR, 1)``.
"""

import json
import math
import re

import numpy as np
import pytest

from anyonsim import AnyonState, PreconditionError, basis_state, is_separable
from anyonsim.cli import main
from anyonsim.entanglement import SEPARABILITY_TOL_FLOOR, SlaterDecomposition, reconstruct_from_slater
from anyonsim.presets import split_pair
from anyonsim.states import state_to_json_dict


def four_triples() -> AnyonState:
    """12 modes, 3 particles: an equal superposition of four disjoint triples, every occupation 1/4."""
    return AnyonState(12, 0.0, {0b111 << 3 * k: 0.5 + 0.0j for k in range(4)})


def three_pairs() -> AnyonState:
    """6 modes, 2 particles: (1/sqrt 3)(|110000> + |001100> + |000011>), every occupation 1/3."""
    amp = complex(1 / math.sqrt(3))
    return AnyonState(6, 0.0, {0b000011: amp, 0b001100: amp, 0b110000: amp})


@pytest.mark.parametrize("tol, separable", [(1e-8, False), (0.3, False), (0.74, False), (0.76, True)])
def test_three_particles_spread_over_four_triples_are_separable_only_at_a_tol_that_reaches_1_from_a_quarter(tol, separable):
    report = is_separable(four_triples(), tol=tol)
    assert np.allclose(report.occupations, 0.25)
    assert report.separable is separable
    assert report.slater_rank is None  # no pair cross-check for N = 3


@pytest.mark.parametrize("tol", [SEPARABILITY_TOL_FLOOR, 1e-8, 0.5, 0.999])
def test_a_three_particle_fock_state_is_separable_at_every_tol_taken(tol):
    assert is_separable(basis_state("1010100", 1.3), tol=tol).separable is True


@pytest.mark.parametrize("tol", [0.34, 0.4, 0.6])
def test_occupations_near_zero_alone_are_not_separable(tol):
    report = is_separable(three_pairs(), tol=tol)
    assert (report.separable, report.slater_rank) == (False, 2)


@pytest.mark.parametrize("seed", range(8))
def test_the_verdict_is_the_pair_tail_against_tol(seed):
    rng = np.random.default_rng(seed)
    m = 6
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    for tail in np.logspace(-11, math.log10(0.6), 12):
        rest = rng.dirichlet([1.0, 1.0]) * tail  # squared coefficients of the second and third pair
        z = np.sqrt(np.array([1.0 - tail, *rest]))
        state = reconstruct_from_slater(SlaterDecomposition(unitary, z, 3), m)
        for tol in (tail / 3, 3 * tail):
            if SEPARABILITY_TOL_FLOOR <= tol < 1.0:
                report = is_separable(state, tol=tol)  # raises if the verdict and the pair rank disagree
                assert report.separable is (report.slater_rank == 1) is bool(tail <= tol)


@pytest.mark.parametrize("tol", [0.0, 1e-16, 0.99 * SEPARABILITY_TOL_FLOOR, 1.0, 2.5])
def test_a_tol_the_rule_cannot_use_is_refused_by_value(tol):
    with pytest.raises(PreconditionError, match=f"^tol must lie in .*, got {re.escape(str(tol))}$"):
        is_separable(split_pair(0.7), tol=tol)


@pytest.mark.parametrize("tol", ["0", "1e-16", "1", "1.5"])
def test_entropy_scan_refuses_a_tol_the_rule_cannot_use(tmp_path, capsys, tol):
    out = tmp_path / "scan.csv"
    argv = ["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:2", "--theta-grid", "0:1:2", "--tol", tol]
    assert main([*argv, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: --tol must lie in [1e-12, 1)") and f"got {float(tol)}" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0.34", "0.4", "0.6"])
def test_entropy_scan_of_occupations_near_zero_alone_answers(tmp_path, tol):
    state = tmp_path / "s.json"
    state.write_text(json.dumps(state_to_json_dict(three_pairs())))
    out = tmp_path / "scan.csv"
    assert main(["entropy-scan", "--state", str(state), "--phi-grid", "0:1:2", "--theta-grid", "0:1:2", "--tol", tol, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
