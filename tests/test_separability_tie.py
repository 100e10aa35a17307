"""At a tie, a ``tol`` equal to the pair tail sum_{k>=2} z_k^2, ``is_separable`` reports the pair form's verdict.

There the occupation rule and the rank at ``rank_tol = sqrt(tol)`` test the
same boundary and may round to opposite sides of it: that is no breach of
the cross-check, which still raises away from a tie.
"""

import dataclasses

import numpy as np
import pytest

import anyonsim.entanglement as ent_mod
from anyonsim import AnyonState, InvariantBreachError, is_separable
from anyonsim.cli import main
from anyonsim.entanglement import SEPARABILITY_TOL_FLOOR, slater_decompose


def test_entropy_scan_of_two_slater_at_its_tail_exits_0(tmp_path, capsys):
    out = tmp_path / "tie.csv"
    assert main(["entropy-scan", "--preset", "two-slater", "--tol", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 118
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"1"}  # the tail 1/2 is at most tol = 1/2
    assert capsys.readouterr().err == ""


def random_pair_state(rng: np.random.Generator) -> AnyonState:
    """2 to 4 distinct two-particle kets over 4 to 7 modes with random complex amplitudes, in a random sector."""
    m = int(rng.integers(4, 8))
    pairs = [(1 << a) | (1 << b) for a in range(m) for b in range(a + 1, m)]
    occs = rng.choice(pairs, size=int(rng.integers(2, 5)), replace=False)
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    return AnyonState(m, float(rng.uniform(0.0, 2 * np.pi)), {int(o): complex(a) for o, a in zip(occs, amps)})


@pytest.mark.parametrize("seed", range(4))
def test_a_tol_at_the_pair_tail_never_raises_and_reports_the_pair_verdict(seed):
    rng = np.random.default_rng(seed)
    decided = 0
    for _ in range(40):
        state = random_pair_state(rng)
        tail = float(np.sum(slater_decompose(state).z[1:] ** 2))
        if SEPARABILITY_TOL_FLOOR <= tail < 1.0:
            report = is_separable(state, tol=tail)
            assert report.separable is (report.slater_rank == 1)
            decided += 1
    assert decided >= 20  # most random superpositions are entangled


def test_a_disagreement_off_a_tie_still_raises(monkeypatch):
    real = ent_mod.slater_decompose

    def rank_one(state, rank_tol):
        return dataclasses.replace(real(state, rank_tol=rank_tol), rank=1)

    monkeypatch.setattr(ent_mod, "slater_decompose", rank_one)
    state = AnyonState(4, 0.0, {0b0011: 0.6 + 0.0j, 0b1100: 0.8 + 0.0j})  # tail 0.36
    with pytest.raises(InvariantBreachError, match="disagrees"):
        is_separable(state, tol=0.36 - 1e-9)
