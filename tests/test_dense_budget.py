"""A dense gate whose orbit basis is over the budget exits 4 before its generator matrix is allocated."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, PreconditionError
from anyonsim.cli import main
from anyonsim.optics import Circuit, bs, ps, run_circuit
from anyonsim.states import occ_to_string

SRC = Path(__file__).resolve().parents[1] / "src"


def uniform_state(m, occs):
    amp = complex(len(occs) ** -0.5)
    return AnyonState(m, 0.0, {occ: amp for occ in occs})


@pytest.fixture
def small_budget(monkeypatch):
    built = []
    real = optics_mod.operator_matrix

    def spy(expr, phi, basis):
        built.append(len(basis))
        return real(expr, phi, basis)

    monkeypatch.setattr(optics_mod, "ORBIT_BASIS_MAX", 4)
    monkeypatch.setattr(optics_mod, "operator_matrix", spy)
    return built


def test_a_basis_at_the_budget_runs(small_budget):
    # two kets, each hopped to a partner by BS(1, 2): the basis holds four
    state = uniform_state(4, [0b0001, 0b1001])
    run_circuit(state, Circuit(4, 0.0, (bs(1, 2, 0.3),)))
    assert small_budget == [4]


def test_a_basis_over_the_budget_is_refused_before_the_matrix(small_budget):
    state = uniform_state(4, [0b0001, 0b0010, 0b0100, 0b1000, 0b0011])
    with pytest.raises(PreconditionError, match=r"d = 5 kets, over the dense budget of 4"):
        run_circuit(state, Circuit(4, 0.0, (ps(1, 0.3),)))
    assert small_budget == []


def test_the_budget_counts_the_orbit_basis_not_the_input(small_budget):
    # three kets, each hopped to a partner by BS(1, 2): the basis holds six
    state = uniform_state(4, [0b0001, 0b0101, 0b1001])
    with pytest.raises(PreconditionError, match=r"d = 6 kets"):
        run_circuit(state, Circuit(4, 0.0, (bs(1, 2, 0.3),)))
    assert small_budget == []


def test_cli_exits_4_over_the_budget(small_budget, tmp_path, capsys):
    kets = [0b0001, 0b0101, 0b1001]
    state = {"m": 4, "phi": 0.0, "amplitudes": [{"occ": occ_to_string(occ, 4), "re": 0.5, "im": 0.5} for occ in kets]}
    (tmp_path / "s.json").write_text(json.dumps(state))
    (tmp_path / "c.json").write_text(json.dumps({"m": 4, "phi": 0.0, "gates": [{"kind": "BS", "i": 1, "j": 2, "theta": 0.3}]}))
    out = tmp_path / "amps.csv"
    code = main(["run", "--state", str(tmp_path / "s.json"), "--circuit", str(tmp_path / "c.json"), "--out", str(out)])
    assert code == 4
    assert "d = 6 kets" in capsys.readouterr().err
    assert small_budget == [] and not out.exists()


#: address-space cap for the child: far below the 4 GiB generator a full m = 14 state would need
CAP_BYTES = 1536 * 2**20


def test_phase_shifter_on_a_full_14_mode_state_exits_4_under_a_memory_cap(tmp_path):
    resource = pytest.importorskip("resource")
    m = 14
    amp = 2.0 ** (-m / 2)
    state = {"m": m, "phi": 0.0, "amplitudes": [{"occ": occ_to_string(occ, m), "re": amp, "im": 0.0} for occ in range(1 << m)]}
    (tmp_path / "s.json").write_text(json.dumps(state))
    (tmp_path / "c.json").write_text(json.dumps({"m": m, "phi": 0.0, "gates": [{"kind": "PS", "i": 1, "theta": 0.3}]}))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "anyonsim.cli", "run", "--state", "s.json", "--circuit", "c.json", "--out", "out.csv"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "d = 16384 kets, over the dense budget of 8192" in proc.stderr
    assert not (tmp_path / "out.csv").exists()


#: address-space cap for the BS(1, 15) child; one d x d complex copy of its 6435-ket generator is 632 MiB
BS_CAP_BYTES = 1280 * 2**20
#: a distant beam splitter on the full (15, 7) sector, under ORBIT_BASIS_MAX
FULL_15_7 = """
from itertools import combinations
from anyonsim import AnyonState, Circuit, bs, run_circuit
kets = [sum(1 << k for k in picks) for picks in combinations(range(15), 7)]
out = run_circuit(AnyonState(15, 1.1, dict.fromkeys(kets, len(kets) ** -0.5)), Circuit(15, 1.1, (bs(1, 15, 0.7),)))
print(len(kets), len(out.amplitudes))
"""


def test_a_distant_beam_splitter_on_a_full_15_mode_sector_runs_under_a_memory_cap():
    # the gate checks Hermiticity on its 2 x 2 blocks, never on d x d copies of the generator
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (BS_CAP_BYTES, BS_CAP_BYTES))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FULL_15_7], env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6435", "6435"]
