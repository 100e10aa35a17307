"""entropy-scan shares block exponentials across its grid, with the bits of a fresh evolution."""

import contextlib
import json
import math
import random

import numpy as np
import pytest

import anyonsim.cli as cli_mod
import anyonsim.optics as optics_mod
from anyonsim import AnyonState, InvariantBreachError, PreconditionError
from anyonsim.cli import main
from anyonsim.operators import _term_shape
from anyonsim.optics import Circuit, bs, generator_expr, pa, ps, run_circuit, scan_scope
from anyonsim.presets import split_pair
from anyonsim.states import state_to_json_dict, wrap_phi
from anyonsim.transmute import transmute_state

PHIS = (0.0, 1.3, math.pi)
THETAS = tuple(np.linspace(0.0, math.pi, 5))


def table_bytes(state):
    return tuple(state.amplitudes), np.array(list(state.amplitudes.values()), dtype=complex).tobytes()


def chain_case(seed):
    """A seeded 8-mode, two-particle state of four kets and a chain of null-angle BS with fixed PS."""
    rng = random.Random(seed)
    occs = set()
    while len(occs) < 4:
        occs.add(sum(1 << k for k in rng.sample(range(8), 2)))
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in occs]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    state = AnyonState(8, 0.0, {occ: a / norm for occ, a in zip(sorted(occs), amps)})
    gates = []
    for i in range(1, 8):
        gates.append({"kind": "BS", "i": i, "j": i + 1, "theta": None})
        gates.append({"kind": "PS", "i": i + 1, "theta": rng.uniform(-math.pi, math.pi)})
    return state, {"m": 8, "phi": 0.0, "gates": gates}


def chain_circuit(data, theta, sector):
    gates = tuple(
        bs(g["i"], g["j"], theta) if g["kind"] == "BS" else ps(g["i"], g["theta"]) for g in data["gates"]
    )
    return Circuit(data["m"], sector, gates)


CASES = {
    "split-pair": (split_pair(0.0), lambda theta, sector: Circuit(4, sector, (bs(1, 2, theta),))),
    "chain": (chain_case(11)[0], lambda theta, sector: chain_circuit(chain_case(11)[1], theta, sector)),
}


def evolve_grid(base, circuit_for):
    out = []
    for phi in PHIS:
        sector = wrap_phi(phi)
        state = transmute_state(base, sector)
        for theta in THETAS:
            out.append(table_bytes(run_circuit(state, circuit_for(float(theta), sector))))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_in_one_scope_bitwise_equal_fresh_evolution(case):
    base, circuit_for = CASES[case]
    fresh = evolve_grid(base, circuit_for)
    with scan_scope() as scope:
        shared = evolve_grid(base, circuit_for)
    assert shared == fresh
    assert scope.blocks  # the scope was used


def scan_argv(tmp_path, case):
    grid = ["--phi-grid", "0:3.141592653589793:3", "--theta-grid", "0:3.141592653589793:5"]
    if case == "split-pair":
        return ["entropy-scan", "--preset", "split-pair", *grid]
    state, circuit = chain_case(11)
    state_path, circuit_path = tmp_path / "s.json", tmp_path / "c.json"
    state_path.write_text(json.dumps(state_to_json_dict(state)))
    circuit_path.write_text(json.dumps(circuit))
    return ["entropy-scan", "--state", str(state_path), "--circuit", str(circuit_path), *grid]


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_rows_and_tables_bitwise_equal_point_by_point_runs(tmp_path, monkeypatch, case):
    argv = scan_argv(tmp_path, case)
    calls = []

    def spy(state, circuit):
        out = run_circuit(state, circuit)
        calls.append((state, circuit, out))
        return out

    monkeypatch.setattr(cli_mod, "run_circuit", spy)
    shared_csv = tmp_path / "shared.csv"
    assert main([*argv, "--out", str(shared_csv)]) == 0
    assert optics_mod._SCAN_SCOPE.get() is None
    for state, circuit, out in calls:
        assert table_bytes(out) == table_bytes(run_circuit(state, circuit))

    monkeypatch.setattr(cli_mod, "run_circuit", run_circuit)
    monkeypatch.setattr(cli_mod, "scan_scope", contextlib.nullcontext)
    plain_csv = tmp_path / "plain.csv"
    assert main([*argv, "--out", str(plain_csv)]) == 0
    assert shared_csv.read_bytes() == plain_csv.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_distinct_block_reaches_expm_once_per_scan(tmp_path, monkeypatch, case):
    argv = scan_argv(tmp_path, case)
    seen = []
    real_expm = optics_mod.expm

    def spy(stack):
        seen.extend(block.tobytes() for block in stack)
        return real_expm(stack)

    monkeypatch.setattr(optics_mod, "expm", spy)
    assert main([*argv, "--out", str(tmp_path / "scan.csv")]) == 0
    larger = [block for block in seen if len(block) > 16]  # larger than 1 x 1: one complex128 is 16 bytes
    assert larger and len(larger) == len(set(larger)), f"{len(larger)} slices, {len(set(larger))} distinct"
    # no 1 x 1 block reaches expm: a beam splitter leaves its fixed kets alone, a phase shifter's stack goes to np.exp
    assert not [block for block in seen if len(block) == 16]


def test_each_scan_gets_its_own_scope(tmp_path, monkeypatch):
    scopes = []

    def spy(state, circuit):
        scopes.append(optics_mod._SCAN_SCOPE.get())
        return run_circuit(state, circuit)

    monkeypatch.setattr(cli_mod, "run_circuit", spy)
    argv = ["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:2", "--theta-grid", "0:1:2"]
    assert main([*argv, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    first, second = scopes[:4], scopes[4:]
    assert first[0] is not None and all(s is first[0] for s in first)
    assert second[0] is not None and all(s is second[0] for s in second)
    assert first[0] is not second[0]
    assert optics_mod._SCAN_SCOPE.get() is None


@pytest.mark.parametrize("error, code", [(PreconditionError, 4), (InvariantBreachError, 5)])
def test_no_scope_stays_open_after_a_scan_that_fails_midway(tmp_path, monkeypatch, capsys, error, code):
    calls = []

    def failing(state, circuit):
        calls.append(optics_mod._SCAN_SCOPE.get())
        if len(calls) == 3:
            raise error("stop at the third point")
        return run_circuit(state, circuit)

    monkeypatch.setattr(cli_mod, "run_circuit", failing)
    argv = ["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:1:2", "--theta-grid", "0:1:2"]
    assert main([*argv, "--out", str(tmp_path / "scan.csv")]) == code
    assert "stop at the third point" in capsys.readouterr().err
    assert calls[0] is not None and len(calls) == 3
    assert optics_mod._SCAN_SCOPE.get() is None


def test_library_calls_outside_a_scan_share_nothing(monkeypatch):
    seen = []
    real_expm = optics_mod.expm

    def spy(stack):
        seen.extend(block.tobytes() for block in stack)
        return real_expm(stack)

    monkeypatch.setattr(optics_mod, "expm", spy)
    circuit = Circuit(4, 0.0, (bs(1, 2, 0.4),))
    run_circuit(split_pair(0.0), circuit)
    half = len(seen)
    run_circuit(split_pair(0.0), circuit)
    assert half > 0 and seen[half:] == seen[:half]  # the second run exponentiates its blocks again


def test_library_calls_outside_a_scan_each_plan_their_orbits(monkeypatch):
    planned = []
    real_plan = optics_mod._orbit_plan

    def spy(shapes, kets):
        planned.append(tuple(kets))
        return real_plan(shapes, kets)

    monkeypatch.setattr(optics_mod, "_orbit_plan", spy)
    circuit = Circuit(4, 0.0, (bs(1, 2, 0.4),))
    first = run_circuit(split_pair(0.0), circuit)
    second = run_circuit(split_pair(0.0), circuit)
    assert table_bytes(first) == table_bytes(second)
    assert len(planned) == 2 and planned[0] == planned[1]  # the second call plans again: no table outlives a call


def plan_of(state, gate):
    shapes = list(filter(None, map(_term_shape, generator_expr(gate, state.m).terms)))
    return optics_mod._orbit_plan(shapes, state.amplitudes)[0]


def test_gates_and_ket_orders_get_distinct_plans():
    a, b = 0.6 + 0.0j, 0.0 + 0.8j
    state = AnyonState(4, 1.3, {0b0101: a, 0b1001: b})
    permuted = AnyonState(4, 1.3, {0b1001: b, 0b0101: a})
    bases = {
        "BS(1,2)": plan_of(state, bs(1, 2, 0.3)),
        "PA(1,2)": plan_of(state, pa(1, 2, 0.3)),
        "BS(2,3)": plan_of(state, bs(2, 3, 0.3)),
        "BS(1,2) permuted": plan_of(permuted, bs(1, 2, 0.3)),
    }
    # the same terms on the same kets in the same order give the same plan, whatever the angle or sector
    assert plan_of(transmute_state(state, 0.0), bs(1, 2, -1.1)) == bases["BS(1,2)"]
    assert bases == {
        "BS(1,2)": [0b0101, 0b0110, 0b1001, 0b1010],
        "PA(1,2)": [0b0101, 0b1001],
        "BS(2,3)": [0b0101, 0b0011, 0b1001],
        "BS(1,2) permuted": [0b1001, 0b1010, 0b0101, 0b0110],
    }
