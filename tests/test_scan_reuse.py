"""entropy-scan decides separability once per distinct evolved table; the argument parser is built once."""

import struct

import numpy as np

import anyonsim.cli as cli_mod
from anyonsim import AnyonState
from anyonsim.cli import _build_parser, _table_key, main
from anyonsim.entanglement import is_separable
from anyonsim.optics import run_circuit


def table_bits(state):
    return tuple((occ, struct.pack("<dd", complex(a).real, complex(a).imag)) for occ, a in state.amplitudes.items())


def test_memo_hits_return_the_report_of_a_fresh_decision(tmp_path, monkeypatch):
    evolved, decided = [], []

    def run_spy(state, circuit):
        out = run_circuit(state, circuit)
        evolved.append(out)
        return out

    def decide_spy(state, tol):
        decided.append(state)
        return is_separable(state, tol=tol)

    monkeypatch.setattr(cli_mod, "run_circuit", run_spy)
    monkeypatch.setattr(cli_mod, "is_separable", decide_spy)
    out = tmp_path / "scan.csv"
    argv = ["entropy-scan", "--preset", "split-pair", "--phi-grid", "0:6.283185307179586:7", "--theta-grid", "0:3.141592653589793:5"]
    assert main([*argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(evolved) == 35
    # one decision per bit-distinct table: phi leaves the table unchanged at some points, not at all
    assert 0 < len(decided) < len(evolved)
    assert len(decided) == len({table_bits(state) for state in decided}) == len({table_bits(state) for state in evolved})
    for row, state in zip(rows, evolved):
        fresh = is_separable(state, tol=1e-8)
        assert row[4:] == [f"{fresh.e_sp:.12g}", str(fresh.slater_rank)]


def test_table_key_keeps_order_and_signed_zero():
    a = AnyonState(3, 0.0, {0b011: 0.6, 0b101: 0.0j})
    assert _table_key(a) == _table_key(AnyonState(3, 2.0, {0b011: np.complex128(0.6), 0b101: 0.0}))
    assert _table_key(a) != _table_key(AnyonState(3, 0.0, {0b011: 0.6, 0b101: complex(-0.0, 0.0)}))
    assert _table_key(a) != _table_key(AnyonState(3, 0.0, {0b101: 0.0j, 0b011: 0.6}))


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()
    args = _build_parser().parse_args(["run", "--preset", "split-pair"])
    again = _build_parser().parse_args(["check", "--full"])
    assert args.engine == "dense" and args.tol == 1e-10 and again.full and not hasattr(again, "engine")
