"""Every gate kind and random circuits against the fractional Jordan-Wigner reference.

:mod:`jw_oracle` builds each gate as ``expm`` of its generator from the
creators a+_i = prod_{k<i} exp(i (pi - phi) n_k) sigma+_i on the whole
2^m space, sharing no code with the kernel.  FSWAP is the mapped fermionic
swap, so it is compared at phi = 0 only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jw_oracle as jw
from anyonsim import Circuit, GateElement, apply_fswap, apply_gate, run_circuit
from conftest import random_state, table_diff

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("kind", ["PS", "BS", "PA"])
def test_every_gate_on_every_pair_matches_the_jordan_wigner_exponential(rng, kind):
    # every ordered pair, so distant and reversed pairs are all covered, on states of mixed and of definite N
    for m in range(2, 6):
        phi = float(rng.uniform(0.0, 2 * math.pi))
        states = random_state(rng, m, phi), random_state(rng, m, phi, m // 2)
        for i in range(1, m + 1):
            for j in [None] if kind == "PS" else [j for j in range(1, m + 1) if j != i]:
                gate = GateElement(kind, i, j, float(rng.uniform(-math.pi, math.pi)))
                for psi in states:
                    assert table_diff(apply_gate(psi, gate), jw.evolve(psi, [gate])) < 1e-12, (gate, phi)


def test_fswap_on_every_pair_matches_the_fermionic_swap():
    rng = np.random.default_rng(5)
    for m in range(2, 6):
        psi = random_state(rng, m, 0.0)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    gate = GateElement("FSWAP", i, j)
                    assert table_diff(apply_fswap(psi, i, j), jw.evolve(psi, [gate])) < 1e-12, gate


@st.composite
def circuits(draw):
    m = draw(st.integers(2, 6))
    phi = draw(st.just(0.0) | st.floats(0.0, 2 * math.pi, exclude_max=True))
    kinds = ["PS", "BS", "PA"] + (["FSWAP"] if phi == 0.0 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        i = draw(st.integers(1, m))
        j = None if kind == "PS" else draw(st.integers(1, m).filter(lambda j: j != i))
        theta = None if kind == "FSWAP" else draw(st.floats(-math.pi, math.pi))
        gates.append(GateElement(kind, i, j, theta))
    n = draw(st.none() | st.integers(0, m))
    psi = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, phi, n)
    return psi, Circuit(m, phi, tuple(gates))


@SETTINGS
@given(circuits())
def test_random_circuits_match_the_product_of_reference_gates(case):
    psi, circuit = case
    assert table_diff(run_circuit(psi, circuit), jw.evolve(psi, circuit.gates)) < 1e-12
