"""Property tests: engine agreement and norm preservation on random in-family circuits, and Bogoliubov transformations fuzzed over scale."""

import cmath
import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import jw_oracle as jw
from anyonsim import (
    AnyonState,
    BogoliubovPair,
    Circuit,
    PreconditionError,
    apply_induced_bogoliubov,
    bs,
    fswap,
    pa,
    ps,
    run_circuit,
    run_circuit_fastpath,
)
from anyonsim.states import NORM_ATOL
from conftest import table_diff

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi, allow_nan=False)
amplitudes = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def in_family_cases(draw):
    """A state of mixed particle number and a PS / nearest-neighbour BS / FSWAP / PA(1,2) circuit."""
    m = draw(st.integers(2, 7))
    phi = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=8, unique=True))
    table = {occ: complex(draw(amplitudes), draw(amplitudes)) for occ in occs}
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("PS", "BS", "FSWAP", "PA")))
        if kind == "PS":
            gates.append(ps(draw(st.integers(1, m)), draw(angles)))
        elif kind == "BS":
            a = draw(st.integers(1, m - 1))
            gates.append(bs(a, a + 1, draw(angles)))
        elif kind == "FSWAP":
            i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
            gates.append(fswap(i, j))
        else:
            gates.append(pa(1, 2, draw(angles)))
    return AnyonState(m, phi, table), Circuit(m, phi, tuple(gates))


@SETTINGS
@given(in_family_cases())
def test_dense_equals_fastpath(case):
    state, circuit = case
    assert table_diff(run_circuit(state, circuit), run_circuit_fastpath(state, circuit)) < 1e-10


@SETTINGS
@given(in_family_cases())
def test_both_engines_preserve_norm(case):
    state, circuit = case
    norm_in = state.norm() ** 2
    for engine in (run_circuit, run_circuit_fastpath):
        assert abs(engine(state, circuit).norm() ** 2 - norm_in) <= 1e-10 * max(1.0, norm_in)


@st.composite
def bogoliubov_cases(draw):
    """A normalized phi = 0 state on m <= 4 modes, with a Hermitian hopping block a and an antisymmetric pairing block b, both scaled by 10^k for k in [-300, 300]."""
    m = draw(st.integers(1, 4))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=1 << m, unique=True))
    table = {occ: complex(draw(amplitudes), draw(amplitudes)) for occ in occs}
    assume(max(map(abs, table.values())) > 0.1)
    scale = 10.0 ** draw(st.integers(-300, 300))
    a = np.zeros((m, m), dtype=complex)
    b = np.zeros((m, m), dtype=complex)
    for k in range(m):
        a[k, k] = draw(amplitudes) * scale
        for l in range(k + 1, m):
            a[k, l] = complex(draw(amplitudes), draw(amplitudes)) * scale
            a[l, k] = a[k, l].conjugate()
            b[k, l] = complex(draw(amplitudes), draw(amplitudes)) * scale
            b[l, k] = -b[k, l]
    return AnyonState(m, 0.0, table).normalized(), a, b


@SETTINGS
@given(bogoliubov_cases())
def test_bogoliubov_keeps_the_norm_or_is_refused(case):
    state, a, b = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = apply_induced_bogoliubov(state, BogoliubovPair.from_generator(a, b))
        except PreconditionError:
            return
    assert all(cmath.isfinite(amp) for amp in out.amplitudes.values())
    norm_in = state.norm() ** 2
    assert abs(out.norm() ** 2 - norm_in) <= NORM_ATOL * max(1.0, norm_in)
    if max(np.abs(a).max(), np.abs(b).max()) <= 10.0:
        ref = expm(1j * jw.bogoliubov_generator(state.m, a, b)) @ jw.vector(state.m, state.amplitudes)
        assert table_diff(out, jw.table(ref)) < 1e-10
