"""Property tests: engine agreement and norm preservation on random in-family circuits."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim import AnyonState, Circuit, bs, fswap, pa, ps, run_circuit, run_circuit_fastpath
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
