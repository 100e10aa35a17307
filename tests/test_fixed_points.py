"""A beam splitter or pairing gate leaves the kets it does not move alone, with the bits of exponentiating their 1 x 1 blocks."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, Circuit, bs, fswap, pa, ps, run_circuit
from anyonsim.operators import _term_shape, operator_matrix
from anyonsim.optics import apply_gate, generator_expr
from anyonsim.states import prune

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def every_stack_reference(state, gate):
    """The gate with every orbit stack, 1 x 1 included, sent through ``optics.expm`` and one ``einsum``."""
    expr = generator_expr(gate, state.m)
    shapes = list(filter(None, map(_term_shape, expr.terms)))
    basis, stacks = optics_mod._orbit_plan(shapes, state.amplitudes)
    h = operator_matrix(expr, state.phi, basis)
    vec = np.array([state.amplitudes.get(occ, 0.0) for occ in basis], dtype=complex)
    for idx in stacks:
        stack = h[idx[:, :, None], idx[:, None, :]]
        vec[idx] = np.einsum("kab,kb->ka", optics_mod.expm(1j * stack), vec[idx])
    return prune(dict(zip(basis, vec)))


def table_bytes(table):
    return tuple(table), np.array(list(table.values()), dtype=complex).tobytes()


parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def gate_cases(draw):
    """A table at m <= 8 with signed-zero parts and a random BS or PA, nearest-neighbour or distant."""
    m = draw(st.integers(2, 8))
    phi = draw(st.sampled_from([0.0, 1.3, math.pi]) | st.floats(0.0, 2 * math.pi, exclude_max=True))
    occs = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12, unique=True))
    table = {occ: complex(draw(parts), draw(parts)) for occ in occs}
    i = draw(st.integers(1, m))
    j = draw(st.sampled_from([k for k in (i - 1, i + 1) if 1 <= k <= m]) | st.integers(1, m).filter(lambda k: k != i))
    theta = draw(st.sampled_from([0.0, math.pi, -1.3]) | st.floats(-4.0, 4.0, allow_nan=False))
    gate = draw(st.sampled_from([bs, pa]))(i, j, theta)
    return AnyonState(m, phi, table), gate


@SETTINGS
@given(gate_cases())
def test_moving_gates_keep_the_bits_of_exponentiating_every_stack(case):
    state, gate = case
    assert table_bytes(apply_gate(state, gate).amplitudes) == table_bytes(every_stack_reference(state, gate))


def test_signed_zero_parts_of_fixed_kets_read_as_the_identity_product_gives():
    # 0b0011 and 0b1100 are fixed by BS(1, 2); 0b0101 moves
    state = AnyonState(4, 1.3, {0b0011: complex(0.6, -0.0), 0b1100: complex(-0.0, 0.48), 0b0101: 0.64})
    out = apply_gate(state, bs(1, 2, 0.7)).amplitudes
    assert table_bytes(out) == table_bytes(every_stack_reference(state, bs(1, 2, 0.7)))
    assert math.copysign(1.0, out[0b0011].imag) == 1.0 and math.copysign(1.0, out[0b1100].real) == 1.0


def test_a_beam_splitter_sends_no_fixed_ket_to_expm(monkeypatch):
    sent = []
    real_expm = optics_mod.expm

    def spy(stack):
        sent.append(stack.shape)
        return real_expm(stack)

    monkeypatch.setattr(optics_mod, "expm", spy)
    state = AnyonState(4, 0.0, {0b0011: 0.6, 0b1100: 0.48, 0b0101: 0.64})
    apply_gate(state, bs(1, 2, 0.7))
    assert sent == [(1, 2, 2)]  # only the orbit {0b0101, 0b0110}; the fixed 0b0011 and 0b1100 never reach expm


def test_run_circuit_outputs_hold_python_complex():
    state = AnyonState(4, 1.3, {0b0011: 0.6, 0b0101: 0.8})
    for gates in [(bs(1, 2, 0.7),), (pa(2, 4, 0.3),), (ps(1, 0.4),), (bs(1, 3, 0.2), fswap(2, 3), ps(4, -0.9))]:
        out = run_circuit(state, Circuit(4, 1.3, gates))
        assert out.amplitudes and all(type(amp) is complex for amp in out.amplitudes.values()), gates
