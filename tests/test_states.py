import math

import pytest

from anyonsim import (
    AnyonState,
    PreconditionError,
    apply_annihilate,
    apply_create,
    apply_number,
    basis_state,
    inner_product,
    occ_from_string,
    occ_to_string,
    state_from_json_dict,
    state_to_json_dict,
    vacuum,
)
from conftest import random_state, table_diff


def test_vacuum_examples():
    v = vacuum(2, 0.0)
    assert v.amplitudes == {0: 1.0 + 0.0j}
    v4 = vacuum(4, math.pi / 3)
    assert v4.amplitude("0000") == 1.0
    for i in range(1, 5):
        assert apply_annihilate(v4, i).amplitudes == {}


def test_vacuum_rejects_zero_modes():
    with pytest.raises(PreconditionError):
        vacuum(0, 0.0)


def test_basis_state_convention():
    for phi in (0.0, 1.2, math.pi):
        st = basis_state("1010", phi)
        assert st.amplitudes == {occ_from_string("1010"): 1.0 + 0.0j}
        # increasing-order creation string: rightmost factor acts first
        built = apply_create(apply_create(vacuum(4, phi), 3), 1)
        assert table_diff(built, st) == 0.0


def test_basis_orthonormality():
    m = 4
    for phi in (0.0, 2.0):
        for x in range(1 << m):
            for y in range(1 << m):
                val = inner_product(basis_state(x, phi, m), basis_state(y, phi, m))
                assert val == (1.0 if x == y else 0.0)


def test_apply_create_fermionic_sign():
    # creating mode 2 past an occupied mode 1 anticommutes at phi = 0
    out = apply_create(basis_state("1000", 0.0), 2)
    assert table_diff(out, {occ_from_string("1100"): -1.0}) < 1e-15


def test_apply_create_no_left_occupation_is_phase_free():
    for phi in (0.0, 0.7, math.pi, 5.5):
        out = apply_create(basis_state("0100", phi), 1)
        assert table_diff(out, {occ_from_string("1100"): 1.0}) < 1e-15


def test_apply_create_hardcore_boson_commutes():
    # at phi = pi cross-mode creation operators commute
    out = apply_create(basis_state("1000", math.pi), 2)
    assert table_diff(out, {occ_from_string("1100"): 1.0}) < 1e-12
    m = 4
    for x in range(1 << m):
        st = basis_state(x, math.pi, m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                ab = apply_create(apply_create(st, j), i)
                ba = apply_create(apply_create(st, i), j)
                assert table_diff(ab, ba) < 1e-12


def test_apply_create_occupied_mode_vanishes():
    assert apply_create(basis_state("10", 0.3), 1).amplitudes == {}


def test_annihilate_is_adjoint_of_create(rng):
    for m in (2, 4, 6):
        for phi in (0.0, 1.1, math.pi):
            psi = random_state(rng, m, phi)
            chi = random_state(rng, m, phi)
            for i in range(1, m + 1):
                lhs = inner_product(psi, apply_create(chi, i))
                rhs = inner_product(apply_annihilate(psi, i), chi)
                assert abs(lhs - rhs) < 1e-12


def test_create_then_annihilate_roundtrip():
    for phi in (0.0, 2.9):
        for x in range(1 << 3):
            st = basis_state(x, phi, 3)
            for i in range(1, 4):
                if not x >> (i - 1) & 1:
                    assert table_diff(apply_annihilate(apply_create(st, i), i), st) < 1e-14


def test_apply_number():
    st = basis_state("1010", 1.3)
    assert table_diff(apply_number(st, 1), st) == 0.0
    assert apply_number(st, 2).amplitudes == {}
    # n_i == a+_i a_i on every basis state
    for x in range(1 << 4):
        ket = basis_state(x, 0.8, 4)
        for i in range(1, 5):
            direct = apply_number(ket, i)
            composed = apply_create(apply_annihilate(ket, i), i)
            assert table_diff(direct, composed) < 1e-14


def test_create_norm_behaviour(rng):
    psi = random_state(rng, 5, 1.9)
    for i in range(1, 6):
        assert apply_create(psi, i).norm() <= psi.norm() + 1e-12
    # exactly norm-preserving on the empty-mode subspace
    sub = AnyonState(5, 1.9, {occ: amp for occ, amp in psi.amplitudes.items() if not occ & 1})
    assert abs(apply_create(sub, 1).norm() - sub.norm()) < 1e-12


def test_inner_product_sesquilinear(rng):
    a = random_state(rng, 4, 0.4)
    b = random_state(rng, 4, 0.4)
    c = random_state(rng, 4, 0.4)
    alpha, beta = 0.3 - 1.7j, -0.8 + 0.2j
    combo = AnyonState(4, 0.4, {
        occ: alpha * b.amplitudes.get(occ, 0.0) + beta * c.amplitudes.get(occ, 0.0)
        for occ in set(b.amplitudes) | set(c.amplitudes)
    })
    lhs = inner_product(a, combo)
    rhs = alpha * inner_product(a, b) + beta * inner_product(a, c)
    assert abs(lhs - rhs) < 1e-12
    assert abs(inner_product(a, a) - 1.0) < 1e-12


def test_inner_product_sector_mismatch():
    with pytest.raises(PreconditionError):
        inner_product(vacuum(2, 0.0), vacuum(3, 0.0))
    with pytest.raises(PreconditionError):
        inner_product(vacuum(2, 0.0), vacuum(2, 1.0))


def test_mode_index_out_of_range():
    st = vacuum(3, 0.0)
    for op in (apply_create, apply_annihilate, apply_number):
        with pytest.raises(PreconditionError):
            op(st, 0)
        with pytest.raises(PreconditionError):
            op(st, 4)


def test_state_validation():
    with pytest.raises(PreconditionError):
        AnyonState(2, 0.0, {4: 1.0})
    with pytest.raises(PreconditionError):
        AnyonState(2, -0.1, {0: 1.0})
    with pytest.raises(PreconditionError):
        AnyonState(2, 2 * math.pi, {0: 1.0})


def test_occ_string_helpers():
    assert occ_to_string(occ_from_string("01101"), 5) == "01101"
    with pytest.raises(PreconditionError):
        occ_from_string("01201")


def test_json_round_trip(rng):
    psi = random_state(rng, 5, 2.4)
    back = state_from_json_dict(state_to_json_dict(psi))
    assert back.m == psi.m and back.phi == psi.phi
    assert table_diff(back, psi) < 1e-15


def test_normalized():
    st = AnyonState(2, 0.0, {0: 2.0})
    assert st.normalized().amplitudes == {0: 1.0 + 0.0j}
    with pytest.raises(PreconditionError):
        AnyonState(2, 0.0, {}).normalized()


def test_state_json_refuses_an_occupation_listed_twice():
    entry = {"occ": "1100", "re": 1.0, "im": 0.0}
    with pytest.raises(ValueError, match=r"^occupation '1100' appears twice$"):
        state_from_json_dict({"m": 4, "phi": 0.0, "amplitudes": [entry, dict(entry)]})


def test_no_modes_render_as_the_empty_string():
    assert occ_to_string(0b101, 0) == ""
