"""The exchange, number-commutator and statistics-endpoint suites share one basis-ket loop, and each still fails on a broken algebra."""

import cmath

import pytest

import anyonsim.checks as checks_mod
import anyonsim.operators as operators_mod
import anyonsim.states as states_mod
from anyonsim.checks import (
    _worst_on_basis,
    check_exchange_relations,
    check_number_commutators,
    check_statistics_endpoints,
)
from anyonsim.operators import identity_expr, number


def test_the_identities_are_built_once_per_m_and_phi():
    calls = []

    def identities(m, phi):
        calls.append((m, phi))
        yield number(m, 1), identity_expr(m)  # n_1 - 1 is -1 on every ket with mode 1 empty
        yield number(m, m), None  # n_m is 1 on every ket with mode m occupied

    assert _worst_on_basis((1, 2, 3), (0.0, 0.4), identities) == 1.0
    assert calls == [(m, phi) for m in (1, 2, 3) for phi in (0.0, 0.4)]


@pytest.mark.parametrize("suite, ladders", [(check_exchange_relations, 3), (check_number_commutators, 1)])
def test_each_ladder_operator_is_built_once_per_index_pair_not_once_per_ket(monkeypatch, suite, ladders):
    built = []
    for name in ("annihilation", "creation"):
        real = getattr(checks_mod, name)
        monkeypatch.setattr(checks_mod, name, lambda m, i, real=real: built.append(i) or real(m, i))
    result = suite(m_values=(3,), phi_values=(0.5,))
    assert result.passed
    assert len(built) == ladders * 3 * 3  # per (i, j), with 8 kets at m = 3


def test_unconjugated_annihilator_phases_fail_exchange_relations_and_number_commutators(monkeypatch):
    real = operators_mod._phase_tables

    def plain_for_both(m, phi):
        _, plain = real(m, phi)
        return plain, plain

    monkeypatch.setattr(operators_mod, "_phase_tables", plain_for_both)
    for suite in (check_exchange_relations, check_number_commutators):
        result = suite(m_values=(2, 3))
        assert not result.passed
        assert result.max_error > 1e-3


def test_a_reordering_phase_without_its_sign_fails_exchange_relations_and_statistics_endpoints(monkeypatch):
    def unsigned(phi, crossings):
        return 1.0 + 0.0j if crossings == 0 else cmath.exp(1j * states_mod._REORDER_SIGN * phi * crossings)

    monkeypatch.setattr(states_mod, "reorder_phase", unsigned)
    monkeypatch.setattr(operators_mod, "reorder_phase", unsigned)
    for suite in (check_exchange_relations, check_statistics_endpoints):
        result = suite(m_values=(2, 3))
        assert not result.passed
        assert result.max_error > 1e-3
