"""A gate's generator is exactly 0 between two orbits, so checking its blocks checks all of it.

The dense engine tests Hermiticity only on the orbit blocks it is about to
exponentiate.  That sees every entry of the generator on the orbit basis
because the orbits are closed: a term sends a ket only into its own orbit.
"""

import numpy as np
import pytest

import anyonsim.optics as optics_mod
from anyonsim import AnyonState, InvariantBreachError, bs, hopping, number, pa
from anyonsim.operators import _term_shape, operator_matrix
from anyonsim.optics import _apply_orbit_exponential, _orbit_plan, _quadratic_expr, generator_expr

CASES = 100


def random_generator(rng, m):
    """One BS or PA on two random modes, or a V != 0 quadratic generator with dense hopping and pairing."""
    if rng.random() < 0.5:
        i, j = (int(k) + 1 for k in rng.choice(m, size=2, replace=False))
        gate = bs if rng.random() < 0.5 else pa
        return generator_expr(gate(i, j, float(rng.uniform(-np.pi, np.pi))), m)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return _quadratic_expr(m, a + a.conj().T, b - b.T)


@pytest.mark.parametrize("phi", [0.0, 1.3, np.pi, None], ids=["0", "1.3", "pi", "random"])
def test_the_generator_is_exactly_zero_off_the_orbit_blocks(phi):
    rng = np.random.default_rng(2024)
    several = 0  # cases with two orbits or more, where an entry between orbits exists
    for _ in range(CASES):
        m = int(rng.integers(2, 9))
        expr = random_generator(rng, m)
        kets = [int(occ) for occ in rng.choice(1 << m, size=int(rng.integers(1, min(1 << m, 12) + 1)), replace=False)]
        basis, stacks = _orbit_plan(list(map(_term_shape, expr.terms)), kets)
        h = operator_matrix(expr, rng.uniform(0.0, 2 * np.pi) if phi is None else phi, basis)
        on_blocks = np.zeros(h.shape, dtype=bool)
        for idx in stacks:
            on_blocks[idx[:, :, None], idx[:, None, :]] = True
        assert not np.any(h[~on_blocks])
        several += sum(len(idx) for idx in stacks) > 1
    assert several > CASES // 2


@pytest.mark.parametrize(
    "expr",
    [hopping(4, 1, 2, 0.3j), number(4, 1, 0.2 + 0.3j)],
    ids=["moving", "diagonal"],
)
def test_a_non_hermitian_block_is_refused_before_any_exponential(monkeypatch, expr):
    def no_expm(blocks):
        raise AssertionError("a stack went to expm before every stack was checked")

    monkeypatch.setattr(optics_mod, "expm", no_expm)
    # the hop leaves |1100> alone (its 1 x 1 stack comes first) and pairs |1000> with |0100>
    psi = AnyonState(4, 1.3, {0b0011: 0.6, 0b0001: 0.8})
    with pytest.raises(InvariantBreachError, match="^gate generator is not Hermitian on its orbits$"):
        _apply_orbit_exponential(psi, expr)
