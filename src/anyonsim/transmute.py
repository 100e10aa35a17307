"""Statistics transmutation between anyonic sectors.

The maps act on operators as *-algebra homomorphisms: the image of an
annihilation operator for mode i is the same ladder factor dressed with a
diagonal number string over the modes below i.  Creation images are not
written out: each is :func:`~anyonsim.operators.term_adjoint` of the
annihilator's image.  On states the maps act trivially on the
amplitude table (Fock amplitudes are sector-invariant); only the phi tag
changes.

The sign of the dressing string is pinned by the same audit that fixes the
reordering phase in :mod:`anyonsim.states`: with the exchange relations as
implemented there, the matrix-element transport property
``<y|[O]_phi|x>_phi == <y|O|x>_0`` holds only for the sign below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import LadderTerm, OperatorExpr, ANNIHILATE, term_adjoint, term_product
from .states import AnyonState, check_sector

# Dressing sign: image of a_i under (phi1 -> phi2) carries
# exp(i * _TRANSMUTE_SIGN * (phi2 - phi1) * sum_{k<i} n_k).
_TRANSMUTE_SIGN = -1.0


@dataclass(frozen=True)
class TransmutationMap:
    """The operator homomorphism from the phi_source sector to phi_target."""

    phi_source: float
    phi_target: float

    def __post_init__(self) -> None:
        check_sector(self.phi_source)
        check_sector(self.phi_target)

    @property
    def delta(self) -> float:
        return self.phi_target - self.phi_source

    def inverse(self) -> "TransmutationMap":
        return TransmutationMap(self.phi_target, self.phi_source)


def _factor_image(mode: int, kind: str, delta: float) -> LadderTerm:
    # a_i -> a_i * exp(i * s * delta * sum_{k<i} n_k); a+_i goes to the adjoint of that image
    image = LadderTerm(1.0 + 0.0j, ((mode, ANNIHILATE),), {k: _TRANSMUTE_SIGN * delta for k in range(1, mode)})
    return image if kind == ANNIHILATE else term_adjoint(image)


def transmute_operator(expr: OperatorExpr, tmap: TransmutationMap) -> OperatorExpr:
    """Image of an operator expression under the sector map, in canonical form."""
    new_terms = []
    for term in expr.terms:
        acc = LadderTerm(term.coefficient)
        for mode, kind in term.factors:
            acc = term_product(acc, _factor_image(mode, kind, tmap.delta))
        # number strings are built from number operators, which are invariant
        acc = term_product(acc, LadderTerm(1.0 + 0.0j, (), dict(term.weights)))
        new_terms.append(acc)
    return OperatorExpr(expr.m, tuple(new_terms))


def transmute_state(state: AnyonState, phi_target: float) -> AnyonState:
    """Retag a state into another statistics sector.

    Fock amplitudes are invariant under the sector correspondence, so this
    is the identity on the amplitude table.
    """
    return AnyonState(state.m, phi_target, dict(state.amplitudes))


def fermionize(state: AnyonState) -> AnyonState:
    """Map a state to the fermionic sector (phi = 0)."""
    return transmute_state(state, 0.0)


def anyonize(state: AnyonState, phi: float) -> AnyonState:
    """Map a state into the phi sector."""
    return transmute_state(state, phi)
