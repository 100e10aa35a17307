"""An entropy input that is not one square matrix with at least one row is refused by value, before numpy reads it."""

import re

import numpy as np
import pytest

from anyonsim import InvariantBreachError, PreconditionError
from anyonsim.entanglement import DensityMatrix, von_neumann_entropy


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 2, 2), (0, 0), (0, 3)])
def test_a_raw_array_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(PreconditionError, match=rf"^entropy requires one square matrix with at least one row, got shape {re.escape(str(shape))}$"):
        von_neumann_entropy(np.ones(shape))


def test_a_one_by_one_raw_array_is_taken():
    assert von_neumann_entropy(np.ones((1, 1))) == 0.0


@pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
def test_an_empty_or_non_square_density_matrix_breaks_an_invariant(shape):
    with pytest.raises(InvariantBreachError, match="^density matrix must be square$"):
        DensityMatrix(np.zeros(shape))
