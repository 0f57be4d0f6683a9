"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.validation import check_positive


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_square(self):
        TLRMatrix.from_dense(np.eye(3), tile_size=2, accuracy=1e-8)
        with pytest.raises(ValueError, match="square"):
            TLRMatrix.from_dense(np.zeros((2, 3)), tile_size=2, accuracy=1e-8)
        with pytest.raises(ValueError, match="square"):
            TLRMatrix.from_dense(np.zeros(3), tile_size=2, accuracy=1e-8)
