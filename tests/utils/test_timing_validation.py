"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_positive,
    check_square_matrix,
    check_symmetric,
)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -1)

    def test_check_square(self):
        check_square_matrix("a", np.eye(3))
        with pytest.raises(ValueError):
            check_square_matrix("a", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            check_square_matrix("a", np.zeros(3))

    def test_check_symmetric(self):
        check_symmetric("a", np.eye(4))
        bad = np.eye(4)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            check_symmetric("a", bad)

    def test_check_symmetric_scales_tolerance(self):
        a = 1e12 * np.eye(3)
        a[0, 1] = a[1, 0] = 1e-2  # tiny asymmetry relative to scale
        a[0, 1] += 1e-4
        check_symmetric("a", a)
