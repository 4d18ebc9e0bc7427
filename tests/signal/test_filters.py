"""Tests for the display/analysis filters."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SignalError
from repro.signal.filters import moving_average
from repro.signal.interpolation import linear_fetch_pair


class TestMovingAverage:
    def test_width_one_identity(self):
        x = np.array([1.0, 5.0, -2.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_constant_preserved(self):
        x = np.full(20, 3.3)
        np.testing.assert_allclose(moving_average(x, 5), 3.3)

    def test_width_five_interior(self):
        x = np.arange(20.0)
        out = moving_average(x, 5)
        # Linear data: centred average equals the point itself.
        np.testing.assert_allclose(out[2:-2], x[2:-2])

    def test_edges_shrink_window(self):
        x = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
        out = moving_average(x, 5)
        assert out[0] == pytest.approx(10.0 / 3)  # window [0..2]

    def test_same_length(self):
        assert moving_average(np.arange(7.0), 5).shape == (7,)

    def test_smooths_noise(self, rng):
        x = rng.normal(0, 1, 1000)
        out = moving_average(x, 5)
        assert out.std() < x.std() * 0.6

    def test_validation(self):
        with pytest.raises(SignalError):
            moving_average(np.zeros((2, 2)), 5)
        with pytest.raises(SignalError):
            moving_average(np.zeros(5), 0)

    @given(st.integers(min_value=1, max_value=21))
    def test_mean_preserving_on_constant(self, width):
        x = np.full(50, 7.7)
        np.testing.assert_allclose(moving_average(x, width), 7.7)


class TestLinearFetch:
    def test_pair(self):
        assert linear_fetch_pair(0.0, 10.0, 0.25) == pytest.approx(2.5)
        assert linear_fetch_pair(4.0, 4.0, 0.9) == 4.0

    def test_pair_fraction_bounds(self):
        with pytest.raises(SignalError):
            linear_fetch_pair(0.0, 1.0, -0.1)
        with pytest.raises(SignalError):
            linear_fetch_pair(0.0, 1.0, 1.5)
