"""Tests for the direct-FPGA turnaround cost model."""

import pytest

from repro.baselines.fpga_direct import DirectFpgaFlow
from repro.cgra.models import compile_beam_model
from repro.errors import ConfigurationError


class TestDirectFpgaFlow:
    def test_multiple_hours_at_paper_scale(self):
        # The paper: "hardware synthesis times of multiple hours" — our
        # default model lands in the hours range for VC707-scale designs.
        flow = DirectFpgaFlow()
        seconds = flow.synthesis_seconds(180.0)
        assert seconds > 3600.0

    def test_monotone_in_size(self):
        flow = DirectFpgaFlow()
        assert flow.synthesis_seconds(200.0) > flow.synthesis_seconds(50.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DirectFpgaFlow().synthesis_seconds(0.0)


class TestComparison:
    def test_cgra_wins_by_orders_of_magnitude(self):
        cgra = compile_beam_model(n_bunches=1).compile_seconds
        fpga = DirectFpgaFlow().synthesis_seconds(180.0)
        # "seconds ... compared to a full FPGA synthesis that can easily
        # take hours": at least 100x apart.
        assert fpga > 100 * cgra
        assert cgra < 30.0
