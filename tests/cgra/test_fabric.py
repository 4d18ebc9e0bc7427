"""Tests for the PE fabric and interconnect."""

import itertools

import pytest

from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.ops import Op
from repro.errors import ConfigurationError, ScheduleError


class TestConfig:
    def test_paper_examples(self):
        # "allowing an arbitrary number of PEs (e.g. 3x3 or 5x5)"
        assert CgraConfig(rows=3, cols=3).n_pes == 9
        assert CgraConfig(rows=5, cols=5).n_pes == 25

    def test_clock_period(self):
        assert CgraConfig(clock_mhz=111.0).clock_period_s == pytest.approx(1 / 111e6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CgraConfig(rows=0)
        with pytest.raises(ConfigurationError):
            CgraConfig(clock_mhz=-1)
        with pytest.raises(ConfigurationError):
            CgraConfig(heavy_pe_fraction=0.0)
        with pytest.raises(ConfigurationError):
            CgraConfig(io_pe=(9, 9), rows=3, cols=3)


class TestFabric:
    def test_grid_neighbours(self):
        fab = CgraFabric(CgraConfig(rows=3, cols=3))
        assert fab.hop_distance((0, 0), (0, 1)) == 1
        assert fab.hop_distance((0, 0), (2, 2)) == 4  # manhattan
        assert fab.hop_distance((1, 1), (1, 1)) == 0

    def test_torus_shortens_paths(self):
        plain = CgraFabric(CgraConfig(rows=4, cols=4))
        torus = CgraFabric(CgraConfig(rows=4, cols=4, torus=True))
        assert torus.hop_distance((0, 0), (3, 3)) < plain.hop_distance((0, 0), (3, 3))

    def test_every_pe_does_basic_ops(self):
        fab = CgraFabric(CgraConfig(rows=3, cols=3))
        for pe in fab.pes:
            assert fab.supports(pe, Op.FADD)
            assert fab.supports(pe, Op.FMUL)

    def test_heavy_ops_subset(self):
        fab = CgraFabric(CgraConfig(rows=4, cols=4, heavy_pe_fraction=0.25))
        heavy = [pe for pe in fab.pes if fab.supports(pe, Op.FSQRT)]
        assert len(heavy) == 4
        assert set(heavy) == fab.heavy_pes

    def test_at_least_one_heavy_pe(self):
        fab = CgraFabric(CgraConfig(rows=1, cols=2, heavy_pe_fraction=0.01))
        assert len(fab.heavy_pes) == 1

    def test_single_io_pe(self):
        fab = CgraFabric(CgraConfig(rows=3, cols=3, io_pe=(1, 1)))
        io_pes = [pe for pe in fab.pes if fab.supports(pe, Op.SENSOR_READ)]
        assert io_pes == [(1, 1)]

    def test_candidates(self):
        fab = CgraFabric(CgraConfig(rows=2, cols=2))
        assert len(fab.candidates(Op.FADD)) == 4
        assert fab.candidates(Op.ACTUATOR_WRITE) == [fab.io_pe]

    def test_routing_delay_scales_with_hops(self):
        fab = CgraFabric(CgraConfig(rows=3, cols=3))
        per_hop = fab.config.latencies.route_hop
        assert fab.routing_delay((0, 0), (2, 2)) == 4 * per_hop


def _oracle_hops(config, a, b):
    """Closed-form hop count: Manhattan on a grid; on a torus each axis
    longer than 2 wraps, so it takes the shorter way round."""

    def axis(delta, n):
        delta = abs(delta)
        return min(delta, n - delta) if config.torus and n > 2 else delta

    return axis(a[0] - b[0], config.rows) + axis(a[1] - b[1], config.cols)


class TestRoutingDistances:
    """``hop_distance`` against a closed form, independent of how the
    fabric computes its shortest paths."""

    @pytest.mark.parametrize("torus", [False, True])
    def test_every_pair_matches_closed_form(self, torus):
        for rows, cols in itertools.product(range(1, 7), repeat=2):
            config = CgraConfig(rows=rows, cols=cols, torus=torus)
            fab = CgraFabric(config)
            assert fab.pes == sorted(itertools.product(range(rows), range(cols)))
            for a, b in itertools.product(fab.pes, repeat=2):
                assert fab.hop_distance(a, b) == _oracle_hops(config, a, b), (rows, cols, a, b)

    def test_unknown_pe_has_no_route(self):
        fab = CgraFabric(CgraConfig(rows=2, cols=2))
        with pytest.raises(ScheduleError, match="no route"):
            fab.hop_distance((0, 0), (5, 5))
        with pytest.raises(ScheduleError, match="no route"):
            fab.routing_delay((5, 5), (0, 0))
