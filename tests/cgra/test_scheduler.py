"""Tests for the resource-constrained list scheduler."""

from hypothesis import given, settings, strategies as st

from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.ops import Op
from repro.cgra.scheduler import ListScheduler


def schedule_source(source, **cfg):
    graph = compile_c_to_dfg(source)
    fabric = CgraFabric(CgraConfig(**cfg))
    return ListScheduler(fabric).schedule(graph)


CHAIN = """
void k() {
    float x = 1.0;
    while (1) { x = sqrt(x * x + 1.0); }
}
"""


class TestBasicScheduling:
    def test_chain_length_equals_critical_path(self):
        sched = schedule_source(CHAIN, rows=3, cols=3)
        lat = sched.fabric.config.latencies
        # mul -> add -> sqrt on one or adjacent PEs; routing may add hops.
        lower = lat.fmul + lat.fadd + lat.fsqrt
        assert lower <= sched.length <= lower + 4 * lat.route_hop

    def test_validate_passes(self):
        sched = schedule_source(CHAIN)
        sched.validate()  # no exception

    def test_zero_time_nodes_not_scheduled(self):
        sched = schedule_source(CHAIN)
        scheduled_ops = {s.op for s in sched.ops.values()}
        assert Op.CONST not in scheduled_ops
        assert Op.PHI not in scheduled_ops

    def test_independent_ops_parallelise(self):
        source = """
        void k() {
            float a = 1.0; float b = 1.0; float c = 1.0; float d = 1.0;
            while (1) {
                a = a * 1.1; b = b * 1.1; c = c * 1.1; d = d * 1.1;
            }
        }
        """
        wide = schedule_source(source, rows=3, cols=3)
        narrow = schedule_source(source, rows=1, cols=1)
        assert wide.length < narrow.length
        # On one PE the four multiplies serialise fully.
        lat = narrow.fabric.config.latencies
        assert narrow.length == 4 * lat.fmul

    def test_io_serialises_on_one_port(self):
        source = """
        void k() {
            float s = 0.0;
            while (1) {
                float a = read_sensor(0);
                float b = read_sensor(1);
                float c = read_sensor(2);
                s = a + b + c;
            }
        }
        """
        sched = schedule_source(source, rows=4, cols=4)
        io_starts = sorted(
            s.start for s in sched.ops.values()
            if sched.graph.node(s.node_id).is_io()
        )
        for a, b in zip(io_starts, io_starts[1:]):
            assert b - a >= ListScheduler.IO_ISSUE_TICKS

    def test_io_ops_on_io_pe(self):
        source = """
        void k() {
            float s = 0.0;
            while (1) { s = s + read_sensor(0); write_actuator(16, s); }
        }
        """
        sched = schedule_source(source)
        for s in sched.ops.values():
            if sched.graph.node(s.node_id).is_io():
                assert s.pe == sched.fabric.io_pe

    def test_heavy_ops_on_heavy_pes(self):
        sched = schedule_source(CHAIN, rows=4, cols=4, heavy_pe_fraction=0.25)
        for s in sched.ops.values():
            if s.op in (Op.FSQRT, Op.FDIV):
                assert s.pe in sched.fabric.heavy_pes


class TestPriorities:
    def test_critical_path_first(self):
        # A long chain plus many independent shorts: the chain head must
        # start at tick 0.
        source = """
        void k() {
            float x = 1.0; float y = 1.0;
            while (1) {
                x = sqrt(sqrt(sqrt(x)) + 1.0);
                y = y * 1.01 + 0.1;
            }
        }
        """
        sched = schedule_source(source, rows=2, cols=2)
        sqrt_starts = [s.start for s in sched.ops.values() if s.op is Op.FSQRT]
        assert min(sqrt_starts) == 0


class TestUtilisation:
    def test_fractions_in_range(self):
        sched = schedule_source(CHAIN, rows=3, cols=3)
        for pe, util in sched.pe_utilisation().items():
            assert 0.0 <= util <= 1.0

    def test_io_count(self):
        source = """
        void k() {
            float s = 0.0;
            while (1) { s = s + read_sensor(0); write_actuator(16, s); }
        }
        """
        sched = schedule_source(source)
        assert sched.io_op_count() == 2


class TestRandomGraphs:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from(["+", "-", "*", "/"]), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=3))
    def test_random_expression_schedules_validate(self, ops, size):
        """Property: any expression tree the frontend accepts yields a
        schedule satisfying every resource/dependence constraint."""
        expr = "x"
        for i, op in enumerate(ops):
            expr = f"({expr} {op} {1.5 + i})"
        source = f"void k() {{ float x = 1.0; while (1) {{ x = {expr}; }} }}"
        sched = schedule_source(source, rows=size, cols=size)
        sched.validate()
        assert sched.length > 0
