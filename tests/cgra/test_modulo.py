"""Tests for the modulo scheduler (automatic software pipelining)."""

import pytest

from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.models import compile_beam_model
from repro.cgra.modulo import ModuloScheduler
from repro.errors import ScheduleError


@pytest.fixture(scope="module")
def fabric():
    return CgraFabric(CgraConfig())


def schedule_src(source, fabric):
    return ModuloScheduler(fabric).schedule(compile_c_to_dfg(source))


INDEPENDENT = """
void k() {
    float a = 0.0;
    float b = 0.0;
    while (1) {
        a = read_sensor(0) * 0.5;
        b = read_sensor(1) * 0.25;
        write_actuator(16, a);
        write_actuator(17, b);
    }
}
"""

RECURRENCE = """
void k() {
    float x = 1.0;
    while (1) { x = sqrt(x * x + 1.0) * 0.5; }
}
"""


class TestLowerBounds:
    def test_io_bound_kernel(self, fabric):
        sched = schedule_src(INDEPENDENT, fabric)
        # 4 IO ops x 2 issue ticks on one port = ResMII 8.
        assert sched.res_mii == 8
        assert sched.ii >= 8

    def test_recurrence_bound_kernel(self, fabric):
        sched = schedule_src(RECURRENCE, fabric)
        lat = fabric.config.latencies
        expected = lat.fmul + lat.fadd + lat.fsqrt + lat.fmul
        assert sched.rec_mii == expected
        assert sched.ii >= expected

    def test_ii_at_least_mii(self, fabric):
        for src in (INDEPENDENT, RECURRENCE):
            sched = schedule_src(src, fabric)
            assert sched.ii >= max(sched.res_mii, sched.rec_mii)


class TestValidation:
    def test_valid_schedules_pass(self, fabric):
        for src in (INDEPENDENT, RECURRENCE):
            schedule_src(src, fabric).validate()

    def test_corrupted_reservation_detected(self, fabric):
        sched = schedule_src(INDEPENDENT, fabric)
        # Force two IO ops onto the same modulo slot.
        io_ids = [
            nid for nid, (pe, s) in sched.ops.items()
            if sched.graph.node(nid).is_io()
        ]
        pe, start = sched.ops[io_ids[0]]
        sched.ops[io_ids[1]] = (pe, start)
        with pytest.raises(ScheduleError):
            sched.validate()

    def test_corrupted_dependence_detected(self, fabric):
        sched = schedule_src(RECURRENCE, fabric)
        # Move a consumer before its producer finishes.
        graph = sched.graph
        for node in graph.nodes.values():
            if node.is_zero_time() or not node.operands:
                continue
            producer = graph.node(node.operands[0])
            if producer.is_zero_time():
                continue
            pe, _ = sched.ops[node.node_id]
            sched.ops[node.node_id] = (pe, 0)
            _, p_start = sched.ops[producer.node_id]
            if p_start > 0:
                break
        with pytest.raises(ScheduleError):
            sched.validate()


class TestBeamModel:
    def test_beats_or_matches_list_scheduler_ii(self, fabric):
        """Modulo scheduling on the barrier-split model initiates at
        least as fast as the manual factor-2 schedule executes."""
        for n_bunches in (1, 4, 8):
            model = compile_beam_model(n_bunches=n_bunches, pipelined=True)
            modulo = ModuloScheduler(fabric).schedule(model.graph)
            assert modulo.ii <= model.schedule_length

    def test_recurrence_cut_by_manual_barrier(self, fabric):
        """The paper's barrier halves the recurrence: RecMII of the
        barrier-split graph is far below the unsplit graph's."""
        plain = ModuloScheduler(fabric).recurrence_mii(
            compile_beam_model(n_bunches=1, pipelined=False).graph
        )
        split = ModuloScheduler(fabric).recurrence_mii(
            compile_beam_model(n_bunches=1, pipelined=True).graph
        )
        assert split < 0.25 * plain

    def test_io_port_is_the_eventual_bound(self, fabric):
        """At 8 bunches the SensorAccess port pressure dominates ResMII."""
        model = compile_beam_model(n_bunches=8, pipelined=True)
        ms = ModuloScheduler(fabric)
        res = ms.resource_mii(model.graph)
        # 17 IO ops x 2 issue ticks = 34-36 ticks of port pressure.
        assert res >= 30

    def test_max_revolution_frequency_uses_ii(self, fabric):
        model = compile_beam_model(n_bunches=8, pipelined=True)
        sched = ModuloScheduler(fabric).schedule(model.graph)
        assert sched.max_revolution_frequency() == pytest.approx(111e6 / sched.ii)
        assert sched.stage_count >= 1
        assert sched.length >= sched.ii
