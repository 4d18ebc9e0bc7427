"""Tests for the static schedule/context verifier (repro.cgra.verify)."""

import dataclasses

import pytest

from repro.cgra.context import ContextEntry, build_context_images
from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.models import compile_beam_model
from repro.cgra.modulo import ModuloScheduler
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import SensorBus
from repro.cgra.verify import (
    Severity,
    verify_context_images,
    verify_modulo_schedule,
    verify_schedule,
)
from repro.errors import VerificationError

SOURCE = """
void k() {
    float s = 0.0;
    while (1) {
        float v = read_sensor(0);
        write_actuator(16, s);
        s = s + v * 2.0;
    }
}
"""


def make_schedule(rows=2, cols=2, **cfg):
    graph = compile_c_to_dfg(SOURCE)
    fabric = CgraFabric(CgraConfig(rows=rows, cols=cols, **cfg))
    return ListScheduler(fabric).schedule(graph)


def replace_entry(images, pe, index, **changes):
    """Swap one frozen ContextEntry for a mutated copy."""
    old = images[pe].entries[index]
    images[pe].entries[index] = dataclasses.replace(old, **changes)
    return images[pe].entries[index]


class TestCleanKernels:
    @pytest.mark.parametrize("n_bunches", [1, 4, 8])
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_beam_models_verify_clean(self, n_bunches, pipelined):
        model = compile_beam_model(n_bunches=n_bunches, pipelined=pipelined)
        report = verify_schedule(model.schedule)
        assert report.ok
        assert len(report) == 0

    def test_small_kernel_verifies_clean(self):
        assert verify_schedule(make_schedule()).ok

    @pytest.mark.parametrize("n_bunches", [1, 4])
    def test_modulo_schedule_verifies_clean(self, n_bunches):
        model = compile_beam_model(n_bunches=n_bunches)
        ms = ModuloScheduler(model.schedule.fabric).schedule(model.graph)
        report = verify_modulo_schedule(ms)
        assert report.ok

    def test_schedule_verify_method(self):
        report = make_schedule().verify()
        assert report.ok

    def test_deadline_pass_and_fail(self):
        sched = make_schedule()
        clock_hz = sched.fabric.config.clock_mhz * 1e6
        generous = clock_hz / (4 * sched.length)
        assert verify_schedule(sched, f_rev=generous).ok
        impossible = clock_hz  # budget of 1 tick per revolution
        report = verify_schedule(sched, f_rev=impossible)
        assert report.has("deadline")
        assert not report.ok


class TestCorruptions:
    """Each corruption class yields the expected diagnostic, not a crash."""

    def test_operand_arrives_after_issue(self):
        sched = make_schedule()
        images = build_context_images(sched)
        # Find an entry whose operand is also a context entry, and make
        # the consumer issue at its producer's tick (before readiness).
        placed = {
            e.node_id: (pe, i, e)
            for pe, img in images.items()
            for i, e in enumerate(img.entries)
        }
        for nid, (pe, i, e) in placed.items():
            producers = [o for o in e.operands if o in placed]
            if producers:
                p_tick = placed[producers[0]][2].tick
                replace_entry(images, pe, i, tick=p_tick)
                break
        else:
            pytest.fail("no entry with a scheduled operand")
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("operand-not-ready")
        assert not report.ok

    def test_double_booked_pe(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if len(img.entries) >= 2)
        first = images[pe].entries[0]
        replace_entry(images, pe, 1, tick=first.tick)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("pe-overlap")

    def test_oversized_context_memory(self):
        sched = make_schedule()
        images = build_context_images(sched)
        tiny = CgraFabric(CgraConfig(rows=2, cols=2, context_slots=1))
        report = verify_context_images(images, sched.graph, tiny)
        assert report.has("context-overflow")

    def test_out_of_range_constant(self):
        sched = make_schedule()
        images = build_context_images(sched)
        const = next(n for n in sched.graph.nodes.values() if n.op.value == "const")
        pe = next(iter(images))
        images[pe].entries.append(
            ContextEntry(
                tick=0, op="const", node_id=const.node_id, operands=(), value=1e39
            )
        )
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("const-range")

    def test_io_rate_violation(self):
        sched = make_schedule()
        images = build_context_images(sched)
        io_pe = sched.fabric.io_pe
        ios = [
            i for i, e in enumerate(images[io_pe].entries) if e.io_id is not None
        ]
        assert len(ios) >= 2
        first = images[io_pe].entries[ios[0]]
        replace_entry(images, io_pe, ios[1], tick=first.tick + 1)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("io-rate")

    def test_missing_op(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if img.entries)
        del images[pe].entries[0]
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("missing-op")

    def test_io_moved_off_io_pe(self):
        sched = make_schedule()
        images = build_context_images(sched)
        io_pe = sched.fabric.io_pe
        other = next(pe for pe in images if pe != io_pe)
        idx = next(
            i for i, e in enumerate(images[io_pe].entries) if e.io_id is not None
        )
        entry = images[io_pe].entries.pop(idx)
        images[other].entries.append(entry)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("io-wrong-pe")
        assert report.has("capability")

    def test_op_mismatch_and_unknown_node(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if img.entries)
        replace_entry(images, pe, 0, node_id=9999)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("unknown-node")
        assert report.has("missing-op")

    def test_negative_tick(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if img.entries)
        replace_entry(images, pe, 0, tick=-1)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("negative-tick")

    def test_duplicate_op(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if img.entries)
        dup = images[pe].entries[0]
        far = dataclasses.replace(dup, tick=dup.tick + 100)
        images[pe].entries.append(far)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("duplicate-op")

    def test_all_corruptions_are_reported_together(self):
        """The verifier lists every problem, not just the first one."""
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if len(img.entries) >= 2)
        # Both at the same negative tick: negative-tick twice AND overlap.
        replace_entry(images, pe, 0, tick=-2)
        replace_entry(images, pe, 1, tick=-2)
        report = verify_context_images(images, sched.graph, sched.fabric)
        assert report.has("pe-overlap")
        assert report.has("negative-tick")
        assert len(report.errors()) >= 2


class TestModuloCorruptions:
    def make(self):
        model = compile_beam_model(n_bunches=1)
        return ModuloScheduler(model.schedule.fabric).schedule(model.graph)

    def test_reservation_conflict(self):
        ms = self.make()
        nids = [
            nid for nid, (pe, _s) in ms.ops.items()
            if not ms.graph.nodes[nid].is_io()
        ]
        a, b = nids[0], nids[1]
        pe_a, start_a = ms.ops[a]
        ms.ops[b] = (pe_a, start_a)
        report = verify_modulo_schedule(ms)
        assert report.has("pe-overlap") or report.has("operand-not-ready")
        assert not report.ok

    def test_missing_op(self):
        ms = self.make()
        nid = next(iter(ms.ops))
        del ms.ops[nid]
        report = verify_modulo_schedule(ms)
        assert report.has("missing-op")

    def test_deadline_is_ii_based(self):
        ms = self.make()
        clock_hz = ms.fabric.config.clock_mhz * 1e6
        # One initiation per II ticks: a budget between II and the flat
        # schedule length must still pass.
        f_rev = clock_hz / (ms.ii + 1)
        assert verify_modulo_schedule(ms, f_rev=f_rev).ok
        assert verify_modulo_schedule(ms, f_rev=clock_hz).has("deadline")

    def test_verify_method(self):
        assert self.make().verify().ok


class TestExecutorVerifyOnLoad:
    def test_executor_accepts_clean_schedule(self):
        sched = make_schedule()
        bus = SensorBus()
        bus.register_reader(0, lambda: 0.0)
        bus.register_writer(16, lambda v: None)
        ex = CgraExecutor(sched, bus, {}, verify=True)
        ex.run(1)

    def test_executor_rejects_corrupt_schedule(self):
        sched = make_schedule()
        nid, placed = next(
            (nid, p) for nid, p in sched.ops.items()
            if not sched.graph.nodes[nid].is_io() and sched.graph.nodes[nid].operands
        )
        sched.ops[nid] = dataclasses.replace(placed, start=0, finish=1)
        bus = SensorBus()
        bus.register_reader(0, lambda: 0.0)
        bus.register_writer(16, lambda v: None)
        with pytest.raises(VerificationError) as exc:
            CgraExecutor(sched, bus, {}, verify=True)
        assert "operand-not-ready" in str(exc.value) or "pe-overlap" in str(exc.value)

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert str(Severity.ERROR) == "error"


class TestReportApi:
    def test_render_and_dict(self):
        sched = make_schedule()
        images = build_context_images(sched)
        pe = next(pe for pe, img in images.items() if img.entries)
        replace_entry(images, pe, 0, tick=-5)
        report = verify_context_images(images, sched.graph, sched.fabric)
        d = report.errors()[0]
        assert "schedule/negative-tick" in d.render()
        as_dict = d.to_dict()
        assert as_dict["severity"] == "error"
        assert as_dict["pass"] == "schedule"
        assert "format" not in report.format()  # smoke: renders to text
