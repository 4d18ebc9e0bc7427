"""Tests for the ASCII schedule renderer."""

import pytest

from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.visualize import render_schedule, utilisation_bars

SOURCE = """
void k() {
    float x = 1.0;
    while (1) {
        float v = read_sensor(0);
        write_actuator(16, x);
        x = sqrt(x * x + v);
    }
}
"""


@pytest.fixture(scope="module")
def schedule():
    graph = compile_c_to_dfg(SOURCE)
    return ListScheduler(CgraFabric(CgraConfig(rows=2, cols=2))).schedule(graph)


class TestRenderSchedule:
    def test_one_row_per_pe(self, schedule):
        text = render_schedule(schedule)
        rows = [l for l in text.splitlines() if l.startswith("PE")]
        assert len(rows) == 4

    def test_io_pe_marked_and_carries_io_letters(self, schedule):
        text = render_schedule(schedule)
        io_row = next(l for l in text.splitlines() if " io " in l or l.startswith("PE0,0 io"))
        assert "S" in io_row and "W" in io_row

    def test_header_shows_length(self, schedule):
        assert f"schedule: {schedule.length} ticks" in render_schedule(schedule)

    def test_compression_for_narrow_width(self, schedule):
        text = render_schedule(schedule, max_width=10)
        assert "1 col =" in text
        rows = [l for l in text.splitlines() if l.startswith("PE")]
        assert all(len(r) < 60 for r in rows)

    def test_sqrt_letter_present(self, schedule):
        body = render_schedule(schedule)
        assert "r" in body.split("legend")[0].split("|", 1)[1]


class TestUtilisationBars:
    def test_bars_bounded(self, schedule):
        text = utilisation_bars(schedule, width=20)
        for line in text.splitlines():
            assert line.count("#") + line.count("-") == 20
        assert "%" in text
