"""Tests for the SensorAccess bus."""

import numpy as np
import pytest

from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
    BatchSensorBus,
    SensorBus,
)
from repro.errors import CgraError


class TestWellKnownIds:
    def test_ids_distinct(self):
        ids = {SENSOR_PERIOD, SENSOR_REF_BUFFER, SENSOR_GAP_BUFFER, ACTUATOR_DELTA_T}
        assert len(ids) == 4

    def test_bunch_actuators_do_not_collide(self):
        # Up to 8 bunches: ACTUATOR_DELTA_T..+7 must avoid the sensors.
        sensor_ids = {SENSOR_PERIOD, SENSOR_REF_BUFFER, SENSOR_GAP_BUFFER}
        for i in range(8):
            assert ACTUATOR_DELTA_T + i not in sensor_ids


class TestBus:
    def test_read(self):
        bus = SensorBus()
        bus.register_reader(0, lambda: 42.0)
        assert bus.read(0) == 42.0
        assert bus.read_counts[0] == 1

    def test_addressed_read(self):
        bus = SensorBus()
        bus.register_addr_reader(1, lambda a: a * 2.0)
        assert bus.read_addr(1, 3.0) == 6.0

    def test_write(self):
        outs = []
        bus = SensorBus()
        bus.register_writer(16, outs.append)
        bus.write(16, 1.5)
        assert outs == [1.5]
        assert bus.write_counts[16] == 1

    def test_unknown_ids_raise(self):
        bus = SensorBus()
        with pytest.raises(CgraError):
            bus.read(99)
        with pytest.raises(CgraError):
            bus.read_addr(99, 0.0)
        with pytest.raises(CgraError):
            bus.write(99, 0.0)

    def test_plain_reader_not_usable_as_addressed(self):
        bus = SensorBus()
        bus.register_reader(0, lambda: 1.0)
        with pytest.raises(CgraError):
            bus.read_addr(0, 0.0)

    def test_values_coerced_to_float(self):
        bus = SensorBus()
        bus.register_reader(0, lambda: 7)
        assert isinstance(bus.read(0), float)


class TestBatchBus:
    """The batched bus: NumPy-polymorphic handlers, strict shapes."""

    def test_lane_uniform_values_stay_scalar(self):
        bus = BatchSensorBus(4)
        seen = []
        bus.register_reader(0, lambda: 1.25e-6)
        bus.register_addr_reader(1, lambda a: seen.append(a) or a * 2.0)
        period = bus.read(0)
        assert type(period) is np.float64 and period == 1.25e-6
        value = bus.read_addr(1, np.float32(3.0))
        assert type(seen[0]) is np.float64 and type(value) is np.float64
        assert value == 6.0
        # A 0-d array result is a scalar too.
        bus.register_reader(2, lambda: np.array(0.5))
        assert type(bus.read(2)) is np.float64

    def test_per_lane_values_are_float64_arrays(self):
        bus = BatchSensorBus(3)
        seen = []
        bus.register_addr_reader(1, lambda a: seen.append(a) or a + 1.0)
        out = bus.read_addr(1, np.asarray([1.0, 2.0, 3.0], dtype=np.float32))
        assert seen[0].dtype == np.float64 and seen[0].shape == (3,)
        assert out.tolist() == [2.0, 3.0, 4.0]

    def test_writers_always_get_lane_arrays(self):
        bus = BatchSensorBus(3)
        outs = []
        bus.register_writer(16, outs.append)
        bus.write(16, np.float32(1.5))
        bus.write(16, np.asarray([1.0, 2.0, 3.0], dtype=np.float32))
        for value in outs:
            assert value.dtype == np.float64 and value.shape == (3,)
        assert outs[0].tolist() == [1.5, 1.5, 1.5]

    def test_wrong_length_address_raises_cgra_error(self):
        bus = BatchSensorBus(4)
        bus.register_addr_reader(SENSOR_REF_BUFFER, lambda a: a)
        with pytest.raises(CgraError) as err:
            bus.read_addr(SENSOR_REF_BUFFER, np.zeros(3))
        msg = str(err.value)
        assert f"sensor {SENSOR_REF_BUFFER}" in msg
        assert "(4,)" in msg and "(3,)" in msg

    def test_wrong_shapes_raise_cgra_error(self):
        bus = BatchSensorBus(4)
        bus.register_reader(0, lambda: np.zeros(3))
        bus.register_writer(16, lambda v: None)
        with pytest.raises(CgraError, match=r"sensor 0 result .*\(4,\).*\(3,\)"):
            bus.read(0)
        with pytest.raises(CgraError, match=r"actuator 16 .*\(4,\).*\(2, 2\)"):
            bus.write(16, np.zeros((2, 2)))
