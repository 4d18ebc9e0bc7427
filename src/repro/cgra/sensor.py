"""SensorAccess bus: the CGRA's window to the FPGA framework.

"To connect the CGRA to the simulator, a SensorAccess module was
implemented to act as memory.  This allows the simulation model to both
read input signal data and set the output timing for the next Gauss
pulse."

:class:`SensorBus` maps integer sensor/actuator ids to Python callables;
the HIL framework registers the period-length detector, the two ring
buffers and the Gauss-pulse actuator here, and the cycle-accurate
executor — like the compiled engine running one scenario on host
scalars — performs all its IO through this single port (which is also
the serialisation point the scheduler models).

:class:`BatchSensorBus` is the same port for the batched lockstep
engine: one logical IO operation per op for all lanes, with
NumPy-polymorphic handlers — a lane-uniform value travels as a float64
scalar, a per-lane one as a float64 ``[batch]`` array.

Well-known ids used by the shipped beam model are module constants so
the C source, the framework wiring and the tests agree by construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import CgraError

_F64 = np.dtype(np.float64)

__all__ = [
    "SensorBus",
    "BatchSensorBus",
    "SENSOR_PERIOD",
    "SENSOR_REF_BUFFER",
    "SENSOR_GAP_BUFFER",
    "ACTUATOR_DELTA_T",
    "ACTUATOR_MONITOR",
]

#: Averaged revolution period of the reference signal, in seconds.
SENSOR_PERIOD = 0
#: Reference-signal ring buffer, addressed in (fractional) samples
#: relative to the last positive zero crossing.
SENSOR_REF_BUFFER = 1
#: Gap-signal ring buffer, addressed the same way.
SENSOR_GAP_BUFFER = 2
#: Δt output: arrival-time offset of bunch *k* — the framework adds the
#: bunch index to this base id, one actuator per simulated bunch.
ACTUATOR_DELTA_T = 16
#: Monitoring output (phase difference or mirrored signal).
ACTUATOR_MONITOR = 15


class SensorBus:
    """Id-addressed sensor/actuator registry.

    Reads are callables ``() -> float`` or ``(addr: float) -> float``
    (for addressed reads); writes are ``(value: float) -> None``.
    Unknown ids raise :class:`~repro.errors.CgraError` — an unmapped id in
    hardware would read undefined data, the model makes it loud.
    """

    def __init__(self) -> None:
        self._readers: dict[int, Callable[[], float]] = {}
        self._addr_readers: dict[int, Callable[[float], float]] = {}
        self._writers: dict[int, Callable[[float], None]] = {}
        #: Count of operations per id (IO-traffic statistics for E6/E7).
        self.read_counts: dict[int, int] = {}
        self.write_counts: dict[int, int] = {}

    def register_reader(self, sensor_id: int, fn: Callable[[], float]) -> None:
        """Register an address-less sensor."""
        self._readers[int(sensor_id)] = fn

    def register_addr_reader(self, sensor_id: int, fn: Callable[[float], float]) -> None:
        """Register an addressed sensor (ring-buffer port)."""
        self._addr_readers[int(sensor_id)] = fn

    def register_writer(self, actuator_id: int, fn: Callable[[float], None]) -> None:
        """Register an actuator."""
        self._writers[int(actuator_id)] = fn

    def read(self, sensor_id: int) -> float:
        """Perform an address-less read."""
        try:
            fn = self._readers[sensor_id]
        except KeyError:
            raise CgraError(f"no sensor registered for id {sensor_id}") from None
        self.read_counts[sensor_id] = self.read_counts.get(sensor_id, 0) + 1
        return float(fn())

    def read_addr(self, sensor_id: int, addr: float) -> float:
        """Perform an addressed read."""
        try:
            fn = self._addr_readers[sensor_id]
        except KeyError:
            raise CgraError(f"no addressed sensor registered for id {sensor_id}") from None
        self.read_counts[sensor_id] = self.read_counts.get(sensor_id, 0) + 1
        return float(fn(float(addr)))

    def write(self, actuator_id: int, value: float) -> None:
        """Perform an actuator write."""
        try:
            fn = self._writers[actuator_id]
        except KeyError:
            raise CgraError(f"no actuator registered for id {actuator_id}") from None
        self.write_counts[actuator_id] = self.write_counts.get(actuator_id, 0) + 1
        fn(float(value))


class BatchSensorBus:
    """Array-valued SensorAccess bus for the batched lockstep engine.

    Same registration API as :class:`SensorBus`, but each *logical* IO
    operation carries one value **per lane**, and handlers are
    NumPy-polymorphic — every value they see or return is a float64
    scalar (all lanes agree) or a float64 ``[batch]`` array:

    * a reader may return a scalar, a 0-d array or a ``[batch]`` array;
      a scalar or 0-d result comes back as a float64 scalar, so a
      lane-uniform value stays scalar through the engine (NumPy-scalar
      arithmetic is bit-identical per lane and an order of magnitude
      cheaper than the same op on a small array);
    * an addressed reader receives a float64 scalar when the address is
      lane-uniform and a float64 ``[batch]`` array otherwise;
    * a writer always receives a float64 ``[batch]`` array (a read-only
      broadcast view when the value is lane-uniform).

    Any other shape raises :class:`~repro.errors.CgraError` naming the
    port and both shapes.  ``read_counts``/``write_counts`` count logical
    operations (one per op, not per lane), mirroring the scalar bus
    statistics.

    Contract: a reader must return finite values for finite inputs.  The
    compiled step checks no read (a per-read reduction would cost more
    than the op), and registers are always finite, so a read is the only
    way a NaN or ±inf can enter the step.
    """

    def __init__(self, batch: int) -> None:
        if batch < 1:
            raise CgraError(f"batch must be >= 1, got {batch}")
        self.batch = int(batch)
        self._shape = (self.batch,)
        self._readers: dict[int, Callable] = {}
        self._addr_readers: dict[int, Callable] = {}
        self._writers: dict[int, Callable] = {}
        self.read_counts: dict[int, int] = {}
        self.write_counts: dict[int, int] = {}

    def register_reader(self, sensor_id: int, fn: Callable) -> None:
        """Register an address-less sensor (returns scalar or [batch])."""
        self._readers[int(sensor_id)] = fn

    def register_addr_reader(self, sensor_id: int, fn: Callable) -> None:
        """Register an addressed sensor (scalar or ``[batch]`` addresses in)."""
        self._addr_readers[int(sensor_id)] = fn

    def register_writer(self, actuator_id: int, fn: Callable) -> None:
        """Register an actuator (receives ``[batch]`` values)."""
        self._writers[int(actuator_id)] = fn

    def _lane_values(self, value, what: str, port: int):
        """``value`` as a float64 scalar or float64 ``[batch]`` array;
        ``what.format(port)`` names it in the shape error."""
        # Fast paths for what the hot loop passes: float64 values come
        # back unchanged, float32 registers and Python floats are widened
        # without the asarray round trip.
        kind = type(value)
        if kind is np.float64:
            return value
        if kind is np.float32 or kind is float:
            return np.float64(value)
        if kind is np.ndarray and value.shape == self._shape:
            return value if value.dtype == _F64 else value.astype(_F64)
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return arr[()]
        if arr.shape != self._shape:
            raise CgraError(
                f"{what.format(port)} must be a scalar or shape {self._shape}, "
                f"got shape {arr.shape}"
            )
        return arr

    def read(self, sensor_id: int):
        """Perform an address-less read; returns a float64 scalar or
        ``[batch]`` array."""
        try:
            fn = self._readers[sensor_id]
        except KeyError:
            raise CgraError(f"no sensor registered for id {sensor_id}") from None
        self.read_counts[sensor_id] = self.read_counts.get(sensor_id, 0) + 1
        return self._lane_values(fn(), "sensor {} result", sensor_id)

    def read_addr(self, sensor_id: int, addr):
        """Perform an addressed read; returns a float64 scalar or
        ``[batch]`` array.

        The address is widened to float64 before the handler sees it,
        matching the scalar bus's ``float(addr)`` conversion per lane.
        """
        try:
            fn = self._addr_readers[sensor_id]
        except KeyError:
            raise CgraError(f"no addressed sensor registered for id {sensor_id}") from None
        self.read_counts[sensor_id] = self.read_counts.get(sensor_id, 0) + 1
        addresses = self._lane_values(addr, "address for sensor {}", sensor_id)
        return self._lane_values(fn(addresses), "sensor {} result", sensor_id)

    def write(self, actuator_id: int, value) -> None:
        """Perform an actuator write (float64 ``[batch]`` values)."""
        try:
            fn = self._writers[actuator_id]
        except KeyError:
            raise CgraError(f"no actuator registered for id {actuator_id}") from None
        self.write_counts[actuator_id] = self.write_counts.get(actuator_id, 0) + 1
        values = self._lane_values(value, "value for actuator {}", actuator_id)
        fn(np.broadcast_to(values, self._shape) if values.ndim == 0 else values)
