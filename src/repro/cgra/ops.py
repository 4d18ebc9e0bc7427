"""CGRA operator set and latencies.

The paper's PEs "can have [their] own set of operators to perform
numerical operations, with a selection ranging from pure integer
arithmetic to floating point operations up to CORDIC"; for the beam-model
experiment "basic floating point and square-root operators are in use".

Latencies are in CGRA clock ticks at the 111 MHz overlay clock.  The
defaults below are representative single-precision FPGA FP-core depths
and are *calibration parameters* of the reproduction: E6 records the
schedule lengths they produce next to the paper's 128/111/99/93 ticks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Op", "OperatorLatencies", "COMMUTATIVE_OPS"]


class Op(enum.Enum):
    """Operations a processing element can execute."""

    CONST = "const"          #: materialise a compile-time constant
    PARAM = "param"          #: live-in parameter (loaded before the loop)
    PHI = "phi"              #: loop-carried register (previous iteration's value)
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FNEG = "fneg"
    FMIN = "fmin"
    FMAX = "fmax"
    CMP_LT = "cmp_lt"        #: a < b  → 1.0 / 0.0
    CMP_LE = "cmp_le"
    SELECT = "select"        #: cond ? a : b
    SENSOR_READ = "sensor_read"      #: read_sensor(id) — no address
    SENSOR_READ_ADDR = "sensor_read_addr"  #: read_sensor2(id, addr)
    ACTUATOR_WRITE = "actuator_write"      #: write_actuator(id, value)


#: Ops whose operand order may be swapped by optimisers.
COMMUTATIVE_OPS = frozenset({Op.FADD, Op.FMUL, Op.FMIN, Op.FMAX})

#: Ops that interact with the SensorAccess module and therefore contend
#: for its single port.
IO_OPS = frozenset({Op.SENSOR_READ, Op.SENSOR_READ_ADDR, Op.ACTUATOR_WRITE})

#: Ops that are free at run time (values preloaded into registers).
ZERO_TIME_OPS = frozenset({Op.CONST, Op.PARAM, Op.PHI})


@dataclass(frozen=True)
class OperatorLatencies:
    """Per-operator latencies in CGRA clock ticks.

    An operation issued at tick ``t`` produces its result at
    ``t + latency`` and occupies its PE for the whole interval — the
    context memory of the PE holds one operation at a time, as in the
    paper's overlay.
    """

    fadd: int = 3
    fsub: int = 3
    fmul: int = 3
    fdiv: int = 12
    fsqrt: int = 16
    fneg: int = 1
    fmin: int = 2
    fmax: int = 2
    cmp: int = 2
    select: int = 1
    sensor_read: int = 3
    sensor_read_addr: int = 3
    actuator_write: int = 2
    #: Interconnect delay per hop between neighbouring PEs.
    route_hop: int = 1

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"latency {name} must be >= 0, got {value}")

    def of(self, op: Op) -> int:
        """Latency of one operation in ticks (0 for preloaded values)."""
        table = {
            Op.CONST: 0,
            Op.PARAM: 0,
            Op.PHI: 0,
            Op.FADD: self.fadd,
            Op.FSUB: self.fsub,
            Op.FMUL: self.fmul,
            Op.FDIV: self.fdiv,
            Op.FSQRT: self.fsqrt,
            Op.FNEG: self.fneg,
            Op.FMIN: self.fmin,
            Op.FMAX: self.fmax,
            Op.CMP_LT: self.cmp,
            Op.CMP_LE: self.cmp,
            Op.SELECT: self.select,
            Op.SENSOR_READ: self.sensor_read,
            Op.SENSOR_READ_ADDR: self.sensor_read_addr,
            Op.ACTUATOR_WRITE: self.actuator_write,
        }
        return table[op]
