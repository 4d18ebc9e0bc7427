"""Processing-element fabric and configurable interconnect.

"CGRAs ... consist of Processing Elements (PEs), where each PE can have
its own set of operators ... Each PE is connected to its surrounding
neighbours through a configurable interconnect.  Results of operations
can be passed on, allowing the routing of operands where no direct
connection exists.  The framework design ... is agnostic to the CGRA
configuration, allowing an arbitrary number of PEs (e.g. 3x3 or 5x5) and
any interconnect structure."

:class:`CgraFabric` models an R×C grid (optionally a torus) with
4-neighbour links by default; arbitrary extra links can be added, and
per-PE operator subsets express heterogeneous fabrics (e.g. only some
PEs carry the expensive sqrt/div cores, one PE owns the SensorAccess
port).  Routing distances are shortest-path hop counts on the
interconnect (a breadth-first search from every PE), at
:attr:`~repro.cgra.ops.OperatorLatencies.route_hop` ticks per hop.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.cgra.ops import IO_OPS, ZERO_TIME_OPS, Op, OperatorLatencies
from repro.errors import ConfigurationError, ScheduleError

__all__ = ["CgraConfig", "CgraFabric"]


#: Operator classes a default PE supports (everything but IO and the
#: expensive iterative cores).
_BASIC_OPS = frozenset(
    {Op.FADD, Op.FSUB, Op.FMUL, Op.FNEG, Op.FMIN, Op.FMAX, Op.CMP_LT, Op.CMP_LE, Op.SELECT}
)
_HEAVY_OPS = frozenset({Op.FDIV, Op.FSQRT})


@dataclass(frozen=True)
class CgraConfig:
    """Static configuration of a CGRA instance.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (the paper mentions 3×3 and 5×5 as examples).
    clock_mhz:
        Overlay clock; 111 MHz in the paper ("we cannot use the system
        clock of 250 MHz for our CGRA").
    latencies:
        Operator latencies.
    torus:
        Wrap the grid edges (richer interconnect).
    heavy_pe_fraction:
        Fraction of PEs equipped with FDIV/FSQRT cores (they are large on
        an FPGA, so not every PE carries them).  At least one PE is
        always equipped.
    io_pe:
        Grid position of the PE wired to the SensorAccess module; defaults
        to (0, 0).
    context_slots:
        Depth of each PE's context memory — the hard limit on how many
        operations one PE can hold per loop iteration.  The scheduler
        rejects programs that overflow it ("the contents for all context
        memories" must fit the memories).
    """

    rows: int = 5
    cols: int = 5
    clock_mhz: float = 111.0
    latencies: OperatorLatencies = field(default_factory=OperatorLatencies)
    torus: bool = False
    heavy_pe_fraction: float = 0.5
    io_pe: tuple[int, int] = (0, 0)
    context_slots: int = 64

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("fabric needs at least one PE")
        if self.clock_mhz <= 0.0:
            raise ConfigurationError("clock must be positive")
        if not 0.0 < self.heavy_pe_fraction <= 1.0:
            raise ConfigurationError("heavy_pe_fraction must be in (0, 1]")
        r, c = self.io_pe
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ConfigurationError(f"io_pe {self.io_pe} outside the grid")
        if self.context_slots < 1:
            raise ConfigurationError("context_slots must be >= 1")

    @property
    def n_pes(self) -> int:
        """Total number of processing elements."""
        return self.rows * self.cols

    @property
    def clock_period_s(self) -> float:
        """One CGRA tick in seconds."""
        return 1.0 / (self.clock_mhz * 1e6)


def _hop_distances(
    links: dict[tuple[int, int], set[tuple[int, int]]],
) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """All-pairs hop counts: one breadth-first search per PE."""
    distance = {}
    for source in links:
        hops = {source: 0}
        queue = deque([source])
        while queue:
            pe = queue.popleft()
            for neighbour in links[pe]:
                if neighbour not in hops:
                    hops[neighbour] = hops[pe] + 1
                    queue.append(neighbour)
        distance[source] = hops
    return distance


class CgraFabric:
    """A concrete fabric instance: PE capability map + interconnect links."""

    def __init__(self, config: CgraConfig) -> None:
        self.config = config
        positions = list(itertools.product(range(config.rows), range(config.cols)))
        # Undirected adjacency: each PE's set of directly linked PEs.
        self._links: dict[tuple[int, int], set[tuple[int, int]]] = {
            pe: set() for pe in positions
        }
        for r, c in positions:
            if r + 1 < config.rows:
                self._link((r, c), (r + 1, c))
            elif config.torus and config.rows > 2:
                self._link((r, c), (0, c))
            if c + 1 < config.cols:
                self._link((r, c), (r, c + 1))
            elif config.torus and config.cols > 2:
                self._link((r, c), (r, 0))

        # Capability map: every PE does the basic ops; heavy cores are
        # distributed evenly (stride placement keeps them spread out);
        # exactly one PE owns the SensorAccess port.
        self.capabilities: dict[tuple[int, int], set[Op]] = {
            pe: set(_BASIC_OPS) | set(ZERO_TIME_OPS) for pe in positions
        }
        n_heavy = max(1, round(config.heavy_pe_fraction * len(positions)))
        stride = max(1, len(positions) // n_heavy)
        heavy = positions[::stride][:n_heavy]
        for pe in heavy:
            self.capabilities[pe] |= _HEAVY_OPS
        self.capabilities[config.io_pe] |= set(IO_OPS)
        self._heavy_pes = set(heavy)
        self._distance = _hop_distances(self._links)

    def _link(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        self._links[a].add(b)
        self._links[b].add(a)

    @property
    def pes(self) -> list[tuple[int, int]]:
        """All PE positions, row-major."""
        return sorted(self._links)

    @property
    def heavy_pes(self) -> set[tuple[int, int]]:
        """PEs carrying div/sqrt cores."""
        return set(self._heavy_pes)

    @property
    def io_pe(self) -> tuple[int, int]:
        """The PE wired to the SensorAccess module."""
        return self.config.io_pe

    def supports(self, pe: tuple[int, int], op: Op) -> bool:
        """Whether a PE can execute an operation."""
        return op in self.capabilities[pe]

    def candidates(self, op: Op) -> list[tuple[int, int]]:
        """All PEs able to execute ``op`` (row-major order)."""
        found = [pe for pe in self.pes if op in self.capabilities[pe]]
        if not found:
            raise ScheduleError(f"no PE supports {op}")
        return found

    def hop_distance(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Shortest-path hop count between two PEs."""
        try:
            return self._distance[a][b]
        except KeyError:
            raise ScheduleError(f"no route between {a} and {b}") from None

    def routing_delay(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        """Ticks needed to move a value from PE ``a`` to PE ``b``."""
        return self.hop_distance(a, b) * self.config.latencies.route_hop
