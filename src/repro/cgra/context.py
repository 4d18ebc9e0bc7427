"""Context-memory image generation.

"Output of the scheduler are the contents for all context memories, which
can be inserted into the final FPGA bitstream without requiring a new
synthesis.  This allows very fast iterations of the model, as changes to
the C implementation are available on the experimental setup in seconds."

A :class:`ContextImage` is the per-PE program: for every issue tick, the
operation, its operand sources (which PE produced each input and at what
tick it arrives) and IO ids.  The executor runs off these images — not
off the dataflow graph — mirroring the hardware flow, and the images are
JSON-serialisable so a "bitstream insert" round-trip can be tested.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.cgra.scheduler import Schedule
from repro.errors import CgraError

__all__ = ["ContextEntry", "ContextImage", "build_context_images", "images_to_json", "images_from_json"]


@dataclass(frozen=True)
class ContextEntry:
    """One slot of a PE's context memory."""

    tick: int
    op: str
    node_id: int
    #: Register ids (node ids) of the operands, in order.
    operands: tuple[int, ...]
    #: Sensor/actuator id for IO operations.
    io_id: int | None = None
    #: Constant value for preloaded constants (CONST pseudo-entries).
    value: float | None = None


@dataclass
class ContextImage:
    """Context memory of one PE."""

    pe: tuple[int, int]
    entries: list[ContextEntry] = field(default_factory=list)

    def sorted_entries(self) -> list[ContextEntry]:
        """Entries by issue tick."""
        return sorted(self.entries, key=lambda e: e.tick)


def build_context_images(schedule: Schedule) -> dict[tuple[int, int], ContextImage]:
    """Convert a schedule into per-PE context images.

    Zero-time values (constants, parameters, PHIs) are not context
    entries — they live in register/context initialisation, which the
    executor receives separately via the graph.
    """
    images: dict[tuple[int, int], ContextImage] = {
        pe: ContextImage(pe=pe) for pe in schedule.fabric.pes
    }
    for placed in schedule.ops.values():
        node = schedule.graph.node(placed.node_id)
        images[placed.pe].entries.append(
            ContextEntry(
                tick=placed.start,
                op=node.op.value,
                node_id=node.node_id,
                operands=tuple(node.operands),
                io_id=node.sensor_id,
            )
        )
    for image in images.values():
        image.entries.sort(key=lambda e: e.tick)
    return images


def images_to_json(images: dict[tuple[int, int], ContextImage]) -> str:
    """Serialise context images (the "bitstream insert" payload)."""
    payload = {
        f"{pe[0]},{pe[1]}": [asdict(e) for e in img.sorted_entries()]
        for pe, img in images.items()
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def images_from_json(text: str) -> dict[tuple[int, int], ContextImage]:
    """Inverse of :func:`images_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CgraError(f"malformed context image JSON: {exc}") from exc
    images: dict[tuple[int, int], ContextImage] = {}
    for key, entries in payload.items():
        r, c = (int(x) for x in key.split(","))
        img = ContextImage(pe=(r, c))
        for e in entries:
            img.entries.append(
                ContextEntry(
                    tick=int(e["tick"]),
                    op=str(e["op"]),
                    node_id=int(e["node_id"]),
                    operands=tuple(int(o) for o in e["operands"]),
                    io_id=e["io_id"],
                    value=e["value"],
                )
            )
        images[(r, c)] = img
    return images
