"""Turnaround cost model: direct FPGA implementation vs. CGRA overlay.

"An alternative could be a Field Programmable Gate Array (FPGA)
implementation of the model. ... Yet, it would make the development of
the simulation very tedious, as we can expect hardware synthesis times
of multiple hours."  And for the CGRA: "changes to the C implementation
are available on the experimental setup in seconds (compared to a full
FPGA synthesis that can easily take hours)."

:class:`DirectFpgaFlow` is a coarse synthesis-time model (documented
constants, calibrated to typical Vivado runs for mid-size Virtex-7
designs); E8's table (:mod:`repro.experiments.reconfig`) pits it against
the *measured* wall-clock of our CGRA tool flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["DirectFpgaFlow"]


@dataclass(frozen=True)
class DirectFpgaFlow:
    """Coarse model of a full FPGA synthesis + place&route run.

    Parameters (defaults are representative of a Virtex-7 VC707 design
    of the framework's size in Vivado; the paper says only "multiple
    hours", which these defaults land in for the relevant LUT counts):

    * ``base_minutes`` — flow fixed costs (elaboration, IO, bitgen);
    * ``minutes_per_kluts`` — marginal synthesis+P&R time per 1000 LUTs.
    """

    base_minutes: float = 25.0
    minutes_per_kluts: float = 0.9

    def synthesis_seconds(self, design_kluts: float) -> float:
        """Estimated wall-clock of one full synthesis run, in seconds."""
        if design_kluts <= 0:
            raise ConfigurationError("design size must be positive")
        return 60.0 * (self.base_minutes + self.minutes_per_kluts * design_kluts)
