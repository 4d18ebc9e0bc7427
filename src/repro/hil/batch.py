"""Two names the repository benchmark reaches by path.

Lanes are :class:`repro.hil.simulator.CavityInTheLoop` with a tuple
``jump_deg``.  ``perfbench/layers.py`` wraps
``BatchedCavityInTheLoop.run`` and ``perfbench/workloads.py`` reads
``BatchHilConfig.revolution_frequency``, so both names stay until the
benchmark drops them (ROADMAP, "One committed benchmark record").
``BatchedCavityInTheLoop`` is a subclass, not an alias: the benchmark
wraps ``run`` on each class it lists, and on an alias it would wrap the
one method twice.
"""

from repro.hil.simulator import CavityInTheLoop, HilConfig

BatchHilConfig = HilConfig


class BatchedCavityInTheLoop(CavityInTheLoop):
    pass
