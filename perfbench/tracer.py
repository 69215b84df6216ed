"""Per-layer timing by wrapping the layers' functions at run time.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces
class and module attributes of the already-imported ``repro`` package
with timing wrappers, in the (fresh) interpreter of one traced
repetition.  Each wrapper records, under its layer's key:

* ``calls`` - how many times a function of the layer ran;
* ``self_s`` - the layer's self time: each call's duration minus the
  part covered by wrapped calls it made into any layer (a stack of
  child-time accumulators, so nesting across layers never double
  counts);

and, for the few functions whose whole duration is itself a metric
(``Network.__init__``, ``FluidEngine.run``, ...), ``total_s`` under a
separate per-function key.  Code that is not wrapped is charged to the
nearest wrapped caller: ``Simulator.schedule`` called from a switch is
switch time, the event-loop body is ``sim.engine`` time.

Wrappers must not change what the simulation computes; ``rep.py``
checks that by comparing the traced repetition's fingerprints with an
untraced one's.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

#: ``repro.sim`` modules timed as one layer each (``sim.<name>``).
SIM_MODULES = ("switch", "queues", "buffer", "nic", "pfc")

#: The per-ACK/per-event entry points of every registered CC algorithm.
CC_METHODS = ("on_ack", "on_cnp", "on_packet_sent", "on_timeout")


def _class_functions(cls) -> list[str]:
    """Plain, non-dunder, not yet wrapped functions defined on ``cls``."""
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value)
        and not (name.startswith("__") and name.endswith("__"))
        and not hasattr(value, "__wrapped__")
    ]


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Self-time and call-count accounting for wrapped layer functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.pfc_checks = 0
        self.pfc_changes = 0
        self._stack: list[float] = []

    # -- wrapping ---------------------------------------------------------------

    def timed(self, fn, layer: str, total: str | None = None):
        """``fn`` wrapped to charge its self time to ``layer``.

        ``total`` additionally accumulates the call's whole duration
        under that key; only give it to functions that do not recurse.
        """
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        own = self.self_s
        whole = self.total_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                own[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if total is not None:
                    whole[total] += elapsed
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, name: str, layer: str, total: str | None = None):
        setattr(owner, name, self.timed(getattr(owner, name), layer, total))

    def wrap_class(self, cls, layer: str) -> None:
        for name in _class_functions(cls):
            self.wrap(cls, name, layer)

    def _wrap_pfc_check(self, cls) -> None:
        """``on_ingress_change``: time it and count the calls after which
        the (port, priority) pause state differs from before."""
        timed = self.timed(cls.on_ingress_change, "sim.pfc")
        is_pausing = cls.is_pausing         # unwrapped: not charged to pfc
        tracer = self

        def on_ingress_change(ctrl, in_port, priority):
            before = is_pausing(ctrl, in_port, priority)
            timed(ctrl, in_port, priority)
            tracer.pfc_checks += 1
            if is_pausing(ctrl, in_port, priority) != before:
                tracer.pfc_changes += 1

        on_ingress_change.__wrapped__ = timed
        cls.on_ingress_change = on_ingress_change

    def install(self) -> None:
        """Wrap every traced layer of the imported ``repro`` package."""
        import importlib

        import repro.core.registry  # noqa: F401 - imports every CC algorithm
        from repro.core.base import CcAlgorithm
        from repro.fluid.adapters import RateAdapter
        from repro.fluid.engine import FluidEngine
        from repro.hybrid.coupling import HybridCoupler
        from repro.hybrid.engine import HybridEngine
        from repro.network import Network
        from repro.runner.execute import TOPOLOGIES
        from repro.sim.engine import Simulator
        from repro.sim.pfc import PfcController
        from repro.workloads import generator, incast

        for short in SIM_MODULES:
            module = importlib.import_module(f"repro.sim.{short}")
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    if cls is PfcController:
                        # Before wrap_class, so the check reads pause
                        # state through the unwrapped is_pausing.
                        self._wrap_pfc_check(cls)
                    self.wrap_class(cls, f"sim.{short}")
        self.wrap(Simulator, "run", "sim.engine", total="sim.run")

        for cls in _subclasses(CcAlgorithm):
            for name in CC_METHODS:
                if name in vars(cls):
                    self.wrap(cls, name, "core.cc")

        self.wrap(Network, "__init__", "network", total="network.init")
        self.wrap(Network, "add_flows", "network", total="network.add_flows")
        self.wrap(Network, "run", "network", total="network.run")

        self.wrap(FluidEngine, "__init__", "fluid", total="fluid.init")
        self.wrap(FluidEngine, "add_flows", "fluid", total="fluid.add_flows")
        self.wrap(FluidEngine, "run", "fluid", total="fluid.run")
        for cls in _subclasses(RateAdapter):
            if "update" in vars(cls):
                self.wrap(cls, "update", "fluid.cc_replay")

        for name in ("push_background", "push_foreground"):
            self.wrap(HybridCoupler, name, "hybrid.coupling",
                      total="hybrid.coupling")
        self.wrap(HybridEngine, "run", "hybrid", total="hybrid.run")

        for key in list(TOPOLOGIES):
            TOPOLOGIES[key] = self.timed(TOPOLOGIES[key], "topology",
                                         total="topology.build")
        self.wrap(generator, "poisson_flows", "workloads",
                  total="workloads.generate")
        self.wrap(incast, "incast_events", "workloads",
                  total="workloads.generate")
