"""The hybrid data plane: packet foreground, fluid background.

:class:`HybridPlane` implements the data-plane protocol the ``load`` and
``flows`` programs of ``repro.runner.execute`` are written against (see
:class:`~repro.runner.harness.Collected`).  The programs build the
*identical* flow population every backend sees; this plane splits it by
the spec's ``workload["foreground"]`` selector
(:mod:`repro.hybrid.select`).  The foreground half runs on the packet
``Network``, the background half on the
:class:`~repro.fluid.engine.FluidEngine`, and
:class:`~repro.hybrid.engine.HybridEngine` advances both in lockstep
epochs.

A degenerate partition hands the same topology and population to the
packet plane (all foreground) or the fluid plane (all background) and
only stamps the partition into the record, which is what makes the
equivalence suite's bit-identity pins (``tests/test_hybrid.py``) hold by
construction rather than by tolerance.

Config keys by consumer — the contract documented in
``docs/architecture.md``:

* shared: ``base_rtt``, ``mtu``, ``buffer_bytes``, ``goodput_bin``;
* packet half only: ``transport``, ``pfc_enabled``, ``int_enabled``,
  ``pfc``, ``ecn``, ``rto``, ``gbn_recovery_cap`` (and every other
  ``NetworkConfig`` knob);
* fluid half only: ``fluid_step`` (``fluid_engine`` is ignored in a
  mixed run — the coupler needs the array registers);
* hybrid only: ``hybrid_epoch`` (default: the fluid step, one base
  RTT), ``hybrid_min_residual`` (serialization floor, default 0.05).

Mixed-mode records carry both halves: merged FCTs (sorted by finish
time), packet-half queue samples, merged goodput bins, packet events
plus fluid steps as ``events_processed``, and the partition sizes and
epoch count in the extras.
"""

from __future__ import annotations

from functools import cached_property

from ..fluid.programs import FluidPlane
from ..runner.harness import Collected, PacketPlane
from ..runner.spec import ScenarioSpec
from ..sim.flow import FlowSpec
from ..topology.base import Topology
from .engine import HybridEngine
from .select import partition_specs


class _HybridConfig:
    """The spec's config, split by consumer.

    ``packet`` is what the packet half (and an all-foreground run) sees,
    ``background`` the mixed run's fluid half, and ``fluid`` an
    all-background run — the pure fluid backend's view, so
    ``fluid_engine`` still selects the engine there.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        config = dict(spec.config)
        self.epoch = config.pop("hybrid_epoch", None)
        self.min_residual = config.pop("hybrid_min_residual", 0.05)
        self.fluid = dict(config)
        self.ignored: list[str] = []
        if config.pop("fluid_engine", None) is not None:
            # The coupler reads/writes the array registers, so the
            # scalar reference engine cannot back a mixed run.
            self.ignored.append("fluid_engine")
        self.background = dict(config)
        config.pop("fluid_step", None)
        self.packet = config


class HybridPlane:
    """The hybrid backend: one partitioned population, two engines."""

    def __init__(self, spec: ScenarioSpec, topology: Topology) -> None:
        self.spec = spec
        self.topology = topology
        self.cfg = _HybridConfig(spec)
        #: The pure plane a degenerate partition runs on (None: mixed).
        self.pure: PacketPlane | FluidPlane | None = None
        self.fluid: FluidPlane | None = None      # a mixed run's halves
        self.hybrid: HybridEngine | None = None
        self.partition: dict = {}

    @cached_property
    def packet(self) -> PacketPlane:
        """The packet half, built on first use: an all-background
        ``flows`` run, whose population needs no wire factor, never
        builds a ``Network``."""
        return PacketPlane(self.spec, self.topology, self.cfg.packet)

    @property
    def wire_factor(self) -> float:
        """The packet half's: the population is the packet program's."""
        return self.packet.wire_factor

    def start(self, flows: list[FlowSpec], timeline,
              burst_entries: list[dict]) -> None:
        foreground, background = partition_specs(
            flows, self.spec.workload.get("foreground")
        )
        if not background:
            mode, self.pure = "all_foreground", self.packet
        elif not foreground:
            mode, self.pure = "all_background", FluidPlane(
                self.spec, self.topology, self.cfg.fluid)
        else:
            mode = "mixed"
        self.partition = {
            "hybrid_mode": mode,
            "foreground_flows": len(foreground),
            "background_flows": len(background),
        }
        if self.pure is not None:
            self.pure.start(flows, timeline, burst_entries)
            return

        packet = self.packet
        # Queue sampling stays on the packet half (one coherent label
        # set in the record), so the fluid half is built unsampled.
        self.fluid = FluidPlane(self.spec, self.topology,
                                self.cfg.background, sampled=False)
        # Each half applies fail/restore/degrade natively; burst flows
        # are already in the partitioned population, so only the packet
        # driver carries their accounting entries (one report).
        packet.install_dynamics(timeline, burst_entries)
        self.fluid.install_dynamics(timeline, [])
        packet.add_flows(foreground)
        self.fluid.engine.add_flows(background)
        packet.attach_sampler()
        self.hybrid = HybridEngine(
            packet.net, self.fluid.engine, epoch=self.cfg.epoch,
            min_residual=self.cfg.min_residual,
        )

    def run(self, deadline: float) -> bool:
        if self.pure is not None:
            return self.pure.run(deadline)
        with self.fluid.probed(), self.packet.probed():
            completed = self.hybrid.run(deadline)
        self.packet.stop_sampler()
        return completed

    def collect(self) -> Collected:
        out = self.pure.collect() if self.pure is not None \
            else self._collect_mixed()
        out.extras.update(self.partition)
        return out

    def _collect_mixed(self) -> Collected:
        packet = self.packet.collect()
        fluid = self.fluid.collect()
        hybrid = self.hybrid
        extras = packet.extras
        extras["drops"] += fluid.extras["drops"]
        extras["fluid_steps"] = fluid.extras["fluid_steps"]
        extras["fluid_flow_steps"] = fluid.extras["fluid_flow_steps"]
        extras["hybrid_epoch"] = hybrid.epoch
        extras["hybrid_epochs"] = hybrid.epochs
        extras["foreground_flow_ids"] = sorted(
            fs.flow_id for fs in self.packet.flows
        )
        if self.cfg.ignored:
            extras["fluid_ignored_config"] = self.cfg.ignored
        fluid_goodput = fluid.extras.get("goodput")
        if fluid_goodput is not None:
            if "goodput" in extras:
                extras["goodput"]["bins"].update(fluid_goodput["bins"])
            else:
                extras["goodput"] = fluid_goodput
        return Collected(
            fct=sorted(packet.fct + fluid.fct,
                       key=lambda r: (r.finish, r.spec.flow_id)),
            queues=packet.queues,
            windows={**packet.windows, **fluid.windows},
            extras=extras,
            events_processed=hybrid.events_processed,
            duration_ns=hybrid.now,
        )
