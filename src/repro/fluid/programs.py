"""The fluid data plane: the same specs, a different engine.

:class:`FluidPlane` implements the data-plane protocol the ``load`` and
``flows`` programs of ``repro.runner.execute`` are written against (see
:class:`~repro.runner.harness.Collected`) on :class:`FluidEngine`.  The
programs own everything upstream (topology factory, workload CDF,
Poisson/incast flow generation, burst materialisation) and downstream
(the :class:`RunRecord` payloads), so figure post-processing — slowdown
buckets, queue series, goodput trajectories, link-event accounting,
summary CSVs — works unchanged on fluid records.

Network-dynamics timelines run natively: the
:class:`~repro.dynamics.fluid.FluidDynamicsDriver` applies link events
at step boundaries and recomputes paths at detection time, so failover
scenarios execute at fluid speed instead of raising.

What fluid cannot express is zeroed or approximated openly, never faked:

* PFC pause telemetry reports zero (the model is lossless and
  pause-free by construction);
* a cut link's in-flight casualties are estimated from the flushed
  queue share (there are no packets to count);
* ``NetworkConfig`` knobs with no fluid meaning (``transport``,
  ``pfc_enabled``, ...) are recorded under ``extras["fluid_ignored_config"]``
  so a record always says what it did not model.
"""

from __future__ import annotations

from ..dynamics import FluidDynamicsDriver
from ..obs import current as current_telemetry
from ..obs import instrument_fluid, probing
from ..runner.harness import Collected
from ..runner.spec import ScenarioSpec
from ..sim.flow import FlowSpec
from ..sim.units import MB
from ..topology.base import Topology
from .engine import FluidEngine
from .reference import ScalarFluidEngine

#: ``config["fluid_engine"]`` values -> engine implementations.  The
#: default (key absent) is the vectorized array engine; ``"scalar"``
#: selects the loop-per-flow reference implementation — same semantics,
#: kept for equivalence testing and as the speedup baseline.
_ENGINES = {"array": FluidEngine, "scalar": ScalarFluidEngine}


def _make_engine(
    topology: Topology, spec: ScenarioSpec, config: dict | None = None,
    sampled: bool = True,
) -> tuple[FluidEngine, list[str]]:
    """The spec's engine and the config keys it has no meaning for.

    ``config`` overrides ``spec.config``; ``sampled=False`` leaves queue
    sampling off whatever ``measure["sample_interval"]`` says.
    """
    config = dict(spec.config if config is None else config)
    engine_cls = _ENGINES[config.pop("fluid_engine", "array")]
    engine = engine_cls(
        topology,
        cc_name=spec.cc.name,
        cc_params=spec.cc.params,
        base_rtt=config.pop("base_rtt", None),
        mtu=config.pop("mtu", 1000),
        buffer_bytes=config.pop("buffer_bytes", 32 * MB),
        step=config.pop("fluid_step", None),
        sample_interval=spec.measure.get("sample_interval")
        if sampled else None,
        goodput_bin=config.pop("goodput_bin", None),
    )
    tel = current_telemetry()
    if tel is not None and tel.decisions is not None:
        engine.decision_tap = tel.decisions
    return engine, sorted(config)       # leftovers have no fluid meaning


class FluidPlane:
    """The fluid backend: one :class:`FluidEngine` (or the scalar oracle).

    ``config`` and ``sampled`` are passed to :func:`_make_engine` (the
    hybrid backend builds its background half with both).
    """

    def __init__(self, spec: ScenarioSpec, topology: Topology,
                 config: dict | None = None, sampled: bool = True) -> None:
        self.engine, self.ignored = _make_engine(topology, spec, config,
                                                 sampled)
        self.wire_factor = self.engine.wire_factor
        self.driver: FluidDynamicsDriver | None = None

    def start(self, flows: list[FlowSpec], timeline,
              burst_entries: list[dict]) -> None:
        self.install_dynamics(timeline, burst_entries)
        self.engine.add_flows(flows)

    def install_dynamics(self, timeline, burst_entries: list[dict]) -> None:
        if timeline:
            self.driver = FluidDynamicsDriver(self.engine, timeline,
                                              burst_entries)
            self.driver.install()

    def probed(self):
        return probing(self.engine, instrument_fluid)

    def run(self, deadline: float) -> bool:
        with self.probed():
            return self.engine.run(deadline=deadline)

    def collect(self) -> Collected:
        engine = self.engine
        extras: dict = {
            "n_hosts": engine.topology.n_hosts,
            "header_bytes": engine.header,
            "drops": int(engine.dropped_bytes() / (engine.mtu + engine.header)),
            "pause_count": 0,
            "pause_total_ns": 0.0,
            "switch_queued_bytes": {
                str(sw): int(q)
                for sw, q in engine.switch_queued_bytes().items()
            },
            "fluid_steps": engine.steps,
            "fluid_flow_steps": engine.flow_steps,
        }
        goodput = engine.goodput_payload()
        if goodput is not None:
            extras["goodput"] = goodput
        if self.driver is not None:
            extras["link_events"] = self.driver.report()
        if self.ignored:
            extras["fluid_ignored_config"] = self.ignored
        return Collected(
            fct=engine.fct_records,
            queues={
                label: (s["times"], s["qlens"])
                for label, s in engine.queue_samples.items()
            },
            windows={f.spec.flow_id: f.proxy.window for f in engine._starts},
            extras=extras,
            events_processed=engine.steps,
            duration_ns=engine.now,
        )
