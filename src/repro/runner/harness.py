"""The packet data plane and the execution primitives around it.

:class:`PacketPlane` is the packet backend's side of the data-plane
protocol the network programs of ``repro.runner.execute`` are written
against (see :class:`Collected` for the protocol):

* ``wire_factor`` — on-wire bytes per payload byte, which sizes the
  ``load`` population;
* ``start(flows, timeline, burst_entries)`` — install the dynamics
  driver, attach the queue sampler and add the flows, in that order;
* ``run(deadline)`` — run to completion or ``deadline``;
* ``collect()`` — hand back a :class:`Collected`.

:func:`setup_network` builds a ``Network`` for one CC choice (the
packet plane's, and hand-built drivers'); :func:`generate_load_flows`
is the ``load`` population every backend shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dynamics import PacketDynamicsDriver
from ..metrics.queuestats import QueueSampler
from ..network import Network, NetworkConfig
from ..obs import current as current_telemetry
from ..obs import instrument_simulator, probing
from ..sim.flow import FctRecord, FlowSpec
from ..topology.base import Topology
from .spec import CcChoice, ScenarioSpec


@dataclass
class Collected:
    """What a data plane hands back after its run.

    A data plane is built as ``Plane(spec, topology)`` and implements
    ``wire_factor``, ``start(flows, timeline, burst_entries)``,
    ``run(deadline) -> completed`` and ``collect() -> Collected``;
    the network programs assemble the :class:`RunRecord` from this.
    """

    fct: list[FctRecord]                 # in record order
    queues: dict[str, tuple[list[float], list[int]]]   # label -> series
    windows: dict[int, float | None]     # flow id -> final sender window
    extras: dict                         # backend-specific record extras
    events_processed: int
    duration_ns: float


def setup_network(
    topology: Topology,
    cc: CcChoice,
    base_rtt: float | None = None,
    goodput_bin: float | None = None,
    seed: int = 1,
    **config_kwargs,
) -> Network:
    """Build a network running one CC choice."""
    config = NetworkConfig(
        cc_name=cc.name,
        cc_params=dict(cc.params),
        base_rtt=base_rtt,
        goodput_bin=goodput_bin,
        seed=seed,
        **config_kwargs,
    )
    net = Network(topology, config)
    tel = current_telemetry()
    if tel is not None and tel.decisions is not None:
        net.decision_tap = tel.decisions
    return net


def generate_load_flows(
    topology: Topology,
    cdf,
    load: float,
    n_flows: int,
    seed: int,
    wire_overhead: float,
    incast: dict | None = None,
) -> tuple[list[FlowSpec], float]:
    """The load-program workload: Poisson background + optional incasts.

    Returns ``(flow specs, workload duration)``.  Every backend calls
    this with the same arguments, so a packet and a fluid run of one
    scenario offer the *identical* flow population — which is what makes
    cross-backend validation of goodput shares meaningful.
    """
    from ..workloads.generator import poisson_flows
    from ..workloads.incast import incast_events, incast_period_for_load

    rates = {h: topology.host_rate(h) for h in topology.hosts}
    total_capacity = sum(rates.values())
    flow_rate = load * total_capacity / (cdf.mean() * wire_overhead)  # flows/ns
    duration = n_flows / flow_rate
    specs = poisson_flows(
        list(topology.hosts), rates, cdf, load, duration,
        seed=seed, wire_overhead=wire_overhead,
    )
    if incast is not None:
        period = incast_period_for_load(
            incast["fan_in"], incast["flow_size"], incast["load"], total_capacity
        )
        n_events = max(1, int(duration / period))
        specs += incast_events(
            list(topology.hosts), incast["fan_in"], incast["flow_size"],
            n_events, period, seed=seed + 13,
            start_offset=period / 2,
        )
    return specs, duration


# -- the packet data plane --------------------------------------------------------

def _resolve_ports(net: Network, declarations) -> dict:
    """Resolve a declarative port list to live egress ports.

    Each entry is ``[label, "between", a, b]`` (egress of device ``a``
    toward ``b``) or ``[label, "to_host", h]`` (the switch egress feeding
    host ``h`` — the usual bottleneck probe).
    """
    ports = {}
    for entry in declarations:
        label, kind = entry[0], entry[1]
        if kind == "between":
            ports[label] = net.port_between(entry[2], entry[3])
        elif kind == "to_host":
            host = entry[2]
            feeder = next(
                peer for (node, peer) in net.port_map if node == host
            )
            ports[label] = net.port_between(feeder, host)
        else:
            raise ValueError(f"unknown sample-port kind {kind!r}")
    return ports


def _base_extras(spec: ScenarioSpec, net: Network) -> dict:
    tracker = net.metrics.pause_tracker
    extras: dict = {
        "n_hosts": net.topology.n_hosts,
        "header_bytes": net.header,
        "drops": net.metrics.drop_count,
        "pause_count": tracker.pause_count(),
        "pause_total_ns": tracker.total_pause_time(None),
        "switch_queued_bytes": {
            str(sw): switch.total_queued_bytes()
            for sw, switch in net.switches.items()
        },
    }
    if spec.measure.get("pause_intervals"):
        extras["pause_intervals"] = [
            [iv.device, iv.port, iv.start, iv.end] for iv in tracker.intervals
        ]
        extras["origin_of"] = [
            [device, port, peer]
            for (device, port), peer in net.origin_of.items()
        ]
    if net.metrics.goodput is not None:
        extras["goodput"] = {
            "bin_ns": net.metrics.goodput.bin_ns,
            "bins": {
                str(flow_id): {str(idx): n for idx, n in bins.items()}
                for flow_id, bins in net.metrics.goodput._bins.items()
            },
        }
    return extras


class PacketPlane:
    """The packet backend: one discrete-event ``Network``.

    ``config`` overrides ``spec.config`` (the hybrid backend hands its
    packet half a config without the fluid- and hybrid-only keys).
    """

    def __init__(self, spec: ScenarioSpec, topology: Topology,
                 config: dict | None = None) -> None:
        config = dict(spec.config if config is None else config)
        self.spec = spec
        self.net = setup_network(
            topology, spec.cc, base_rtt=config.pop("base_rtt", None),
            goodput_bin=config.pop("goodput_bin", None), seed=spec.seed,
            **config,
        )
        self.wire_factor = self.net.wire_factor
        self.flows: list[FlowSpec] = []
        self.driver: PacketDynamicsDriver | None = None
        self.sampler: QueueSampler | None = None

    def start(self, flows: list[FlowSpec], timeline,
              burst_entries: list[dict]) -> None:
        self.install_dynamics(timeline, burst_entries)
        self.attach_sampler()
        self.add_flows(flows)

    def install_dynamics(self, timeline, burst_entries: list[dict]) -> None:
        if timeline:
            self.driver = PacketDynamicsDriver(self.net, timeline,
                                               burst_entries)
            self.driver.install()

    def attach_sampler(self) -> None:
        """Sample ``measure["sample_ports"]`` (default: every switch
        egress) every ``measure["sample_interval"]`` ns, if set."""
        measure = self.spec.measure
        interval = measure.get("sample_interval")
        if interval is not None:
            declared = measure.get("sample_ports")
            ports = self.net.switch_port_labels() if declared is None \
                else _resolve_ports(self.net, declared)
            self.sampler = QueueSampler(self.net.sim, ports, interval)

    def add_flows(self, flows: list[FlowSpec]) -> None:
        self.flows = flows
        self.net.add_flows(flows)

    def probed(self):
        return probing(self.net.sim, instrument_simulator)

    def run(self, deadline: float) -> bool:
        with self.probed():
            completed = self.net.run_until_done(deadline=deadline)
        self.stop_sampler()
        return completed

    def stop_sampler(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()

    def collect(self) -> Collected:
        net = self.net
        extras = _base_extras(self.spec, net)
        if self.driver is not None:
            extras["link_events"] = self.driver.report()
        sampler = self.sampler
        return Collected(
            fct=net.metrics.fct_records,
            queues={} if sampler is None else {
                label: (sampler.times, values)
                for label, values in sampler.samples.items()
            },
            windows={
                fs.flow_id: getattr(
                    net.nics[fs.src].flows.get(fs.flow_id), "window", None)
                for fs in self.flows
            },
            extras=extras,
            events_processed=net.sim.events_processed,
            duration_ns=net.sim.now,
        )
