"""The scalar reference fluid engine (pre-array implementation).

This is the original per-flow/per-link Python implementation of the
fluid step loop, kept verbatim as the semantic baseline for the
array-native :class:`~repro.fluid.engine.FluidEngine`:

* the scalar-vs-array equivalence tests (``tests/test_fluid_array.py``)
  pin the vectorized engine's FCTs, goodput bins, reroute counts and
  queue trajectories against this implementation per scheme;
* ``benchmarks/bench_fluid_engine.py`` measures the array engine's
  speedup against it (the "PR 5 tip" baseline);
* ``ScenarioSpec(config={"fluid_engine": "scalar"})`` selects it for
  any run, so regressions can be bisected to the data plane.

Semantics are documented in :mod:`repro.fluid.engine`; the two engines
share :class:`~repro.fluid.engine.FluidFlow`, the adapters, the graph
and the goodput recorder, and differ only in how the five sub-steps of
``_advance`` are executed.  One deliberate difference: the scalar
engine fires every flow's CC adapter on *every* mini-step (even
arrival-shortened ones), while the array engine batches adapter fires
to once per accumulated RTT — the cadence the schemes are defined at.
On runs whose steps are never shortened the two are numerically
identical.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..core.base import CcEnv
from ..core.registry import get_scheme
from ..sim.ecn import EcnConfig
from ..sim.flow import FctRecord, FlowSpec
from ..sim.packet import ACK_SIZE, IntHop, data_header, data_wire_factor
from ..sim.units import MB
from ..topology.base import Topology
from .adapters import FluidClock, FlowProxy, StepSignals, adapter_for
from .engine import FluidFlow
from .goodput import GoodputRecorder
from .state import FluidGraph, FluidPath

_EPS = 1e-9


class ScalarFluidEngine:
    """Flow-level simulation of one topology + CC scheme (scalar loops).

    Mirrors the :class:`~repro.network.Network` surface where it makes
    sense: ``add_flows`` then ``run(deadline)``; results land in
    ``fct_records`` (live :class:`FctRecord` objects, same as the packet
    path's metrics hub would produce).
    """

    def __init__(
        self,
        topology: Topology,
        cc_name: str = "hpcc",
        cc_params: dict | None = None,
        base_rtt: float | None = None,
        mtu: int = 1000,
        buffer_bytes: float = 32 * MB,
        step: float | None = None,
        sample_interval: float | None = None,
        goodput_bin: float | None = None,
    ) -> None:
        self.topology = topology
        self.scheme = get_scheme(cc_name)
        self.cc_params = dict(cc_params or {})
        self.mtu = mtu
        self.header = data_header(self.scheme.needs_int)
        self.wire_factor = data_wire_factor(mtu, self.scheme.needs_int)
        self.base_rtt = (
            base_rtt
            if base_rtt is not None
            else 1.05 * topology.base_rtt_estimate(mtu + self.header)
        )
        #: Step length: one base RTT by default — the cadence at which
        #: every scheme in the paper reacts to feedback anyway.
        self.step = step if step is not None else self.base_rtt
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        self.graph = FluidGraph(topology, float(buffer_bytes))
        self.clock = FluidClock()
        self.now = 0.0
        self.steps = 0
        self.flow_steps = 0             # sum of active flows over steps
        self.completed = False
        self.fct_records: list[FctRecord] = []
        #: Optional control-loop flight recorder, mirroring
        #: ``FluidEngine.decision_tap``; attach before ``add_flows``.
        self.decision_tap = None

        self._starts: list[FluidFlow] = []      # sorted by start_time
        self._next_idx = 0
        self._active: list[FluidFlow] = []
        self._parked: list[FluidFlow] = []      # routeless until a restore
        self._sorted = True
        self._topo_version = 0

        # Min-heap of (time, seq, fn): drivers schedule before the run,
        # and detection-delay callbacks push more mid-run.
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0

        ecn_policy = self.scheme.default_ecn(self.cc_params)
        self._ecn_policy = ecn_policy
        self._ecn_configs: dict[int, EcnConfig] = {}

        self.sample_interval = sample_interval
        self._last_sample = -float("inf")
        self._sample_links = (
            self.graph.switch_egress_links() if sample_interval is not None else []
        )
        self.queue_samples: dict[str, dict[str, list[float]]] = {
            link.label: {"times": [], "qlens": []} for link in self._sample_links
        }
        self.goodput_bin = goodput_bin
        self._goodput = (
            GoodputRecorder(goodput_bin) if goodput_bin is not None else None
        )

    # -- flow admission ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> None:
        line_rate = self.topology.host_rate(spec.src)
        path = self._route(spec)
        env = CcEnv(
            sim=self.clock, line_rate=line_rate, base_rtt=self.base_rtt,
            mtu=self.mtu, header=self.header,
        )
        adapter = adapter_for(self.scheme, env, self.cc_params)
        proxy = FlowProxy()
        adapter.install(proxy)
        tap = self.decision_tap
        if tap is not None:
            trace = tap.trace(spec.flow_id, self.scheme.name)
            adapter.algo.tap = trace
            trace.record(spec.start_time, "install", None, proxy.rate,
                         proxy.window, proxy.rate, proxy.window, {})
        bottleneck = min(line_rate, self.topology.host_rate(spec.dst))
        flow = FluidFlow(
            spec, path, proxy, adapter, line_rate,
            ideal=spec.size * self.wire_factor / bottleneck
            + (path.base_rtt if path is not None else self.base_rtt),
            wire_bytes=spec.size * self.wire_factor,
        )
        flow.topo_version = self._topo_version
        self._starts.append(flow)
        self._sorted = False

    def add_flows(self, specs) -> None:
        for spec in specs:
            self.add_flow(spec)

    def _route(self, spec: FlowSpec) -> FluidPath | None:
        try:
            return self.graph.path(
                spec.flow_id, spec.src, spec.dst,
                mtu_wire=self.mtu + self.header, ack_size=ACK_SIZE,
            )
        except ValueError:
            return None

    # -- network dynamics --------------------------------------------------------

    def schedule_event(self, at: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at simulated time ``at`` (an exact step boundary).

        Events fire in time order (ties in registration order); like the
        packet path, events beyond the end of the run never fire.
        Scheduling from inside an event callback is allowed — that is how
        detection delays work.
        """
        heapq.heappush(self._events, (at, self._event_seq, fn))
        self._event_seq += 1

    def fail_link(self, a: int, b: int) -> float:
        """Cut one member of the pair; capacity pools down immediately.

        Returns the queued bytes flushed (the in-flight casualty
        estimate).  Paths are *not* recomputed — call :meth:`reconverge`
        when routing detects the change.
        """
        return self.graph.fail_link(a, b)

    def restore_link(self, a: int, b: int) -> None:
        self.graph.restore_link(a, b)

    def degrade_link(
        self, a: int, b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        self.graph.degrade_link(
            a, b, rate_factor=rate_factor, delay_factor=delay_factor
        )

    def reconverge(self) -> int:
        """Recompute every in-flight and pending flow's path.

        The fluid analogue of routing reconvergence: active flows pick up
        their post-change ECMP route (deterministic hash, so a restored
        trunk gets its old flows back), parked flows re-admit if a route
        reappeared, and newly routeless flows park.  Returns the number
        of flows whose path changed (the reroute count).
        """
        self._topo_version += 1
        self.graph.invalidate()
        self._ecn_configs.clear()
        rerouted = 0
        still_active: list[FluidFlow] = []
        parked: list[FluidFlow] = []
        for flow in self._active:
            old_links = None if flow.path is None else flow.path.links
            flow.path = self._route(flow.spec)
            flow.topo_version = self._topo_version
            if flow.path is None:
                parked.append(flow)
                rerouted += 1
            else:
                if old_links is None or flow.path.links != old_links:
                    rerouted += 1
                still_active.append(flow)
        for flow in self._parked:
            flow.path = self._route(flow.spec)
            flow.topo_version = self._topo_version
            if flow.path is None:
                parked.append(flow)
            else:
                rerouted += 1
                still_active.append(flow)
        self._active = still_active
        self._parked = parked
        return rerouted

    # -- the step loop -----------------------------------------------------------

    def run(self, deadline: float) -> bool:
        """Advance until every flow finished or ``deadline`` (ns) hits.

        Returns True when all flows completed.  Steps are ``self.step``
        long, shortened to land exactly on the next flow arrival or the
        next scheduled dynamics event, so both are honoured precisely.
        """
        if not self._sorted:
            self._starts.sort(key=lambda f: (f.spec.start_time, f.spec.flow_id))
            self._sorted = True
        starts = self._starts
        events = self._events
        while True:
            # Fire dynamics events that are due.
            while events and events[0][0] <= self.now + _EPS:
                heapq.heappop(events)[2]()
            # Admit flows that are due (on the current topology).
            while (
                self._next_idx < len(starts)
                and starts[self._next_idx].spec.start_time <= self.now + _EPS
            ):
                flow = starts[self._next_idx]
                self._next_idx += 1
                if flow.topo_version != self._topo_version:
                    flow.path = self._route(flow.spec)
                    flow.topo_version = self._topo_version
                if flow.path is None:
                    self._parked.append(flow)
                else:
                    self._active.append(flow)
            if self.now >= deadline - _EPS:
                break
            next_start = (
                starts[self._next_idx].spec.start_time
                if self._next_idx < len(starts) else None
            )
            next_event = events[0][0] if events else None
            if not self._active:
                if not self._parked and self._next_idx >= len(starts):
                    # Every flow finished: stop here, leaving later
                    # timeline events unfired — the packet path's
                    # run_until_done semantics (fired=False accounting).
                    break
                # Idle (or fully parked): fast-forward to whatever can
                # change the world next; nothing left means we are done
                # (parked flows with no pending restore can never finish).
                targets = [t for t in (next_start, next_event) if t is not None]
                if not targets:
                    break
                target = min(targets)
                if target >= deadline:
                    break
                if target > self.now:
                    self.now = target
                    self.clock.now = self.now
                continue
            dt = self.step
            if next_start is not None:
                dt = min(dt, next_start - self.now)
            if next_event is not None:
                dt = min(dt, next_event - self.now)
            dt = min(dt, deadline - self.now)
            if dt <= _EPS:
                dt = _EPS
            self._advance(dt)
        self.completed = (
            not self._active and not self._parked
            and self._next_idx >= len(starts)
        )
        return self.completed

    def _advance(self, dt: float) -> None:
        active = self._active
        # 1. requested rates (window-limited schemes pace at W/T).
        for f in active:
            r = f.proxy.rate
            w = f.proxy.window
            if w is not None:
                paced = w / self.base_rtt
                if paced < r:
                    r = paced
            if r > f.line_rate:
                r = f.line_rate
            f.req = r
        # 2. per-link offered arrivals -> proportional throttle factors.
        touched: dict[int, object] = {}
        for f in active:
            for link in f.path.links:
                key = id(link)
                if key not in touched:
                    touched[key] = link
                    link.arrival = 0.0
                    link.throttled = 0.0
                link.arrival += f.req
        for link in touched.values():
            link.scale = (
                1.0 if link.arrival <= link.capacity
                else link.capacity / link.arrival
            )
        # 3. cascade the throttle along each path (upstream bottlenecks
        #    shield downstream links) and pin each flow's achieved rate.
        for f in active:
            s = 1.0
            req = f.req
            for link in f.path.links:
                link.throttled += req * s
                if link.scale < s:
                    s = link.scale
            f.achieved = req * s
        # 4. integrate link state.  Only switch egress queues: a host's
        #    own uplink is paced at the source (excess was throttled in
        #    step 2/3), so it never queues or drops — matching the
        #    packet NIC, which contributes no INT hop either.
        for link in touched.values():
            inflow = link.throttled * dt
            tx = link.queue + inflow
            cap = link.capacity * dt
            if tx > cap:
                tx = cap
            link.tx_bytes += tx
            link.rx_bytes += inflow
            if not link.is_switch_egress:
                continue
            q = link.queue + inflow - tx
            if q > link.buffer_bytes:
                link.dropped_bytes += q - link.buffer_bytes
                q = link.buffer_bytes
            link.queue = q if q > _EPS else 0.0
        # 5. deliver bytes; complete by interpolation; update CC.
        start_t = self.now
        self.now = start_t + dt
        self.clock.now = self.now
        goodput = self._goodput
        survivors: list[FluidFlow] = []
        for f in active:
            delivered = f.achieved * dt
            if delivered >= f.remaining - 1e-6:
                t_send = f.remaining / f.achieved if f.achieved > 0 else dt
                finish = (
                    start_t + t_send
                    + f.path.base_rtt + f.path.queue_delay()
                )
                if goodput is not None and f.remaining > 0:
                    goodput.record(
                        f.spec.flow_id, start_t, start_t + t_send,
                        f.remaining / self.wire_factor,
                    )
                f.remaining = 0.0
                f.proxy.done = True
                self.fct_records.append(FctRecord(
                    spec=f.spec, start=f.spec.start_time, finish=finish,
                    ideal=f.ideal,
                ))
            else:
                if goodput is not None and delivered > 0:
                    goodput.record(
                        f.spec.flow_id, start_t, self.now,
                        delivered / self.wire_factor,
                    )
                f.remaining -= delivered
                survivors.append(f)
        self._active = survivors
        for f in survivors:
            f.adapter.update(f.proxy, self._signals(f, dt))
        self.steps += 1
        self.flow_steps += len(active)
        if (
            self.sample_interval is not None
            and self.now - self._last_sample >= self.sample_interval
        ):
            self._last_sample = self.now
            for link in self._sample_links:
                series = self.queue_samples[link.label]
                series["times"].append(self.now)
                series["qlens"].append(link.queue)

    # -- per-flow feedback -------------------------------------------------------

    def _signals(self, f: FluidFlow, dt: float) -> StepSignals:
        delivered = f.achieved * dt
        hops: list[IntHop] = []
        if self.scheme.needs_int:
            # A capacity-0 link is a cut edge still on this flow's
            # pre-reconvergence path: no ACKs return from beyond a cut,
            # so it contributes no telemetry (and no division by zero).
            hops = [
                IntHop(
                    bandwidth=link.capacity, ts=self.now,
                    tx_bytes=link.tx_bytes, qlen=link.queue,
                    rx_bytes=link.rx_bytes,
                )
                for link in f.path.int_links
                if link.capacity > 0.0
            ]
        mark_prob = 0.0
        if self._ecn_policy is not None:
            clear = 1.0
            for link in f.path.int_links:
                if link.capacity <= 0.0:
                    continue
                key = id(link)
                config = self._ecn_configs.get(key)
                if config is None:
                    config = self._ecn_policy.for_rate(link.capacity)
                    self._ecn_configs[key] = config
                p = _marking_probability(config, link.queue)
                if p > 0.0:
                    clear *= 1.0 - p
            mark_prob = 1.0 - clear
        rtt = f.path.base_rtt + f.path.queue_delay()
        return StepSignals(
            hops=hops, rtt=rtt, mark_prob=mark_prob,
            delivered=delivered, now=self.now, dt=dt,
        )

    # -- results -----------------------------------------------------------------

    def ideal_fct(self, spec: FlowSpec) -> float:
        """Uncontended FCT, the packet path's formula: line-rate transmit
        plus the pair's base RTT (store-and-forward out, ACK back).
        Admitted flows carry this precomputed as ``FluidFlow.ideal``."""
        rate = min(
            self.topology.host_rate(spec.src), self.topology.host_rate(spec.dst)
        )
        path = self.graph.path(
            spec.flow_id, spec.src, spec.dst,
            mtu_wire=self.mtu + self.header, ack_size=ACK_SIZE,
        )
        return spec.size * self.wire_factor / rate + path.base_rtt

    @property
    def goodput_bins(self) -> dict[int, dict[int, float]]:
        return self._goodput.bins() if self._goodput is not None else {}

    def goodput_payload(self) -> dict | None:
        """The recorded goodput bins in ``RunRecord.extras`` shape."""
        if self._goodput is None:
            return None
        return self._goodput.payload()

    def dropped_bytes(self) -> float:
        return sum(l.dropped_bytes for l in self.graph.links.values())

    def switch_queued_bytes(self) -> dict[int, float]:
        return self.graph.total_queued_bytes()


def _marking_probability(config: EcnConfig, qlen: float) -> float:
    if qlen <= config.kmin:
        return 0.0
    if qlen >= config.kmax:
        return 1.0
    return config.pmax * (qlen - config.kmin) / (config.kmax - config.kmin)
