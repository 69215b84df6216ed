"""The fluid fast path: array-native flow-level simulation.

Where the packet engine processes one event per packet/ACK/credit, the
:class:`FluidEngine` advances the whole network one RTT at a time — and
it does so *vectorized*: every active flow lives as a row in a
struct-of-arrays block, every link as a row in
:class:`~repro.fluid.state.LinkArrays`, and the five sub-steps of the
fluid model run as numpy operations over all flows at once.

The model per step (semantics identical to the scalar reference in
:mod:`repro.fluid.reference`):

1. every active flow requests its CC-controlled rate (window-limited
   schemes request ``min(rate, W/T)``) — one ``np.minimum`` chain;
2. requested rates aggregate into per-link arrivals (``np.bincount``
   over the flows' flattened path-link rows); oversubscribed links
   throttle proportionally;
3. the throttle cascades along each flow's path (an upstream bottleneck
   shields downstream links) — an exclusive per-path prefix-min, run
   one hop column at a time;
4. link queues integrate ``(arrival - capacity) x dt`` and the
   cumulative ``tx/rx`` byte registers advance — element-wise over the
   links currently touched by live flows (untouched queues freeze,
   exactly as in the scalar engine);
5. flows deliver ``achieved_rate x dt`` bytes, complete mid-step by
   interpolation, and — once per accumulated RTT — each flow's adapter
   replays one RTT of its scheme's packet events (synthetic INT ACK,
   CNP stream, RTT echo, ECN marks) against the *real* ``core/``
   algorithm, producing the next step's rate.

Paths are stored as a padded hop matrix: row ``i`` of ``_hopm`` holds
flow ``i``'s link indices, right-padded with a *dummy* link row (index
``L``) whose registers are rigged so padding is arithmetically inert —
scale 1.0, queueing delay 0.0, mark probability 0.0, and arrival
contributions land on the dummy row and are discarded.  The matrix is
exactly as wide as the longest path admitted so far (6 columns on a
FatTree), growing when a longer one arrives.  Admitting a flow
therefore writes one row; no index structures rebuild.  A small CSR
block (``_il``/``_il_off``) additionally tracks each flow's INT
telemetry links (switch egress with capacity > 0) for schemes that
read per-hop state, rebuilt whenever dynamics change capacities.

Each step touches only the live working set:

* per-link math (throttle factor, queueing delay, ECN mark
  probability) runs on the *touched* links — those carrying a live
  flow — and is scattered into ``L + 1``-long lookups whose other
  entries stay inert.  Only dead rows read an untouched link, and a
  dead row requests, delivers and contributes nothing;
* the touched set is kept incrementally: per-link live-flow counts rise
  on admission and fall on completion, and the touched index list is
  re-listed only when some count crosses 0 <-> 1;
* dead rows are compacted away in place (array gathers over the row
  arrays, the hop matrix and the INT block) once they reach a quarter
  of the row block.  Capacity changes still rebuild every row from its
  flow object, because they re-filter the INT links.

Per-path reductions run column by column, left to right: the queueing
delay sum (:func:`_path_sum`) and the mark product must round exactly
as the scalar engine's per-hop loops do.

CC adapters fire once per accumulated RTT: arrival- and
event-shortened mini-steps accumulate ``elapsed``/``delivered``/
``marked`` per flow, and the adapter sees one aggregated
:class:`StepSignals` when a full ``step`` has elapsed.  That is the
cadence every scheme in the paper is defined at (the scalar engine
fires on every mini-step; on runs whose steps are never shortened the
two engines produce bit-identical trajectories).

Network dynamics run at *event boundaries*: scheduled timeline events
(link cuts, recoveries, degradations) shorten the step so they fire at
their exact instant, synchronize the array view back into the live
:class:`~repro.fluid.state.FluidGraph` objects (``push``), mutate the
graph, re-``pull``, and rebuild the flow rows.  Routing reconvergence
(:meth:`FluidEngine.reconverge`) recomputes every flow's ECMP path over
the alive subgraph — reroute decisions depend only on topology and the
deterministic ECMP hash, so they are identical across both engines.
A flow whose destination became unreachable parks (zero rate, CC
frozen) until a restore re-routes it.

Cost per step is a handful of ``O(flows x path length)`` numpy kernels
— independent of bandwidth, flow size and packet count, and amortizing
the Python interpreter across every active flow.  That is what makes
k=16 FatTrees (1024+ hosts) tractable; see
``benchmarks/bench_fluid_engine.py`` for the measured speedup over the
scalar reference.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

import numpy as np

from ..core.base import CcEnv
from ..core.registry import get_scheme
from ..sim.ecn import EcnConfig
from ..sim.flow import FctRecord, FlowSpec
from ..sim.packet import ACK_SIZE, IntHop, data_header, data_wire_factor
from ..sim.units import MB
from ..topology.base import Topology
from .adapters import FluidClock, FlowProxy, RateAdapter, StepSignals, adapter_for
from .goodput import GoodputRecorder
from .state import FluidGraph, FluidPath

_EPS = 1e-9
_INF = float("inf")
_NO_HOPS: list[IntHop] = []
#: The float row arrays (beside ``_alive``, ``_hopm`` and the INT block).
_ROW_FIELDS = (
    "_rate", "_window", "_line", "_remaining", "_brtt",
    "_elapsed", "_dacc", "_macc",
)


def _path_sum(per_hop: np.ndarray) -> np.ndarray:
    """Sum each row of a per-hop matrix left to right, hop by hop.

    This is the order of :meth:`FluidPath.queue_delay`'s Python loop.
    ``ndarray.sum(axis=1)`` is not: from 8 columns on, numpy sums rows
    as a pairwise tree, which can differ in the last bit.
    """
    total = np.zeros(per_hop.shape[0])
    for j in range(per_hop.shape[1]):
        total += per_hop[:, j]
    return total


class FluidFlow:
    """One flow's fluid state: route, remaining bytes, CC adapter.

    The array engine keeps the *hot* per-step state (remaining bytes,
    rate, accumulators) in its row arrays while the flow is admitted;
    the object fields are the durable home, synchronized whenever rows
    rebuild (events, reconvergence, compaction).
    """

    __slots__ = (
        "spec", "path", "proxy", "adapter", "line_rate", "ideal",
        "remaining", "req", "achieved", "topo_version",
        "elapsed", "acc_delivered", "acc_marked", "hops",
    )

    def __init__(
        self,
        spec: FlowSpec,
        path: FluidPath | None,
        proxy: FlowProxy,
        adapter: RateAdapter,
        line_rate: float,
        ideal: float,
        wire_bytes: float,
    ) -> None:
        self.spec = spec
        self.path = path                # None while parked (no route)
        self.proxy = proxy
        self.adapter = adapter
        self.line_rate = line_rate
        self.ideal = ideal              # uncontended FCT, ns
        self.remaining = wire_bytes     # wire bytes still to deliver
        self.req = 0.0                  # requested rate this step
        self.achieved = 0.0             # post-throttle rate this step
        self.topo_version = 0           # graph version the path was built on
        self.elapsed = 0.0              # ns since the last CC adapter fire
        self.acc_delivered = 0.0        # wire bytes since the last fire
        self.acc_marked = 0.0           # mark-weighted bytes since the fire
        self.hops: list[IntHop] | None = None   # reused INT telemetry row


class FluidEngine:
    """Vectorized flow-level simulation of one topology + CC scheme.

    Mirrors the :class:`~repro.network.Network` surface where it makes
    sense: ``add_flows`` then ``run(deadline)``; results land in
    ``fct_records`` (live :class:`FctRecord` objects, same as the packet
    path's metrics hub would produce).  The scalar reference
    implementation with identical semantics is
    :class:`repro.fluid.reference.ScalarFluidEngine`.
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
        #: Struct-of-arrays link registers (see LinkArrays): the engine
        #: owns these while stepping and push/pulls at event boundaries.
        self.arrays = self.graph.link_arrays()
        self.clock = FluidClock()
        self.now = 0.0
        self.steps = 0
        self.flow_steps = 0             # sum of active flows over steps
        self.completed = False
        self.fct_records: list[FctRecord] = []
        #: Optional :class:`repro.obs.probes.FluidProbe`; when ``None``
        #: (the default) the step loop calls ``_advance`` directly.
        self.telemetry = None
        #: Optional control-loop flight recorder (a
        #: :class:`~repro.core.base.DecisionTap`), mirroring
        #: ``Network.decision_tap``; attach before ``add_flows``.
        self.decision_tap = None
        #: Optional per-link external (foreground) rates in bytes/ns,
        #: length ``arrays.n``.  When set (only by the hybrid engine's
        #: epoch coupling), every capacity term in ``_advance`` uses the
        #: residual ``capacity - ext_rates``, and the cumulative
        #: external bytes are folded into the INT registers the CC
        #: adapters read, so background flows see the foreground as
        #: cross-traffic.  ``None`` (the default) leaves the pure-fluid
        #: step loop bit-identical.
        self.ext_rates = None
        #: Optional per-link external (foreground) queue depths in
        #: bytes, folded into ECN marking and queueing-delay estimates.
        self.ext_qlen = None
        self._ext_bytes = None          # cumulative ext_rates integral

        self._starts: list[FluidFlow] = []      # sorted by start_time
        self._next_idx = 0
        self._parked: list[FluidFlow] = []      # routeless until a restore
        self._sorted = True
        self._topo_version = 0

        # Min-heap of (time, seq, fn): drivers schedule before the run,
        # and detection-delay callbacks push more mid-run.
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0

        self._needs_int = self.scheme.needs_int
        self._ecn_policy = self.scheme.default_ecn(self.cc_params)
        self._ecn_stale = True
        self._ecn_kmin = self._ecn_kmax = self._ecn_pmax = None
        self._ecn_span = None

        # -- flow rows (struct-of-arrays, padded hop matrix) -----------------
        cap = 64
        #: Padding target: one row past the real links; scale/queue-delay/
        #: mark lookups are extended with an inert entry at this index.
        self._dummy = self.arrays.n
        self._flows: list[FluidFlow] = []       # row -> flow object
        self._n = 0                             # rows in use (incl. dead)
        self._alive_n = 0                       # rows still delivering
        self._il_nnz = 0                        # CSR telemetry entries in use
        self._alive = np.zeros(cap, dtype=bool)
        self._rate = np.zeros(cap)              # CC rate (mirror of proxy)
        self._window = np.zeros(cap)            # CC window (inf if rate-only)
        self._line = np.zeros(cap)              # NIC line rate cap
        self._remaining = np.zeros(cap)         # wire bytes left
        self._brtt = np.zeros(cap)              # path base RTT
        self._elapsed = np.zeros(cap)           # ns since last CC fire
        self._dacc = np.zeros(cap)              # delivered since last fire
        self._macc = np.zeros(cap)              # mark-weighted bytes since
        self._H = 0                             # hop width: longest path
        self._hopm = np.full((cap, self._H), self._dummy, dtype=np.int64)
        self._il_off = np.zeros(cap + 1, dtype=np.int64)
        self._il = np.zeros(256, dtype=np.int64)
        #: Live rows per link (the dummy slot absorbs padding) and the
        #: links with at least one: the touched set, kept incrementally.
        self._link_flows = np.zeros(self._dummy + 1, dtype=np.int64)
        self._touched = np.zeros(self._dummy + 1, dtype=bool)
        self._touched_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_mask = np.zeros(0, dtype=bool)
        self._touched_stale = True
        #: Adapters fire when a full step has accumulated; the epsilon
        #: absorbs float dust from summing shortened mini-steps.
        self._fire_at = self.step - 1e-9
        self._sig = StepSignals(
            hops=_NO_HOPS, rtt=0.0, mark_prob=0.0,
            delivered=0.0, now=0.0, dt=0.0,
        )

        self.sample_interval = sample_interval
        self._last_sample = -_INF
        self._sample_links = (
            self.graph.switch_egress_links() if sample_interval is not None else []
        )
        self.queue_samples: dict[str, dict[str, list[float]]] = {
            link.label: {"times": [], "qlens": []} for link in self._sample_links
        }
        self._sample_idx = np.array(
            [link.index for link in self._sample_links], dtype=np.int64
        )
        self._sample_series = [
            self.queue_samples[link.label] for link in self._sample_links
        ]
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
            # Same wiring as HostNic.start_flow: attach the per-flow
            # trace and anchor it at the line-rate start state (stamped
            # at the flow's start time — fluid admits flows lazily).
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

    # -- row bookkeeping ---------------------------------------------------------

    def _ensure_rows(self, need: int) -> None:
        cap = self._rate.shape[0]
        if need <= cap:
            return
        new = max(need, cap * 2)
        for name in _ROW_FIELDS:
            a = getattr(self, name)
            b = np.zeros(new)
            b[:cap] = a
            setattr(self, name, b)
        alive = np.zeros(new, dtype=bool)
        alive[:cap] = self._alive
        self._alive = alive
        hopm = np.full((new, self._H), self._dummy, dtype=np.int64)
        hopm[:cap] = self._hopm
        self._hopm = hopm
        il_off = np.zeros(new + 1, dtype=np.int64)
        il_off[:cap + 1] = self._il_off
        self._il_off = il_off

    def _ensure_width(self, k: int) -> None:
        if k <= self._H:
            return
        cap = self._hopm.shape[0]
        hopm = np.full((cap, k), self._dummy, dtype=np.int64)
        hopm[:, :self._H] = self._hopm
        self._hopm = hopm
        self._H = k

    def _append_row(self, flow: FluidFlow) -> None:
        """Materialize one routed flow as a row of the hop matrix."""
        n = self._n
        self._ensure_rows(n + 1)
        links = flow.path.links
        k = len(links)
        self._ensure_width(k)
        self._flows.append(flow)
        self._alive[n] = True
        self._rate[n] = flow.proxy.rate
        w = flow.proxy.window
        self._window[n] = _INF if w is None else w
        self._line[n] = flow.line_rate
        self._remaining[n] = flow.remaining
        self._brtt[n] = flow.path.base_rtt
        self._elapsed[n] = flow.elapsed
        self._dacc[n] = flow.acc_delivered
        self._macc[n] = flow.acc_marked
        row = self._hopm[n]
        row[:k] = [l.index for l in links]
        row[k:] = self._dummy
        hops = row[:k]
        counts = self._link_flows
        counts[hops] += 1
        if (counts[hops] == 1).any():
            self._touched[hops] = True
            self._touched_stale = True
        if self._needs_int:
            # Telemetry links: switch egress with capacity > 0 (a cut
            # edge still on this flow's pre-reconvergence path returns
            # no ACKs from beyond the cut — no INT signal).
            ints = [
                l.index for l in flow.path.int_links if l.capacity > 0.0
            ]
            m = len(ints)
            il = self._il
            if self._il_nnz + m > il.shape[0]:
                grown = np.zeros(
                    max(self._il_nnz + m, il.shape[0] * 2), dtype=np.int64
                )
                grown[:self._il_nnz] = il[:self._il_nnz]
                self._il = grown
            self._il[self._il_nnz:self._il_nnz + m] = ints
            self._il_nnz += m
            self._il_off[n + 1] = self._il_nnz
            if flow.hops is None or len(flow.hops) != m:
                flow.hops = [
                    IntHop(bandwidth=0.0, ts=0.0, tx_bytes=0.0, qlen=0.0,
                           rx_bytes=0.0)
                    for _ in range(m)
                ]
        self._n = n + 1
        self._alive_n += 1

    def _save_rows(self) -> None:
        """Sync hot row state back into the flow objects."""
        n = self._n
        if not n:
            return
        rem = self._remaining[:n].tolist()
        ela = self._elapsed[:n].tolist()
        dac = self._dacc[:n].tolist()
        mac = self._macc[:n].tolist()
        for i, flow in enumerate(self._flows):
            flow.remaining = rem[i]
            flow.elapsed = ela[i]
            flow.acc_delivered = dac[i]
            flow.acc_marked = mac[i]

    def _set_rows(self, flows: list[FluidFlow]) -> None:
        """Rebuild every row array from scratch for ``flows`` (in order)."""
        self._flows = []
        self._n = 0
        self._alive_n = 0
        self._il_nnz = 0
        self._alive[:] = False
        self._il_off[0] = 0
        self._link_flows[:] = 0
        self._touched[:] = False
        for flow in flows:
            self._append_row(flow)
        self._touched_stale = True

    def _rebuild_rows(self) -> None:
        """Save + rebuild the alive rows (after a capacity change, which
        must re-filter every row's INT links)."""
        self._save_rows()
        alive = self._alive
        self._set_rows([f for i, f in enumerate(self._flows) if alive[i]])

    def _compact_rows(self) -> None:
        """Drop dead rows in place, keeping the live rows' order.

        Pure gathers: the row arrays, the hop matrix and the INT CSR
        block shift down over the dead rows; the per-link live counts
        already exclude them, so the touched set is unchanged.
        """
        n = self._n
        keep = np.flatnonzero(self._alive[:n])
        m = keep.size
        for name in _ROW_FIELDS:
            a = getattr(self, name)
            a[:m] = a[keep]
        self._alive[:m] = True
        self._alive[m:n] = False
        self._hopm[:m] = self._hopm[keep]
        flows = self._flows
        self._flows = [flows[i] for i in keep.tolist()]
        if self._needs_int:
            off = self._il_off
            off0 = off[keep]
            cnt = off[keep + 1] - off0
            ends = np.cumsum(cnt)
            nnz = int(ends[-1]) if m else 0
            pos = (
                np.arange(nnz, dtype=np.int64)
                - np.repeat(ends - cnt, cnt) + np.repeat(off0, cnt)
            )
            self._il[:nnz] = self._il[pos]
            off[1:m + 1] = ends
            self._il_nnz = nnz
        self._n = m

    def _release_links(self, rows: np.ndarray) -> None:
        """Decrement the live counts of finished ``rows``' links."""
        hops = self._hopm[rows].ravel()
        counts = self._link_flows
        np.subtract.at(counts, hops, 1)
        counts[self._dummy] = 0
        freed = counts[hops] == 0
        freed &= self._touched[hops]    # the dummy slot is never touched
        if freed.any():
            self._touched[hops[freed]] = False
            self._touched_stale = True

    def _retouch(self) -> None:
        """Re-list the links carrying at least one live flow."""
        ti = np.flatnonzero(self._touched)
        self._touched_idx = ti
        em = self.arrays.egress[ti]
        self._touched_eg_mask = em
        self._touched_eg_idx = ti[em]
        self._touched_stale = False

    def _refresh_ecn(self) -> None:
        """Per-link RED parameters as vectors (rebuilt on capacity changes)."""
        count = self.arrays.n
        kmin = np.zeros(count)
        kmax = np.full(count, _INF)
        pmax = np.zeros(count)
        cache: dict[float, EcnConfig] = {}
        for link in self.graph.link_list:
            c = link.capacity
            if c <= 0.0:
                continue
            config = cache.get(c)
            if config is None:
                config = self._ecn_policy.for_rate(c)
                cache[c] = config
            i = link.index
            kmin[i] = config.kmin
            kmax[i] = config.kmax
            pmax[i] = config.pmax
        self._ecn_kmin = kmin
        self._ecn_kmax = kmax
        self._ecn_pmax = pmax
        self._ecn_span = kmax - kmin
        self._ecn_stale = False

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
        self.arrays.push()
        flushed = self.graph.fail_link(a, b)
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True
        return flushed

    def restore_link(self, a: int, b: int) -> None:
        self.arrays.push()
        self.graph.restore_link(a, b)
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True

    def degrade_link(
        self, a: int, b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        self.arrays.push()
        self.graph.degrade_link(
            a, b, rate_factor=rate_factor, delay_factor=delay_factor
        )
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True

    def reconverge(self) -> int:
        """Recompute every in-flight and pending flow's path.

        The fluid analogue of routing reconvergence: active flows pick up
        their post-change ECMP route (deterministic hash, so a restored
        trunk gets its old flows back), parked flows re-admit if a route
        reappeared, and newly routeless flows park.  Returns the number
        of flows whose path changed (the reroute count) — a function of
        topology and the ECMP hash only, hence identical to the scalar
        reference engine's.
        """
        self._topo_version += 1
        self.graph.invalidate()
        self._ecn_stale = True
        self._save_rows()
        rerouted = 0
        still_active: list[FluidFlow] = []
        parked: list[FluidFlow] = []
        alive = self._alive
        for i, flow in enumerate(self._flows):
            if not alive[i]:
                continue
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
        self._parked = parked
        self._set_rows(still_active)
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
        probe = self.telemetry
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
                    self._append_row(flow)
            if self.now >= deadline - _EPS:
                break
            next_start = (
                starts[self._next_idx].spec.start_time
                if self._next_idx < len(starts) else None
            )
            next_event = events[0][0] if events else None
            if not self._alive_n:
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
            if probe is None:
                self._advance(dt)
            else:
                kernel_t0 = time.perf_counter()
                self._advance(dt)
                probe.record_step(self, time.perf_counter() - kernel_t0)
        self.completed = (
            not self._alive_n and not self._parked
            and self._next_idx >= len(starts)
        )
        self.arrays.push()
        return self.completed

    def _advance(self, dt: float) -> None:
        if self._touched_stale:
            self._retouch()
        A = self.arrays
        L = self._dummy
        n = self._n
        H = self._H
        alive = self._alive[:n]
        hopm = self._hopm[:n]
        remaining = self._remaining[:n]
        n_active = self._alive_n
        # Per-link math runs on the touched links ``ti`` only, scattered
        # into (L+1)-long lookups whose other entries stay inert: only
        # dead rows read an untouched link, and a dead row's request,
        # delivery and every contribution are 0.
        ti = self._touched_idx

        # 1. requested rates (window-limited schemes pace at W/T).
        req = np.minimum(self._rate[:n], self._window[:n] / self.base_rtt)
        np.minimum(req, self._line[:n], out=req)
        req *= alive
        # 2. per-link offered arrivals -> proportional throttle factors.
        #    Row-major ravel order means per-link accumulation order is
        #    flow-major — the same order as the scalar engine's loops.
        # Effective capacity: pure-fluid runs keep ``A.capacity`` itself
        # (``ext_rates is None`` — same array object, bit-identical);
        # under hybrid coupling the background half sees only the
        # residual left over by measured foreground rates, floored at 1%
        # of line rate so a saturated link throttles instead of dividing
        # by zero.
        ext = self.ext_rates
        if ext is None:
            cap = A.capacity
        else:
            cap = np.maximum(A.capacity - ext[:L], 0.01 * A.capacity)
            if self._ext_bytes is None:
                self._ext_bytes = np.zeros(L)
            self._ext_bytes += ext[:L] * dt
        cap_t = cap[ti]
        flat = hopm.ravel()
        arrival = np.bincount(flat, weights=np.repeat(req, H), minlength=L + 1)
        arr_t = arrival[ti]
        scale = np.ones(L + 1)
        scale[ti] = np.divide(
            cap_t, arr_t, out=np.ones(ti.size), where=arr_t > cap_t
        )
        # 3. cascade the throttle along each path (upstream bottlenecks
        #    shield downstream links): exclusive prefix-min per row, one
        #    hop column at a time.
        sc = scale[hopm]
        w = np.empty((n, H))
        w[:, 0] = req
        cum = sc[:, 0].copy()
        for j in range(1, H):
            np.multiply(cum, req, out=w[:, j])
            np.minimum(cum, sc[:, j], out=cum)
        achieved = req * cum
        throttled = np.bincount(flat, weights=w.ravel(), minlength=L + 1)
        # 4. integrate link state on the touched subset (untouched queues
        #    freeze, matching the scalar engine).  Only switch egress
        #    queues grow: a host's own uplink is paced at the source, so
        #    it never queues or drops — matching the packet NIC, which
        #    contributes no INT hop either.
        te = self._touched_eg_idx
        em = self._touched_eg_mask
        inflow = throttled[ti] * dt
        qt = A.queue[ti]
        offered = qt + inflow
        tx = np.minimum(offered, cap_t * dt)
        A.tx[ti] += tx
        A.rx[ti] += inflow
        offered -= tx
        q = offered[em]
        buf = A.buffer[te]
        excess = q - buf
        over_b = excess > 0.0
        if over_b.any():
            A.dropped[te[over_b]] += excess[over_b]
            q[over_b] = buf[over_b]
        q[q <= _EPS] = 0.0
        A.queue[te] = q
        # 5. deliver bytes; complete by interpolation; accumulate CC
        #    signals and fire adapters whose RTT window filled up.
        start_t = self.now
        self.now = start_t + dt
        self.clock.now = self.now
        delivered = achieved * dt
        done = delivered >= (remaining - 1e-6)
        done &= alive
        extq = self.ext_qlen
        qc_t = A.queue[ti] if extq is None else A.queue[ti] + extq[ti]
        qdiv = np.zeros(L + 1)
        qdiv[ti] = np.divide(
            qc_t, cap_t, out=np.zeros(ti.size), where=cap_t > 0.0
        )
        qdelay = _path_sum(qdiv[hopm])
        goodput = self._goodput
        flows = self._flows
        any_done = done.any()
        if any_done:
            idxs = np.flatnonzero(done)
            ach_l = achieved[idxs].tolist()
            rem_l = remaining[idxs].tolist()
            qd_l = qdelay[idxs].tolist()
            brtt_l = self._brtt[idxs].tolist()
            for i, ach, rem, qd, brtt in zip(
                idxs.tolist(), ach_l, rem_l, qd_l, brtt_l
            ):
                flow = flows[i]
                t_send = rem / ach if ach > 0 else dt
                if goodput is not None and rem > 0:
                    goodput.record(
                        flow.spec.flow_id, start_t, start_t + t_send,
                        rem / self.wire_factor,
                    )
                flow.remaining = 0.0
                flow.proxy.done = True
                self.fct_records.append(FctRecord(
                    spec=flow.spec, start=flow.spec.start_time,
                    finish=start_t + t_send + brtt + qd, ideal=flow.ideal,
                ))
            alive[idxs] = False
            self._alive_n -= idxs.size
            self._release_links(idxs)
        remaining -= delivered
        if any_done:
            remaining[idxs] = 0.0
        if goodput is not None:
            rows = np.flatnonzero(alive & (delivered > 0))
            if rows.size:
                d_l = delivered[rows].tolist()
                for i, d in zip(rows.tolist(), d_l):
                    goodput.record(
                        flows[i].spec.flow_id, start_t, self.now,
                        d / self.wire_factor,
                    )
        # CC accumulators: elapsed time, delivered and mark-weighted
        # bytes per flow; fire adapters once a full step accumulated.
        elapsed = self._elapsed[:n]
        dacc = self._dacc[:n]
        macc = self._macc[:n]
        first = elapsed == 0.0          # single-mini-step window so far
        elapsed += dt
        dacc += delivered
        mark_flow = None
        if self._ecn_policy is not None:
            if self._ecn_stale:
                self._refresh_ecn()
            kmin = self._ecn_kmin[ti]
            span = self._ecn_span[ti]
            p = np.divide(
                self._ecn_pmax[ti] * (qc_t - kmin), span,
                out=np.zeros(ti.size), where=span > 0.0,
            )
            p[qc_t <= kmin] = 0.0
            p[qc_t >= self._ecn_kmax[ti]] = 1.0
            one_minus = np.ones(L + 1)
            one_minus[ti] = 1.0 - p
            # Host links and dead links carry p == 0, so the product
            # over *all* path hops equals the scalar engine's product
            # over telemetry links only (1.0 factors are exact).
            per_hop = one_minus[hopm]
            unmarked = per_hop[:, 0].copy()
            for j in range(1, H):
                unmarked *= per_hop[:, j]
            mark_flow = 1.0 - unmarked
            macc += mark_flow * delivered
        fire = alive & (elapsed >= self._fire_at)
        if fire.any():
            self._fire(
                np.flatnonzero(fire), qdelay, mark_flow, first,
                elapsed, dacc, macc,
            )
        self.steps += 1
        self.flow_steps += n_active
        if (
            self.sample_interval is not None
            and self.now - self._last_sample >= self.sample_interval
        ):
            self._last_sample = self.now
            qv = A.queue[self._sample_idx].tolist()
            for series, qlen in zip(self._sample_series, qv):
                series["times"].append(self.now)
                series["qlens"].append(qlen)
        # Compact dead rows away once they are a quarter of the block.
        dead = self._n - self._alive_n
        if dead >= 16 and dead * 4 >= self._n:
            self._compact_rows()

    def _fire(
        self,
        fidx: np.ndarray,
        qdelay: np.ndarray,
        mark_flow: np.ndarray | None,
        first: np.ndarray,
        elapsed: np.ndarray,
        dacc: np.ndarray,
        macc: np.ndarray,
    ) -> None:
        """Replay one accumulated RTT through each fired flow's adapter.

        ``sig.mark_prob`` is the delivered-weighted mean mark probability
        over the window; for a single-mini-step window it is the step's
        instantaneous value, bit-identical to the scalar engine's.
        """
        A = self.arrays
        flows = self._flows
        now = self.now
        fl = fidx.tolist()
        rtt_l = (self._brtt[fidx] + qdelay[fidx]).tolist()
        del_l = dacc[fidx].tolist()
        dt_l = elapsed[fidx].tolist()
        if mark_flow is not None:
            fd = dacc[fidx]
            mark_l = np.where(
                first[fidx],
                mark_flow[fidx],
                np.divide(
                    macc[fidx], fd, out=np.zeros(fidx.size), where=fd > 0.0
                ),
            ).tolist()
        else:
            mark_l = None
        needs_int = self._needs_int
        if needs_int:
            # Gather only the fired flows' telemetry links (the full CSR
            # block also spans dead and not-yet-firing rows).
            off0 = self._il_off[fidx]
            cnt = self._il_off[fidx + 1] - off0
            bases = np.cumsum(cnt) - cnt
            total = int(cnt.sum())
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(bases, cnt) + np.repeat(off0, cnt)
            )
            ilv = self._il[pos]
            cap_l = A.capacity[ilv].tolist()
            txv = A.tx[ilv]
            rxv = A.rx[ilv]
            qv = A.queue[ilv]
            # Hybrid coupling: the adapters' INT view folds the
            # foreground share in, exactly as packet switches fold the
            # background into their stamps — both CC populations then
            # react to the *combined* utilization.
            if self._ext_bytes is not None:
                extb = self._ext_bytes[ilv]
                txv = txv + extb
                rxv = rxv + extb
            if self.ext_qlen is not None:
                qv = qv + self.ext_qlen[ilv]
            tx_l = txv.tolist()
            q_l = qv.tolist()
            rx_l = rxv.tolist()
            bases_l = bases.tolist()
        sig = self._sig
        sig.now = now
        for k, i in enumerate(fl):
            flow = flows[i]
            if needs_int:
                hops = flow.hops
                base = bases_l[k]
                for h, hop in enumerate(hops):
                    j = base + h
                    hop.bandwidth = cap_l[j]
                    hop.ts = now
                    hop.tx_bytes = tx_l[j]
                    hop.qlen = q_l[j]
                    hop.rx_bytes = rx_l[j]
                sig.hops = hops
            else:
                sig.hops = _NO_HOPS
            sig.rtt = rtt_l[k]
            sig.mark_prob = mark_l[k] if mark_l is not None else 0.0
            sig.delivered = del_l[k]
            sig.dt = dt_l[k]
            flow.adapter.update(flow.proxy, sig)
        self._rate[fidx] = [flows[i].proxy.rate for i in fl]
        win = []
        for i in fl:
            w = flows[i].proxy.window
            win.append(_INF if w is None else w)
        self._window[fidx] = win
        elapsed[fidx] = 0.0
        dacc[fidx] = 0.0
        macc[fidx] = 0.0

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
        self.arrays.push()
        return sum(l.dropped_bytes for l in self.graph.links.values())

    def switch_queued_bytes(self) -> dict[int, float]:
        self.arrays.push()
        return self.graph.total_queued_bytes()
