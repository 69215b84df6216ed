"""Fluid network state: directed links, flow paths, the routed graph.

The fluid backend abandons packets entirely.  A :class:`FluidLink` is a
directed edge carrying an *aggregate byte rate*; its egress queue is a
real number integrated forward in time (``q += (arrival - capacity) x
dt``), and its cumulative ``tx_bytes``/``rx_bytes`` counters are exactly
the registers an INT-capable switch would expose — which is how the HPCC
adapter computes Eqn (2)'s ``qlen``/``txRate`` inputs analytically
instead of reading them off packet telemetry.

Two representations of the same registers coexist:

* the **object view** (:class:`FluidLink`) — one Python object per
  directed edge, the stable surface the dynamics subsystem mutates and
  tests introspect;
* the **array view** (:class:`LinkArrays`) — a struct-of-arrays block
  (one numpy vector per register, indexed by :attr:`FluidLink.index`)
  that the vectorized engine steps.  The engine owns the arrays while
  stepping and synchronizes with the objects at event boundaries
  (``pull``/``push``), so both views always agree whenever non-engine
  code can observe them.

Paths are chosen with the same deterministic ECMP-by-hash discipline as
the packet simulator: at every switch the next hop is drawn from the
neighbours one BFS hop closer to the destination, keyed by ``(flow_id,
src, dst, node)``.  Parallel links between the same node pair are
aggregated into one fluid link with the summed capacity — fluid rates
have no notion of per-member hashing.

Distance state scales with switches, not destination hosts.  A
destination ``h`` with exactly one alive neighbour ``s`` (a host on its
top-of-rack switch) is reached only through ``s``, so ``dist_h(n) =
dist_s(n) + 1`` for every ``n != h``: the ECMP candidate set at every
node is the same under ``s``'s table as under ``h``'s.
:meth:`FluidGraph.path` therefore walks ``src -> s`` over the
*attachment switch's* BFS table and appends the ``s -> h`` link, still
hashing with the real ``(flow_id, src, dst, node)``, so the chosen path
is the one a per-destination BFS would give.  On a k=16 FatTree that is
one table per ToR (128), not one per destination host (1024).  A
multi-homed or cut-off destination falls back to a BFS rooted at the
destination itself (so an unreachable flow still raises and dynamics
parks it).  Each table is a flat list indexed by node id, ``-1`` for
unreachable.

The graph is *live*: the network-dynamics subsystem fails, restores and
degrades individual link members mid-run.  Pooled capacities move, the
BFS distance cache invalidates, and subsequent :meth:`FluidGraph.path`
calls route over the alive subgraph only — the fluid analogue of
routing reconvergence (the engine decides *when* to recompute paths,
honouring the timeline's detection delay).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..sim.routing import ecmp_hash
from ..topology.base import Topology

__all__ = ["FluidGraph", "FluidLink", "FluidPath", "LinkArrays"]


class _Member:
    """One physical link of a (possibly parallel) node pair."""

    __slots__ = ("rate", "delay", "up")

    def __init__(self, rate: float, delay: float) -> None:
        self.rate = rate
        self.delay = delay
        self.up = True


class FluidLink:
    """One directed edge of the fluid network.

    ``queue`` only ever grows on switch egress (``is_switch_egress``);
    a host's own uplink is paced at the source, so oversubscription
    there is resolved by rate throttling, not queueing — mirroring the
    packet NIC, which never contributes INT hops either.

    ``capacity`` is the pooled rate of the pair's *up* members; a fully
    failed edge keeps its object (flows still pointing at it throttle to
    zero until the engine recomputes their paths) with capacity 0.

    ``label`` is precomputed (it used to be a per-call f-string
    property, which sat on the queue-sampling hot path) and ``index``
    is the link's fixed row in :class:`LinkArrays`.
    """

    __slots__ = (
        "a", "b", "capacity", "delay", "is_switch_egress", "buffer_bytes",
        "queue", "tx_bytes", "rx_bytes", "dropped_bytes",
        "arrival", "throttled", "scale", "label", "index",
    )

    def __init__(
        self,
        a: int,
        b: int,
        capacity: float,
        delay: float,
        is_switch_egress: bool,
        buffer_bytes: float,
    ) -> None:
        self.a = a
        self.b = b
        self.capacity = capacity        # bytes/ns (pooled over up members)
        self.delay = delay              # propagation, ns
        self.is_switch_egress = is_switch_egress
        self.buffer_bytes = buffer_bytes
        self.queue = 0.0                # bytes
        self.tx_bytes = 0.0             # cumulative bytes emitted
        self.rx_bytes = 0.0             # cumulative bytes offered
        self.dropped_bytes = 0.0        # fluid lost to overflow or link cuts
        # Per-step scratch registers (owned by the scalar engine's loop).
        self.arrival = 0.0
        self.throttled = 0.0
        self.scale = 1.0
        self.label = f"sw{a}->{b}"
        self.index = -1                 # row in LinkArrays, set by the graph

    def queue_delay(self) -> float:
        if self.capacity <= 0.0:
            return 0.0              # dead edge: queue was flushed at the cut
        return self.queue / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidLink({self.a}->{self.b} cap={self.capacity:.3f}B/ns "
            f"q={self.queue:.0f})"
        )


class FluidPath:
    """A flow's route at one instant: the links it loads, plus latency."""

    __slots__ = ("links", "int_links", "base_rtt", "mtu_latency")

    def __init__(self, links: list[FluidLink], mtu_wire: int, ack_size: int) -> None:
        self.links = links
        # INT telemetry comes from switch egress ports only, exactly as
        # in the packet simulator (hosts do not append hops).
        self.int_links = [l for l in links if l.is_switch_egress]
        # Uncontended round trip: full-MTU store-and-forward out, an
        # ACK-sized frame back — the ``Network.pair_base_rtt`` formula.
        forward = sum(l.delay + mtu_wire / l.capacity for l in links)
        backward = sum(l.delay + ack_size / l.capacity for l in links)
        self.base_rtt = forward + backward
        self.mtu_latency = forward

    def queue_delay(self) -> float:
        # An explicit left-to-right fold: ``sum()`` of floats is
        # compensated from Python 3.12 on, and the array engine pins
        # this order bit for bit.
        total = 0.0
        for l in self.links:
            total += l.queue_delay()
        return total


class LinkArrays:
    """Struct-of-arrays view of every directed link's hot registers.

    Row ``i`` belongs to ``graph.link_list[i]`` (``link.index == i``).
    The vectorized engine steps these vectors directly; ``pull`` refreshes
    them from the object view (after dynamics mutated capacities or
    flushed queues) and ``push`` writes the integrated state back so the
    object view — dynamics accounting, tests, ``total_queued_bytes`` —
    observes what the arrays computed.
    """

    __slots__ = ("links", "n", "capacity", "queue", "tx", "rx", "dropped",
                 "egress", "buffer")

    def __init__(self, links: list[FluidLink]) -> None:
        self.links = links
        self.n = len(links)
        self.egress = np.array([l.is_switch_egress for l in links], dtype=bool)
        self.buffer = np.array([l.buffer_bytes for l in links])
        self.capacity = np.empty(self.n)
        self.queue = np.empty(self.n)
        self.tx = np.empty(self.n)
        self.rx = np.empty(self.n)
        self.dropped = np.empty(self.n)
        self.pull()

    def pull(self) -> None:
        """Refresh every register from the object view."""
        for i, l in enumerate(self.links):
            self.capacity[i] = l.capacity
            self.queue[i] = l.queue
            self.tx[i] = l.tx_bytes
            self.rx[i] = l.rx_bytes
            self.dropped[i] = l.dropped_bytes

    def push(self) -> None:
        """Write the integrated registers back to the object view."""
        queue = self.queue.tolist()
        tx = self.tx.tolist()
        rx = self.rx.tolist()
        dropped = self.dropped.tolist()
        for i, l in enumerate(self.links):
            l.queue = queue[i]
            l.tx_bytes = tx[i]
            l.rx_bytes = rx[i]
            l.dropped_bytes = dropped[i]


class FluidGraph:
    """The routed fluid network built from a :class:`Topology`."""

    def __init__(self, topology: Topology, buffer_bytes: float) -> None:
        self.topology = topology
        self.links: dict[tuple[int, int], FluidLink] = {}
        # Undirected member lists keyed like ``links`` (both directions
        # share the list object, so one state flip moves both).
        self._members: dict[tuple[int, int], list[_Member]] = {}
        for spec in topology.links:
            member = _Member(spec.rate, spec.delay)
            for a, b in ((spec.a, spec.b), (spec.b, spec.a)):
                existing = self._members.get((a, b))
                if existing is not None:
                    existing.append(member)
                    self.links[(a, b)].capacity += spec.rate   # parallel pool
                else:
                    self._members[(a, b)] = [member]
                    self.links[(a, b)] = FluidLink(
                        a, b, spec.rate, spec.delay,
                        is_switch_egress=not topology.is_host(a),
                        buffer_bytes=buffer_bytes,
                    )
        # Fix the duplicated member list: both directions must share one.
        for spec in topology.links:
            self._members[(spec.b, spec.a)] = self._members[(spec.a, spec.b)]
        #: Fixed enumeration of the directed links; ``link.index`` is the
        #: row every :class:`LinkArrays` register uses for this link.
        self.link_list: list[FluidLink] = list(self.links.values())
        for i, link in enumerate(self.link_list):
            link.index = i
        self._egress_links: list[FluidLink] = [
            l for l in self.link_list if l.is_switch_egress
        ]
        self._neighbors: dict[int, list[int]] = {
            n: [] for n in range(topology.n_hosts + topology.n_switches)
        }
        for a, b in self.links:
            self._neighbors[a].append(b)
        #: BFS distance tables keyed by root node (an attachment switch,
        #: or a destination with no single alive neighbour).
        self._dist_to: dict[int, list[int]] = {}
        self._alive_neighbors: dict[int, list[int]] | None = None

    def link_arrays(self) -> LinkArrays:
        """A fresh struct-of-arrays block over :attr:`link_list`."""
        return LinkArrays(self.link_list)

    # -- dynamics ----------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the routing caches (after any member state change)."""
        self._dist_to.clear()
        self._alive_neighbors = None

    def _refresh_pair(self, a: int, b: int) -> None:
        members = self._members[(a, b)]
        capacity = sum(m.rate for m in members if m.up)
        up = [m for m in members if m.up]
        delay = up[0].delay if up else self.links[(a, b)].delay
        for key in ((a, b), (b, a)):
            link = self.links[key]
            link.capacity = capacity
            link.delay = delay

    def _flush_share(self, a: int, b: int, fraction: float) -> float:
        """Flush ``fraction`` of both directions' queues to drops.

        The fluid analogue of packets already serialized toward a cut
        fiber: the share of queued fluid attributable to the failed
        member is lost, not re-queued.
        """
        flushed = 0.0
        for key in ((a, b), (b, a)):
            link = self.links[key]
            if link.queue <= 0.0:
                continue
            lost = link.queue * fraction
            link.dropped_bytes += lost
            link.queue -= lost
            flushed += lost
        return flushed

    def fail_link(self, a: int, b: int) -> float:
        """Cut one up member of the pair; returns the bytes flushed."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        old_capacity = self.links[(a, b)].capacity
        member = next((m for m in members if m.up), None)
        if member is None:
            raise LookupError(f"no up link between {a} and {b}")
        member.up = False
        flushed = 0.0
        if old_capacity > 0.0:
            flushed = self._flush_share(a, b, member.rate / old_capacity)
        self._refresh_pair(a, b)
        self.invalidate()
        return flushed

    def restore_link(self, a: int, b: int) -> None:
        """Bring the oldest failed member of the pair back up."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        member = next((m for m in members if not m.up), None)
        if member is None:
            raise LookupError(f"no down link between {a} and {b}")
        member.up = True
        self._refresh_pair(a, b)
        self.invalidate()

    def degrade_link(
        self,
        a: int,
        b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        """Scale the first up member's rate and/or delay in place."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        member = next((m for m in members if m.up), None)
        if member is None:
            raise LookupError(f"no up link between {a} and {b}")
        if rate_factor is not None:
            member.rate *= rate_factor
        if delay_factor is not None:
            member.delay *= delay_factor
        self._refresh_pair(a, b)
        self.invalidate()

    # -- routing -----------------------------------------------------------------

    def _alive(self, a: int, b: int) -> bool:
        return self.links[(a, b)].capacity > 0.0

    def _up_neighbors(self) -> dict[int, list[int]]:
        """``node -> sorted alive peers``; rebuilt lazily per topology
        version so BFS and ECMP selection skip per-edge capacity checks."""
        alive = self._alive_neighbors
        if alive is None:
            alive = {
                node: sorted(
                    peer for peer in peers if self._alive(node, peer)
                )
                for node, peers in self._neighbors.items()
            }
            self._alive_neighbors = alive
        return alive

    def _distances(self, root: int) -> list[int]:
        """Hop distance of every node to ``root`` (``-1``: unreachable)."""
        dist = self._dist_to.get(root)
        if dist is None:
            neighbors = self._up_neighbors()
            dist = [-1] * len(neighbors)
            dist[root] = 0
            frontier = deque([root])
            while frontier:
                node = frontier.popleft()
                d = dist[node] + 1
                for peer in neighbors[node]:
                    if dist[peer] < 0:
                        dist[peer] = d
                        frontier.append(peer)
            self._dist_to[root] = dist
        return dist

    def path(self, flow_id: int, src: int, dst: int,
             mtu_wire: int, ack_size: int) -> FluidPath:
        """The flow's ECMP route over the links currently up."""
        neighbors = self._up_neighbors()
        attach = neighbors[dst]
        # A single-homed destination is reached only through its one
        # alive neighbour: walk to that switch over its table, then
        # take the last hop (see the module docstring).
        target = attach[0] if len(attach) == 1 and src != dst else dst
        dist = self._distances(target)
        if dist[src] < 0:
            raise ValueError(f"no route from {src} to {dst}")
        links: list[FluidLink] = []
        node = src
        while node != target:
            d_next = dist[node] - 1
            candidates = [
                peer for peer in neighbors[node] if dist[peer] == d_next
            ]
            if not candidates:
                raise ValueError(f"no route from {src} to {dst} at {node}")
            if len(candidates) == 1:
                peer = candidates[0]
            else:
                peer = candidates[
                    ecmp_hash(flow_id, src, dst, node) % len(candidates)
                ]
            links.append(self.links[(node, peer)])
            node = peer
        if target != dst:
            links.append(self.links[(target, dst)])
        return FluidPath(links, mtu_wire, ack_size)

    # -- introspection -----------------------------------------------------------

    def switch_egress_links(self) -> list[FluidLink]:
        """Every switch-egress link (cached; membership never changes)."""
        return self._egress_links

    def total_queued_bytes(self) -> dict[int, float]:
        """Bytes queued per switch (mirrors ``switch_queued_bytes``)."""
        queued: dict[int, float] = {}
        for link in self.link_list:
            if link.is_switch_egress and link.queue > 0:
                queued[link.a] = queued.get(link.a, 0.0) + link.queue
        return queued
