"""Fluid routing against an independent per-destination reference walk.

:meth:`FluidGraph.path` keeps one BFS table per attachment switch and
reaches a single-homed destination through its switch.  The reference
here is the plain definition it must agree with: a full BFS rooted at
the destination over the alive links, the next hop drawn at every node
from the sorted alive peers one hop closer, picked by
``ecmp_hash(flow_id, src, dst, node)``.  It reads only the graph's
public link registers, so a routing regression cannot hide behind code
shared with the engines (the fluid-vs-scalar suites both route through
``FluidGraph`` and would agree on a wrong path).
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.fluid.state import FluidGraph
from repro.sim.routing import ecmp_hash
from repro.topology.base import LinkSpec, Topology
from repro.topology.fattree import bench_fattree, fattree_k

MTU_WIRE = 1048
ACK_SIZE = 60
FLOW_IDS = (1, 7, 12345)


def _alive_peers(graph: FluidGraph) -> dict[int, list[int]]:
    peers: dict[int, set[int]] = {}
    for (a, b), link in graph.links.items():
        if link.capacity > 0.0:
            peers.setdefault(a, set()).add(b)
    return {node: sorted(p) for node, p in peers.items()}


def _bfs_from(dst: int, peers: dict[int, list[int]]) -> dict[int, int]:
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for peer in peers.get(node, ()):
            if peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    return dist


def _reference_walk(graph, peers, dist, flow_id, src, dst):
    """The per-destination ECMP walk: the links, or ``None`` if cut off."""
    if src not in dist:
        return None
    links = []
    node = src
    while node != dst:
        candidates = [p for p in peers.get(node, ())
                      if dist.get(p) == dist[node] - 1]
        peer = candidates[ecmp_hash(flow_id, src, dst, node) % len(candidates)]
        links.append(graph.links[(node, peer)])
        node = peer
    return links


def _reference_base_rtt(links) -> float:
    return sum(2 * l.delay + (MTU_WIRE + ACK_SIZE) / l.capacity
               for l in links)


def _assert_routes_match(graph: FluidGraph, pairs) -> int:
    peers = _alive_peers(graph)
    tables: dict[int, dict[int, int]] = {}
    checked = 0
    for src, dst in pairs:
        dist = tables.get(dst)
        if dist is None:
            dist = tables[dst] = _bfs_from(dst, peers)
        for flow_id in FLOW_IDS:
            want = _reference_walk(graph, peers, dist, flow_id, src, dst)
            if want is None:
                with pytest.raises(ValueError):
                    graph.path(flow_id, src, dst, MTU_WIRE, ACK_SIZE)
                continue
            got = graph.path(flow_id, src, dst, MTU_WIRE, ACK_SIZE)
            assert [(l.a, l.b) for l in got.links] == \
                [(l.a, l.b) for l in want], (flow_id, src, dst)
            assert got.base_rtt == pytest.approx(
                _reference_base_rtt(want), rel=1e-12)
            checked += 1
    return checked


def _all_pairs(topo: Topology) -> list[tuple[int, int]]:
    return [(s, d) for s in topo.hosts for d in topo.hosts if s != d]


def _sampled_pairs(topo: Topology, n: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    pairs = _all_pairs(topo)
    return rng.sample(pairs, n)


def _agg_core_link(topo: Topology) -> tuple[int, int]:
    aggs = set(topo.switch_tiers["agg"])
    cores = set(topo.switch_tiers["core"])
    return next((l.a, l.b) for l in topo.links
                if l.a in aggs and l.b in cores)


TOPOLOGIES = {
    "bench": bench_fattree,
    "k4": lambda: fattree_k(4),
}


class TestHealthyFabric:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_every_ordered_host_pair(self, name):
        topo = TOPOLOGIES[name]()
        graph = FluidGraph(topo, buffer_bytes=1e6)
        pairs = _all_pairs(topo)
        assert _assert_routes_match(graph, pairs) == \
            len(pairs) * len(FLOW_IDS)

    def test_k8_seeded_sample(self):
        topo = fattree_k(8)
        graph = FluidGraph(topo, buffer_bytes=1e6)
        assert _assert_routes_match(graph, _sampled_pairs(topo, 600, 11)) \
            == 600 * len(FLOW_IDS)

    def test_src_equals_dst_is_the_empty_path(self):
        graph = FluidGraph(bench_fattree(), buffer_bytes=1e6)
        assert graph.path(1, 3, 3, MTU_WIRE, ACK_SIZE).links == []


class TestLiveFabric:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_fail_restore_degrade_agg_core(self, name):
        topo = TOPOLOGIES[name]()
        graph = FluidGraph(topo, buffer_bytes=1e6)
        pairs = _all_pairs(topo)
        a, b = _agg_core_link(topo)
        before = {(f, s, d): [(l.a, l.b) for l in
                              graph.path(f, s, d, MTU_WIRE, ACK_SIZE).links]
                  for s, d in pairs for f in FLOW_IDS}

        graph.fail_link(a, b)
        _assert_routes_match(graph, pairs)
        # Some route really moved off the cut link.
        after = {key: [(l.a, l.b) for l in
                       graph.path(*key, MTU_WIRE, ACK_SIZE).links]
                 for key in before}
        assert after != before
        assert not any((a, b) in hops or (b, a) in hops
                       for hops in after.values())

        graph.restore_link(a, b)
        _assert_routes_match(graph, pairs)
        assert {key: [(l.a, l.b) for l in
                      graph.path(*key, MTU_WIRE, ACK_SIZE).links]
                for key in before} == before

        graph.degrade_link(a, b, rate_factor=0.25, delay_factor=3.0)
        _assert_routes_match(graph, pairs)

    def test_k8_fail_sample(self):
        topo = fattree_k(8)
        graph = FluidGraph(topo, buffer_bytes=1e6)
        graph.fail_link(*_agg_core_link(topo))
        _assert_routes_match(graph, _sampled_pairs(topo, 300, 5))

    def test_cut_destination_uplink_raises(self):
        topo = bench_fattree()
        graph = FluidGraph(topo, buffer_bytes=1e6)
        dst = 5
        tor = next(l.b for l in topo.links if l.a == dst)
        graph.fail_link(dst, tor)
        for src in topo.hosts:
            if src == dst:
                continue
            with pytest.raises(ValueError, match="no route"):
                graph.path(1, src, dst, MTU_WIRE, ACK_SIZE)
            with pytest.raises(ValueError, match="no route"):
                graph.path(1, dst, src, MTU_WIRE, ACK_SIZE)
        # Every other pair still routes like the reference.
        _assert_routes_match(
            graph, [(s, d) for s, d in _all_pairs(topo) if dst not in (s, d)]
        )
        graph.restore_link(dst, tor)
        _assert_routes_match(graph, _all_pairs(topo))


def _dual_homed() -> Topology:
    """Two ToRs under one spine; host 0 uplinks to both ToRs."""
    rate, delay = 1.25, 1000.0
    tor_a, tor_b, spine = 4, 5, 6
    links = [
        LinkSpec(0, tor_a, rate, delay), LinkSpec(0, tor_b, rate, delay),
        LinkSpec(1, tor_a, rate, delay), LinkSpec(2, tor_b, rate, delay),
        LinkSpec(3, tor_b, rate, delay),
        LinkSpec(tor_a, spine, 5.0, delay), LinkSpec(tor_b, spine, 5.0, delay),
        LinkSpec(tor_a, tor_b, 5.0, delay),
    ]
    return Topology(name="dual-homed", n_hosts=4, n_switches=3, links=links)


class TestMultiHomedDestination:
    """A destination with two alive neighbours takes the fallback BFS."""

    def test_matches_reference(self):
        topo = _dual_homed()
        graph = FluidGraph(topo, buffer_bytes=1e6)
        _assert_routes_match(graph, _all_pairs(topo))

    def test_single_homed_after_one_uplink_fails(self):
        topo = _dual_homed()
        graph = FluidGraph(topo, buffer_bytes=1e6)
        graph.fail_link(0, 4)
        _assert_routes_match(graph, _all_pairs(topo))
        graph.restore_link(0, 4)
        _assert_routes_match(graph, _all_pairs(topo))
