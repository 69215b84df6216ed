"""The paper's simulation topology: a three-tier FatTree (Section 5.1).

Full scale: 16 Core, 20 Agg, 20 ToR switches, 320 servers (16 per rack),
100Gbps host NICs, 400Gbps fabric links, 1us propagation everywhere,
max base RTT ~12us, ``T = 13us``.

Pods pair ToRs with Aggs (full bipartite inside a pod); each Agg connects
to an even share of the Core layer.  The builder is fully parameterized:
packet-level simulation of the full fabric in Python is possible but slow,
so experiments default to a scaled instance (same oversubscription ratio,
same tiering — the properties the paper's FatTree results depend on).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.units import parse_bandwidth, parse_time
from .base import LinkSpec, Topology


@dataclass(frozen=True)
class FatTreeSpec:
    n_pods: int = 4
    tors_per_pod: int = 5
    aggs_per_pod: int = 5
    n_core: int = 16
    hosts_per_tor: int = 16
    host_rate: str = "100Gbps"
    fabric_rate: str = "400Gbps"
    link_delay: str = "1us"

    def scaled(self, factor: int) -> "FatTreeSpec":
        """Shrink host count by ``factor`` while keeping the tier ratios."""
        return FatTreeSpec(
            n_pods=max(2, self.n_pods // factor),
            tors_per_pod=max(2, self.tors_per_pod // factor),
            aggs_per_pod=max(2, self.aggs_per_pod // factor),
            n_core=max(2, self.n_core // factor),
            hosts_per_tor=max(2, self.hosts_per_tor // factor),
            host_rate=self.host_rate,
            fabric_rate=self.fabric_rate,
            link_delay=self.link_delay,
        )


def fattree(spec: FatTreeSpec | None = None) -> Topology:
    """Build a FatTree; ``fattree()`` is the paper's full 320-server fabric."""
    s = spec or FatTreeSpec()
    if s.n_pods < 1 or s.tors_per_pod < 1 or s.aggs_per_pod < 1:
        raise ValueError("pods/tors/aggs must be positive")
    if s.n_core % s.aggs_per_pod and s.aggs_per_pod % s.n_core:
        # Allow uneven sharing; links are assigned round-robin below.
        pass
    host_rate = parse_bandwidth(s.host_rate)
    fabric_rate = parse_bandwidth(s.fabric_rate)
    delay = parse_time(s.link_delay)

    n_tors = s.n_pods * s.tors_per_pod
    n_aggs = s.n_pods * s.aggs_per_pod
    n_hosts = n_tors * s.hosts_per_tor
    tor0 = n_hosts
    agg0 = tor0 + n_tors
    core0 = agg0 + n_aggs
    tors = [tor0 + i for i in range(n_tors)]
    aggs = [agg0 + i for i in range(n_aggs)]
    cores = [core0 + i for i in range(s.n_core)]

    links: list[LinkSpec] = []
    for t, tor in enumerate(tors):
        for h in range(s.hosts_per_tor):
            links.append(LinkSpec(t * s.hosts_per_tor + h, tor, host_rate, delay))
    # Pod-internal bipartite ToR x Agg.
    for pod in range(s.n_pods):
        pod_tors = tors[pod * s.tors_per_pod:(pod + 1) * s.tors_per_pod]
        pod_aggs = aggs[pod * s.aggs_per_pod:(pod + 1) * s.aggs_per_pod]
        for tor in pod_tors:
            for agg in pod_aggs:
                links.append(LinkSpec(tor, agg, fabric_rate, delay))
    # Agg -> Core: spread each Agg's uplinks across the core layer so every
    # pod reaches every core (round-robin keeps it balanced when the counts
    # do not divide evenly).
    uplinks_per_agg = max(1, s.n_core // s.aggs_per_pod)
    for pod in range(s.n_pods):
        for j in range(s.aggs_per_pod):
            agg = aggs[pod * s.aggs_per_pod + j]
            for u in range(uplinks_per_agg):
                core = cores[(j * uplinks_per_agg + u) % s.n_core]
                links.append(LinkSpec(agg, core, fabric_rate, delay))

    return Topology(
        name=f"fattree_p{s.n_pods}t{s.tors_per_pod}h{s.hosts_per_tor}",
        n_hosts=n_hosts,
        n_switches=n_tors + n_aggs + s.n_core,
        links=links,
        switch_tiers={"tor": tors, "agg": aggs, "core": cores},
    )


def fattree_k_spec(
    k: int,
    host_rate: str = "100Gbps",
    fabric_rate: str = "400Gbps",
) -> FatTreeSpec:
    """The classic k-ary FatTree as a :class:`FatTreeSpec`.

    ``k`` pods of ``k/2`` ToRs and ``k/2`` Aggs, ``(k/2)^2`` core
    switches, ``k/2`` hosts per ToR — ``k^3/4`` hosts total (k=16 gives
    1024).  Every Agg uplinks to ``k/2`` cores, so each pod reaches the
    entire core layer.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    half = k // 2
    return FatTreeSpec(
        n_pods=k, tors_per_pod=half, aggs_per_pod=half,
        n_core=half * half, hosts_per_tor=half,
        host_rate=host_rate, fabric_rate=fabric_rate,
    )


def fattree_k(k: int, **rates: str) -> Topology:
    """Build the k-ary FatTree (``k^3/4`` hosts); see :func:`fattree_k_spec`."""
    return fattree(fattree_k_spec(k, **rates))


def paper_fattree() -> Topology:
    """The full-scale fabric of Section 5.1 (320 hosts)."""
    return fattree(FatTreeSpec())


def bench_fattree() -> Topology:
    """A scaled instance for Python-speed runs: 2 pods x 2 ToRs x 4 hosts
    at 10/40Gbps — same 1:1 tiering and per-tier oversubscription shape."""
    return fattree(FatTreeSpec(
        n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
        hosts_per_tor=4, host_rate="10Gbps", fabric_rate="40Gbps",
    ))
