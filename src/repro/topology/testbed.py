"""The paper's 32-server testbed PoD (Section 5.1).

One Agg switch, four ToRs on 100Gbps uplinks, eight servers per ToR at
25Gbps.  The paper's servers are dual-homed for availability; we model
single-homed servers (same per-flow line rate, same oversubscription,
so dual-homing changes only availability, which no experiment measures).  Propagation delays are chosen so the base
RTTs land near the paper's 5.4us intra-rack / 8.5us cross-rack, and the
paper's ``T = 9us`` remains slightly above the maximum.
"""

from __future__ import annotations

from ..sim.units import parse_bandwidth, parse_time
from .base import LinkSpec, Topology


def testbed(
    servers_per_tor: int = 8,
    n_tors: int = 4,
    host_rate: str | float = "25Gbps",
    uplink_rate: str | float = "100Gbps",
    host_delay: str | float = "1.2us",
    fabric_delay: str | float = "0.65us",
) -> Topology:
    """Build the testbed PoD; defaults give the paper's 32-server shape."""
    if servers_per_tor < 1 or n_tors < 1:
        raise ValueError("need at least one server and one ToR")
    n_hosts = servers_per_tor * n_tors
    hrate = parse_bandwidth(host_rate)
    urate = parse_bandwidth(uplink_rate)
    hdelay = parse_time(host_delay)
    fdelay = parse_time(fabric_delay)
    tors = [n_hosts + i for i in range(n_tors)]
    agg = n_hosts + n_tors
    links = []
    for host in range(n_hosts):
        links.append(LinkSpec(host, tors[host // servers_per_tor], hrate, hdelay))
    for tor in tors:
        links.append(LinkSpec(tor, agg, urate, fdelay))
    return Topology(
        name=f"testbed{n_hosts}", n_hosts=n_hosts, n_switches=n_tors + 1,
        links=links, switch_tiers={"tor": tors, "agg": [agg]},
    )
