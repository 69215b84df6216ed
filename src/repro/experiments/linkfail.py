"""Extension experiment: FatTree-scale link-failure sweep.

The paper's testbed results hinge on quick re-convergence after capacity
changes; this sweep measures how each CC scheme tolerates a *fabric*
failure — one inter-tier FatTree link cut mid-run and restored later —
under realistic background load, varying *which* link fails as a grid
axis (a ToR-Agg link in pod 0, an Agg-Core uplink, ...).

Every scenario is the Figure-11 load shape (fbhadoop CDF + incast
pulses) with a fail/restore timeline attached via the hash-distinct
``dynamics`` spec field.  The grid defaults to the fluid backend: a
packet-level FatTree failure sweep takes minutes where fluid takes
seconds (``benchmarks/bench_dynamics_failover.py`` pins the >=10x
margin), which is what makes "sweep every possible failure" a usable
experiment rather than an overnight batch.

Reported per (scheme, failed link): p50/p99 slowdown, flows finished,
reroute counts from the event accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dynamics import FailLink, RestoreLink, Timeline, dynamics_axis
from ..runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner, cc_axis
from ..sim.units import US
from .common import require_scale

__all__ = ["BENCH", "SCHEMES", "LinkFailResult", "failed_links",
           "scenarios", "run_linkfail", "main"]

SCHEMES = (
    CcChoice("hpcc", label="HPCC"),
    CcChoice("dcqcn", label="DCQCN"),
    CcChoice("dctcp", label="DCTCP"),
)

# The bench FatTree (2 pods x 2 ToRs x 2 Aggs, 2 cores, 4 hosts/ToR):
# hosts 0..15, ToRs 16..19, Aggs 20..23, Cores 24..25.
SCALES = {
    "bench": {
        "fattree": {
            "n_pods": 2, "tors_per_pod": 2, "aggs_per_pod": 2, "n_core": 2,
            "hosts_per_tor": 4, "host_rate": "10Gbps", "fabric_rate": "40Gbps",
        },
        "size_scale": 0.1,
        "n_flows": 400,
        "base_rtt": 13 * US,
        "load": 0.5,
        "buffer_bytes": 1_000_000,
    },
    "full": {
        "fattree": {},                   # the paper's 320-host fabric
        "size_scale": 1.0,
        "n_flows": 20000,
        "base_rtt": 13 * US,
        "load": 0.5,
        "buffer_bytes": 32_000_000,
    },
}


def failed_links(topo) -> list[tuple[str, int, int]]:
    """The swept fabric cuts: ``(label, a, b)`` per inter-tier link.

    One ToR-Agg link and one Agg-Core link per pod boundary — the two
    failure classes with distinct blast radii (intra-pod detour vs
    core re-spread).  ``topo`` is the built FatTree :class:`Topology`.
    """
    tors = topo.switch_tiers["tor"]
    aggs = topo.switch_tiers["agg"]
    cores = topo.switch_tiers["core"]
    adj = topo.adjacency()

    def first_peer(node, tier):
        return next(peer for peer, _ in adj[node] if peer in tier)

    tor, agg = tors[0], first_peer(tors[0], set(aggs))
    agg2 = aggs[0]
    core = first_peer(agg2, set(cores))
    return [
        (f"tor{tor}-agg{agg}", tor, agg),
        (f"agg{agg2}-core{core}", agg2, core),
    ]


def _timelines(p: dict, cuts: list[tuple[str, int, int]]):
    fail_at = p["fail_at"]
    restore_at = p["restore_at"]
    timelines = []
    labels = []
    for label, a, b in cuts:
        events = [FailLink(at=fail_at, a=a, b=b)]
        if restore_at is not None:
            events.append(RestoreLink(at=restore_at, a=a, b=b))
        timelines.append(
            Timeline(events, detection_delay=p["detection_delay"])
        )
        labels.append(label)
    return timelines, labels


BENCH = {
    "fail_at_frac": 0.3,        # of the workload duration
    "restore_at_frac": 0.7,
    "detection_delay": 25 * US,
}


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    schemes: tuple[CcChoice, ...] = SCHEMES,
    params: dict | None = None,
    backend: str = "fluid",
    cuts: list[tuple[str, int, int]] | None = None,
) -> list[ScenarioSpec]:
    """The grid: CC scheme x failed fabric link, fluid by default."""
    s = dict(SCALES[require_scale(scale)])
    p = dict(BENCH)
    if params:
        p.update(params)
    # Event times scale with the workload: the duration the load program
    # derives from (n_flows, load) is recomputed here the same way.
    from ..runner.execute import workload_cdf
    from ..topology.fattree import FatTreeSpec, fattree

    topo_params = s["fattree"]
    topo = fattree(FatTreeSpec(**topo_params)) if topo_params else fattree()
    workload = {
        "cdf": "fbhadoop",
        "size_scale": s["size_scale"],
        "load": s["load"],
        "n_flows": s["n_flows"],
        "incast": None,
    }
    cdf = workload_cdf(workload)
    total_capacity = sum(topo.host_rate(h) for h in topo.hosts)
    # Event placement uses the INT-enabled wire factor; schemes without
    # INT run a few percent shorter, which only shifts where inside the
    # run the cut lands — not what is measured.
    from ..sim.packet import data_wire_factor
    wire = data_wire_factor(1000, True)
    duration = s["n_flows"] / (s["load"] * total_capacity / (cdf.mean() * wire))
    p.setdefault("fail_at", p["fail_at_frac"] * duration)
    p.setdefault(
        "restore_at",
        None if p["restore_at_frac"] is None
        else p["restore_at_frac"] * duration,
    )
    timelines, labels = _timelines(p, cuts or failed_links(topo))
    base = ScenarioSpec(
        program="load",
        topology="fattree",
        topology_params=topo_params,
        workload=workload,
        config={
            "base_rtt": s["base_rtt"],
            "buffer_bytes": s["buffer_bytes"],
        },
        seed=seed,
        scale=scale,
        backend=backend,
        meta={"figure": "linkfail", "duration": duration},
    )
    grid = ScenarioGrid(
        base,
        cc_axis(schemes),
        dynamics_axis(timelines, lambda i, _t: labels[i]),
    )
    specs = []
    for spec in grid.expand():
        # Compose the two axis labels (cc_axis set label, dynamics_axis
        # overwrote it — grid updates merge dict-last, so re-derive).
        specs.append(spec.replaced(
            label=f"{spec.cc.display}/{spec.label}",
            meta={**spec.meta, "cut": spec.label},
        ))
    return specs


@dataclass
class LinkFailResult:
    slowdown_p50: dict[str, float]         # per "scheme/cut" label
    slowdown_p99: dict[str, float]
    flows_finished: dict[str, int]
    reroutes: dict[str, int]
    completed: dict[str, bool]


def run_linkfail(
    scale: str = "bench",
    seed: int = 1,
    schemes: tuple[CcChoice, ...] = SCHEMES,
    backend: str = "fluid",
    runner: SweepRunner | None = None,
    params: dict | None = None,
) -> LinkFailResult:
    from ..metrics.fct import percentile, slowdowns

    specs = scenarios(scale=scale, seed=seed, schemes=schemes,
                      backend=backend, params=params)
    records = (runner or SweepRunner()).run(specs)
    p50: dict[str, float] = {}
    p99: dict[str, float] = {}
    finished: dict[str, int] = {}
    reroutes: dict[str, int] = {}
    completed: dict[str, bool] = {}
    for spec, record in zip(specs, records):
        slows = slowdowns(record.fct_records())
        p50[spec.label] = percentile(slows, 50) if slows else float("nan")
        p99[spec.label] = percentile(slows, 99) if slows else float("nan")
        finished[spec.label] = len(record.fct)
        reroutes[spec.label] = sum(
            e.get("reroutes", 0) for e in record.link_events()
        )
        completed[spec.label] = record.completed
    return LinkFailResult(p50, p99, finished, reroutes, completed)


def render(specs, records):
    """Report hook: slowdown bars per (scheme, failed link) cell."""
    from ..metrics.fct import percentile, slowdowns
    from ..report.figures import FigureRender, Panel, Series

    labels = []
    p50s = []
    p99s = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        slows = slowdowns(record.fct_records())
        p50 = percentile(slows, 50) if slows else float("nan")
        p99 = percentile(slows, 99) if slows else float("nan")
        labels.append(label)
        p50s.append(p50)
        p99s.append(p99)
        stats[f"p50/{label}"] = p50
        stats[f"p99/{label}"] = p99
        stats[f"reroutes/{label}"] = float(sum(
            e.get("reroutes", 0) for e in record.link_events()
        ))
    return FigureRender(
        figure="linkfail",
        title="Extension: FatTree link-failure sweep",
        panels=[Panel(
            key="slowdowns",
            title="FCT slowdown per scheme x failed fabric link",
            series=[
                Series(name="p50", kind="bar",
                       x=[float(i) for i in range(len(labels))],
                       y=p50s, labels=labels),
                Series(name="p99", kind="bar",
                       x=[float(i) for i in range(len(labels))],
                       y=p99s, labels=labels),
            ],
            y_label="FCT slowdown",
        )],
        stats=stats,
    )


def main(scale: str = "bench") -> None:
    from ..metrics.reporter import format_table

    result = run_linkfail(scale=scale)
    rows = [
        (label,
         f"{result.slowdown_p50[label]:.2f}",
         f"{result.slowdown_p99[label]:.2f}",
         result.flows_finished[label],
         result.reroutes[label])
        for label in result.slowdown_p50
    ]
    print(format_table(
        ["scheme/cut", "p50 slowdown", "p99 slowdown", "flows", "reroutes"],
        rows,
        title="FatTree link-failure sweep (fluid backend, cut at 30% / "
              "restore at 70% of the workload)",
    ))


if __name__ == "__main__":
    main()
