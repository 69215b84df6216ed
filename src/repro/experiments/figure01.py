"""Figure 1: the impact of PFC pauses (Section 2.1).

The paper's Figure 1 is *production telemetry*: (a) how many hops PFC
pause trees propagate, (b) how much host bandwidth they suppress.  Our
substitution, since no production fabric is at hand: drive a PoD with
DCQCN under repeated large incasts — the regime the paper identifies as
the pause trigger — trace every pause interval, chain overlapping
intervals into cause-effect trees (``repro.metrics.pfcstats``), and
report the same two distributions.

Expected shape: most events stay at depth 1 (host links paused by a ToR),
a tail reaches depth 3 (ToR -> Agg -> ToR -> hosts, i.e. the whole PoD),
and the worst events suppress a double-digit percentage of host capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.pfcstats import PauseTreeStats, analyze_pause_trees, depth_ccdf
from ..runner import ScenarioSpec, SweepRunner, build_topology, CcChoice
from ..sim.units import US
from .common import require_scale

SCALES = {
    "bench": {
        "topology": dict(servers_per_tor=4, n_tors=4,
                         host_rate="10Gbps", uplink_rate="40Gbps"),
        "size_scale": 0.1,
        "n_flows": 500,
        "base_rtt": 9 * US,
        "incast_fan_in": 12,
        "incast_size": 300_000,
        "buffer_bytes": 800_000,
        "load": 0.30,
    },
    "full": {
        "topology": dict(),
        "size_scale": 1.0,
        "n_flows": 10000,
        "base_rtt": 9 * US,
        "incast_fan_in": 20,
        "incast_size": 500_000,
        "buffer_bytes": 16_000_000,
        "load": 0.30,
    },
}


@dataclass
class Figure1Result:
    trees: list[PauseTreeStats]
    depth_ccdf: dict[int, float]                  # P(depth >= d)
    suppressed: list[float]                       # per-tree capacity fraction
    pause_events: int


def scenarios(scale: str = "bench", seed: int = 3,
              overrides: dict | None = None) -> list[ScenarioSpec]:
    """The figure's grid: one DCQCN run with incast, pause tracing on."""
    p = dict(SCALES[require_scale(scale)])
    if overrides:
        p.update(overrides)
    return [ScenarioSpec(
        program="load",
        topology="testbed",
        topology_params=dict(p["topology"]),
        cc=CcChoice("dcqcn", label="DCQCN"),
        workload={
            "cdf": "fbhadoop",
            "size_scale": p["size_scale"],
            "load": p["load"],
            "n_flows": p["n_flows"],
            "incast": {
                "fan_in": p["incast_fan_in"],
                "flow_size": p["incast_size"],
                "load": 0.04,
            },
        },
        config={
            "base_rtt": p["base_rtt"],
            "buffer_bytes": p["buffer_bytes"],
        },
        measure={"pause_intervals": True},
        seed=seed,
        scale=scale,
        label="fig1/DCQCN",
        meta={"figure": "fig1"},
    )]


def run_figure01(scale: str = "bench", seed: int = 3,
                 overrides: dict | None = None,
                 runner: SweepRunner | None = None) -> Figure1Result:
    specs = scenarios(scale, seed=seed, overrides=overrides)
    [record] = (runner or SweepRunner()).run(specs)
    topo = build_topology(specs[0])
    trees = analyze_pause_trees(
        record.pause_tracker(),
        origin_of=record.origin_map(),
        host_ids=set(topo.hosts),
        host_rate=topo.min_host_rate(),
    )
    suppressed = sorted((t.suppressed_fraction for t in trees), reverse=True)
    return Figure1Result(
        trees=trees,
        depth_ccdf=depth_ccdf(trees),
        suppressed=suppressed,
        pause_events=record.extras["pause_count"],
    )


def render(specs, records):
    """Report hook: pause-depth CCDF + suppressed-bandwidth CDF."""
    from ..report.figures import FigureRender, Panel, Series, cdf_series

    [spec] = specs
    [record] = records
    topo = build_topology(spec)
    trees = analyze_pause_trees(
        record.pause_tracker(),
        origin_of=record.origin_map(),
        host_ids=set(topo.hosts),
        host_rate=topo.min_host_rate(),
    )
    ccdf = depth_ccdf(trees)
    suppressed = sorted(
        (t.suppressed_fraction * 100 for t in trees), reverse=True
    )
    depths = sorted(ccdf)
    stats = {
        "pause_events": float(record.extras.get("pause_count", 0)),
        "pause_trees": float(len(trees)),
        "max_depth": float(max(depths)) if depths else 0.0,
        "depth2_frac": ccdf.get(2, 0.0),
        "worst_suppressed_pct": suppressed[0] if suppressed else 0.0,
    }
    return FigureRender(
        figure="fig1",
        title="Figure 1: the impact of PFC pauses",
        panels=[
            Panel(
                key="depth-ccdf",
                title="1a: pause propagation depth CCDF",
                series=[Series(
                    name="DCQCN incast",
                    x=[float(d) for d in depths],
                    y=[ccdf[d] for d in depths],
                )],
                x_label="depth >=", y_label="fraction of events",
            ),
            Panel(
                key="suppressed",
                title="1b: suppressed host capacity per pause event",
                series=[cdf_series("DCQCN incast", suppressed)],
                x_label="suppressed capacity (%)", y_label="CDF",
            ),
        ],
        stats=stats,
    )


def main(scale: str = "bench") -> None:
    from ..metrics.reporter import format_table

    result = run_figure01(scale)
    print(f"pause intervals recorded: {result.pause_events}; "
          f"pause trees: {len(result.trees)}")
    rows = [
        (d, f"{frac * 100:.1f}%") for d, frac in sorted(result.depth_ccdf.items())
    ]
    print(format_table(
        ["depth >=", "fraction of events"],
        rows, title="Figure 1a: pause propagation depth CCDF",
    ))
    if result.suppressed:
        top = result.suppressed[: min(5, len(result.suppressed))]
        print(
            "Figure 1b: worst suppressed host capacity per event: "
            + ", ".join(f"{s * 100:.1f}%" for s in top)
        )


if __name__ == "__main__":
    main()
