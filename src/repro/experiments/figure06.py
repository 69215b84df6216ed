"""Figure 6: txRate versus rxRate feedback (Section 3.4).

A 2-to-1 congestion scenario on a single switch.  HPCC (txRate) converges
to a near-empty queue without oscillation; HPCC-rxRate double-counts
congestion (rxRate and qlen overlap) and oscillates before converging.

The driver reports the bottleneck queue time series for both variants plus
two summary numbers used by the benchmark: the post-transient mean queue
and the oscillation amplitude (std-dev of the queue after the initial
drain).

Reproduction note: under Algorithm 1's
published safeguards — the min(qlen) filter, the parameterless EWMA and
the per-RTT reference window — the rxRate variant *also* converges in our
simulator; the oscillation the paper shows is damped by exactly these
mechanisms.  The experiment therefore asserts that both converge and
records the transient differences (rxRate over-cuts because queue length
and arrival rate double-count the same congestion).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner
from ..sim.units import MS, US

BENCH = {
    "host_rate": "100Gbps",
    "link_delay": "1us",
    "base_rtt": 9 * US,
    "flow_size": 25_000_000,
    "duration": 2 * MS,
    "sample_interval": 1 * US,
}

VARIANTS = (("HPCC (txRate)", "hpcc"), ("HPCC-rxRate", "hpcc-rxrate"))


@dataclass
class Figure6Result:
    series: dict[str, tuple[list[float], list[int]]]   # label -> (t, qlen)
    steady_mean: dict[str, float]                      # bytes
    steady_std: dict[str, float]                       # bytes
    peak: dict[str, int]


def _steady_stats(times: list[float], qlens: list[int], t_from: float):
    steady = [q for t, q in zip(times, qlens) if t >= t_from]
    if not steady:
        return 0.0, 0.0
    mean = sum(steady) / len(steady)
    var = sum((q - mean) ** 2 for q in steady) / len(steady)
    return mean, var ** 0.5


def scenarios(scale: str = "bench", seed: int = 1,
              params: dict | None = None) -> list[ScenarioSpec]:
    """The figure's grid: the two feedback variants on a 2-to-1 star."""
    p = dict(BENCH)
    if params:
        p.update(params)
    base = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={
            "n_hosts": 3,
            "host_rate": p["host_rate"],
            "link_delay": p["link_delay"],
        },
        workload={
            "flows": [
                [0, 2, p["flow_size"], 0.0, "bg"],
                [1, 2, p["flow_size"], 0.0, "bg"],
            ],
            "deadline": p["duration"],
        },
        config={"base_rtt": p["base_rtt"]},
        measure={
            "sample_interval": p["sample_interval"],
            "sample_ports": [["bneck", "to_host", 2]],
        },
        seed=seed,
        scale=scale,
        meta={"figure": "fig6", "duration": p["duration"]},
    )
    return ScenarioGrid(base, [
        {"cc": CcChoice(cc_name, label=label), "label": label}
        for label, cc_name in VARIANTS
    ]).expand()


def run_figure06(scale: str = "bench", params: dict | None = None,
                 seed: int = 1,
                 runner: SweepRunner | None = None) -> Figure6Result:
    specs = scenarios(scale, seed=seed, params=params)
    records = (runner or SweepRunner()).run(specs)
    series: dict[str, tuple[list[float], list[int]]] = {}
    steady_mean: dict[str, float] = {}
    steady_std: dict[str, float] = {}
    peak: dict[str, int] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        t, q = record.queue_series("bneck")
        series[label] = (t, q)
        # Steady window: after 25% of the run (past the line-rate transient).
        mean, std = _steady_stats(t, q, spec.meta["duration"] * 0.25)
        steady_mean[label] = mean
        steady_std[label] = std
        peak[label] = max(q) if q else 0
    return Figure6Result(series, steady_mean, steady_std, peak)


def render(specs, records):
    """Report hook: bottleneck-queue trajectory for both feedback variants."""
    from ..report.figures import FigureRender, Panel, Series, queue_series

    series = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        t, q = queue_series(record, "bneck")
        series.append(Series(
            name=label,
            x=[tt / US for tt in t],
            y=[v / 1000 for v in q],
        ))
        mean, std = _steady_stats(t, q, spec.meta["duration"] * 0.25)
        stats[f"steady_mean_kb/{label}"] = mean / 1000
        stats[f"steady_std_kb/{label}"] = std / 1000
        stats[f"peak_kb/{label}"] = (max(q) if q else 0) / 1000
    return FigureRender(
        figure="fig6",
        title="Figure 6: txRate vs rxRate feedback",
        panels=[Panel(
            key="queue",
            title="Queue at the 2-to-1 bottleneck",
            series=series,
            x_label="time (us)", y_label="queue (KB)",
        )],
        stats=stats,
    )


def main(scale: str = "bench") -> None:
    from ..metrics.reporter import ascii_series, format_table

    result = run_figure06(scale)
    rows = [
        (label,
         f"{result.steady_mean[label] / 1000:.1f}",
         f"{result.steady_std[label] / 1000:.1f}",
         f"{result.peak[label] / 1000:.1f}")
        for label in result.series
    ]
    print(format_table(
        ["variant", "steady mean (KB)", "steady std (KB)", "peak (KB)"],
        rows, title="Figure 6: queue at the 2-to-1 bottleneck",
    ))
    for label, (t, q) in result.series.items():
        print()
        print(ascii_series(t, [v / 1000 for v in q], label=f"{label} queue (KB)", t_unit=US))


if __name__ == "__main__":
    main()
