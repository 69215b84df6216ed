"""Array-native fluid engine vs the scalar reference: same grid, 10x.

Three acceptance bars for the vectorized fluid data plane
(:class:`repro.fluid.FluidEngine`, struct-of-arrays + numpy step loop)
against the loop-per-flow reference implementation it replaced
(:class:`repro.fluid.ScalarFluidEngine`, selected per spec with
``config["fluid_engine"] = "scalar"``):

* **Speedup** — a Figure-11-style scenario on the ``large`` tier (k=16
  k-ary FatTree, 1024 hosts, FB_Hadoop background + incast, HPCC) must
  run at least 10x faster end-to-end on the array engine.  HPCC is the
  array engine's *worst case* — every CC fire gathers per-hop INT
  telemetry into Python objects — so the bar holds a fortiori for the
  mark- and delay-based schemes.  Both engines step the same RTT
  boundaries over the same seeded population; the honest throughput
  unit is flow-steps/second (one flow advanced across one RTT step),
  which is what the vectorized kernels amortize.  Shorter runs dilute
  the margin: per-spec setup (topology + routing over one BFS table
  per ToR switch) is identical for both engines, and steady-state concurrency — the
  vector length — takes time to fill, so the untrimmed scenario is the
  fair measurement.
* **Scale** — the same 1024-host scenario must complete under a hard
  wall budget.  This is the capability the speedup buys: a fabric 64x
  the bench tier's host count, intractable flow-level before.
* **Routing memory** — routing the same population through
  ``FluidEngine.add_flows`` holds at most one BFS distance table per
  attachment (ToR) switch, 128 on k=16, never one per destination host
  (1023), and what ``repro/fluid/state.py`` allocates while routing
  (tables, alive-neighbour lists, paths) stays under
  ``ROUTING_BUDGET_MB`` as traced by ``tracemalloc``.  Measured with
  CPython 3.11 on 64-bit Linux: 4.6 MB, of which the tables are 1.4 MB;
  per-destination tables took 41.0 MB, 36 MB of it tables.
* **Working set** — stepping the same population, the kernels sweep
  only what live flows need.  Two deterministic counts, not timings:
  the hop matrix is 6 columns wide (the longest k=16 FatTree path,
  host-tor-agg-core-agg-tor-host; no fixed padding), and the row block
  averages at most ``ROWS_PER_LIVE_FLOW`` rows per live flow over the
  run's steps, because dead rows are compacted once they reach a
  quarter of the block.  Measured: 1.17 (8,131 steps, 620 live flows
  per step); the previous half-dead compaction gave 1.51.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_fluid_engine.py
"""

from __future__ import annotations

import time
import tracemalloc

from conftest import run_once
from repro.experiments import figure11
from repro.fluid import state as fluid_state
from repro.fluid.programs import _make_engine
from repro.runner import CcChoice, SweepRunner
from repro.runner.execute import build_topology, workload_cdf
from repro.runner.harness import generate_load_flows

SCHEMES = (CcChoice("hpcc", label="HPCC"),)
CASES = ("30%+incast",)

WALL_BUDGET_S = 60.0
MIN_HOSTS = 1024
ROUTING_BUDGET_MB = 6.0
K16_HOP_WIDTH = 6
ROWS_PER_LIVE_FLOW = 1.25


def _specs() -> list:
    return [
        s.replaced(backend="fluid")
        for s in figure11.scenarios(scale="large", cases=CASES, schemes=SCHEMES)
    ]


def _flow_steps(records) -> int:
    return sum(r.extras["fluid_flow_steps"] for r in records)


def run_comparison() -> dict:
    specs = _specs()
    scalar_specs = [
        s.replaced(config={**s.config, "fluid_engine": "scalar"})
        for s in specs
    ]

    started = time.perf_counter()
    array_records = SweepRunner().run(specs)
    array_s = time.perf_counter() - started

    started = time.perf_counter()
    scalar_records = SweepRunner().run(scalar_specs)
    scalar_s = time.perf_counter() - started

    return {
        "n_specs": len(specs),
        "n_hosts": array_records[0].extras["n_hosts"],
        "array_s": array_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / array_s,
        "array_flow_steps": _flow_steps(array_records),
        "scalar_flow_steps": _flow_steps(scalar_records),
        "array_flow_steps_per_s": _flow_steps(array_records) / array_s,
        "scalar_flow_steps_per_s": _flow_steps(scalar_records) / scalar_s,
        "array_flows": [len(r.fct) for r in array_records],
        "scalar_flows": [len(r.fct) for r in scalar_records],
    }


def run_scale() -> dict:
    spec = _specs()[0]
    started = time.perf_counter()
    record = SweepRunner().run([spec])[0]
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "n_hosts": record.extras["n_hosts"],
        "n_flows": len(record.fct),
        "steps": record.events_processed,
        "flow_steps": record.extras["fluid_flow_steps"],
        "flow_steps_per_s": record.extras["fluid_flow_steps"] / wall,
    }


def _population(spec):
    """The spec's engine and seeded flow population, not yet admitted."""
    topology = build_topology(spec)
    engine, _ = _make_engine(topology, spec)
    workload = spec.workload
    flows, duration = generate_load_flows(
        topology, workload_cdf(workload),
        load=workload["load"], n_flows=workload["n_flows"],
        seed=spec.seed, wire_overhead=engine.wire_factor,
        incast=workload.get("incast"),
    )
    return topology, engine, flows, duration


def run_working_set() -> dict:
    spec = _specs()[0]
    _, engine, flows, duration = _population(spec)
    engine.add_flows(flows)
    totals = {"steps": 0, "rows": 0, "live": 0}
    advance = engine._advance

    def counted(dt):
        totals["steps"] += 1
        totals["rows"] += engine._n
        totals["live"] += engine._alive_n
        advance(dt)

    engine._advance = counted
    engine.run(deadline=duration * spec.workload.get("deadline_factor", 2.5))
    return {
        "steps": totals["steps"],
        "hop_width": engine._H,
        "mean_rows": totals["rows"] / totals["steps"],
        "mean_live": totals["live"] / totals["steps"],
        "rows_per_live": totals["rows"] / totals["live"],
    }


def run_routing_memory() -> dict:
    spec = _specs()[0]
    topology, engine, flows, _ = _population(spec)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        engine.add_flows(flows)
        wall = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    routing = snapshot.filter_traces(
        [tracemalloc.Filter(True, fluid_state.__file__)]
    )
    attachment = {
        peer
        for link in topology.links
        for node, peer in ((link.a, link.b), (link.b, link.a))
        if topology.is_host(node)
    }
    return {
        "n_hosts": topology.n_hosts,
        "n_flows": len(flows),
        "add_flows_s": wall,
        "tables": len(engine.graph._dist_to),
        "attachment_switches": len(attachment),
        "routing_mb": sum(t.size for t in routing.traces) / 1e6,
        "add_flows_peak_mb": peak / 1e6,
    }


def test_array_engine_at_least_10x_faster(benchmark):
    result = run_once(benchmark, run_comparison)
    assert result["n_hosts"] >= MIN_HOSTS
    assert result["speedup"] >= 10.0, (
        f"array engine only {result['speedup']:.1f}x faster "
        f"({result['scalar_s']:.2f}s scalar vs {result['array_s']:.2f}s array)"
    )
    # Same seeded population on both engines; the CC-fire cadence
    # difference (reference fires every mini-step) must not change who
    # finishes — only a handful of deadline stragglers may differ.
    for array_n, scalar_n in zip(result["array_flows"], result["scalar_flows"]):
        assert abs(array_n - scalar_n) <= 0.02 * max(array_n, scalar_n)


def test_k16_fattree_under_wall_budget(benchmark):
    result = run_once(benchmark, run_scale)
    assert result["n_hosts"] >= MIN_HOSTS
    assert result["wall_s"] < WALL_BUDGET_S, (
        f"k=16 FatTree took {result['wall_s']:.1f}s "
        f"(budget {WALL_BUDGET_S:.0f}s)"
    )


def test_k16_routing_tables_per_attachment_switch(benchmark):
    result = run_once(benchmark, run_routing_memory)
    assert result["n_hosts"] >= MIN_HOSTS
    assert result["tables"] <= result["attachment_switches"], (
        f"{result['tables']} routing tables for "
        f"{result['attachment_switches']} attachment switches"
    )
    assert result["routing_mb"] < ROUTING_BUDGET_MB, (
        f"routing {result['n_flows']} flows traced "
        f"{result['routing_mb']:.1f} MB (budget {ROUTING_BUDGET_MB:.0f} MB)"
    )


def test_k16_step_sweeps_live_working_set(benchmark):
    result = run_once(benchmark, run_working_set)
    assert result["hop_width"] == K16_HOP_WIDTH, (
        f"hop matrix {result['hop_width']} wide for "
        f"{K16_HOP_WIDTH}-hop paths"
    )
    assert result["rows_per_live"] <= ROWS_PER_LIVE_FLOW, (
        f"{result['mean_rows']:.0f} rows per step for "
        f"{result['mean_live']:.0f} live flows "
        f"(bound {ROWS_PER_LIVE_FLOW}x)"
    )


def main() -> None:
    speed = run_comparison()
    print(f"Figure-11-style scenario at large scale "
          f"({speed['n_hosts']} hosts, HPCC, 30%+incast):")
    print(f"  scalar reference: {speed['scalar_s']:8.2f}s "
          f"({speed['scalar_flow_steps_per_s']:,.0f} flow-steps/s)")
    print(f"  array engine:     {speed['array_s']:8.2f}s "
          f"({speed['array_flow_steps_per_s']:,.0f} flow-steps/s)")
    print(f"  speedup:          {speed['speedup']:8.1f}x "
          f"(budget {WALL_BUDGET_S:.0f}s, "
          f"{speed['array_flow_steps']:,} flow-steps)")
    mem = run_routing_memory()
    print(f"Routing {mem['n_flows']:,} flows over {mem['n_hosts']} hosts "
          f"(add_flows under tracemalloc, {mem['add_flows_s']:.2f}s):")
    print(f"  distance tables:  {mem['tables']:8d} "
          f"({mem['attachment_switches']} attachment switches)")
    print(f"  routing memory:   {mem['routing_mb']:8.2f} MB "
          f"(budget {ROUTING_BUDGET_MB:.0f} MB; add_flows peak "
          f"{mem['add_flows_peak_mb']:.2f} MB)")
    work = run_working_set()
    print(f"Working set over {work['steps']:,} steps:")
    print(f"  hop width:        {work['hop_width']:8d} "
          f"(longest path {K16_HOP_WIDTH})")
    print(f"  rows per step:    {work['mean_rows']:8.1f} "
          f"for {work['mean_live']:.1f} live flows "
          f"({work['rows_per_live']:.2f}x, bound {ROWS_PER_LIVE_FLOW}x)")


if __name__ == "__main__":
    main()
