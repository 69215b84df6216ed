#!/usr/bin/env python3
"""Run benchmark workloads once each and emit machine-readable timings.

The pytest-benchmark files under ``benchmarks/`` regenerate paper
figures and assert their *shape*; this aggregator runs the same
underlying experiment drivers and records only what a perf trajectory
needs — name, wall time, parameters — as JSON, so successive PRs can
diff ``BENCH_*.json`` files instead of eyeballing pytest output.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --json BENCH_all.json
    PYTHONPATH=src python benchmarks/run_all.py --fastest 2   # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --only fig02,fluid_vs_packet
    PYTHONPATH=src python benchmarks/run_all.py --list

The registry pins the substrate-throughput microbench first and orders
the experiments cheapest-first after it, so ``--fastest N`` doubles as a
cheap import/API-rot + engine-throughput canary for CI.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

#: Version of the JSON payload this script emits, and the only one the
#: report's BENCH trajectory reads: ``{schema, python, platform,
#: results[], notes?}``.  Bump when the payload shape changes and
#: migrate the checked-in snapshots in the same change (the PR 3/4
#: snapshots predated the stamp and were stamped 2 once; the shape was
#: already this one).
#:
#: The checked-in trajectory starts at ``BENCH_pr3.json``: PR 0-2
#: predate the snapshot convention, so ``BENCH_pr1.json`` and
#: ``BENCH_pr2.json`` intentionally do not exist (README "Benchmark
#: trajectory").
BENCH_SCHEMA = 2


def _engine_events():
    """Raw event-loop throughput (the substrate number every packet-level
    experiment divides by).  Mirrors bench_engine.py's chain workload."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1.0, chain, remaining - 1)

    chain(200_000)
    sim.run()
    assert sim.events_processed == 200_000
    return sim.events_processed


def _telemetry_overhead():
    """Telemetry dispatch cost on both engines (the <2% bar — <3% with
    the decision tap — is asserted by bench_telemetry_overhead.py;
    this records the ratios)."""
    from bench_telemetry_overhead import run_all
    return run_all()


def _sweep_resilience():
    """Watchdog + journal cost on a clean fluid sweep (the <3% bar
    itself is asserted by bench_sweep_resilience.py; this records it)."""
    from bench_sweep_resilience import run_resilience_overhead
    return run_resilience_overhead()


def _appendix_a1():
    from repro.experiments.appendix_a import run_a1
    return run_a1(n_sources=50, rho=0.95)


def _appendix_a2():
    from repro.experiments.appendix_a import run_a2
    return run_a2(n_trials=50)


def _dynamics_failover():
    """Dynamics smoke: the FatTree failure sweep and the dual-trunk
    failover, both on the fluid backend (the packet-vs-fluid comparison
    with the >=10x assertion lives in bench_dynamics_failover.py)."""
    from repro.experiments.failover import run_failover
    from repro.experiments.linkfail import run_linkfail
    from repro.runner import CcChoice

    schemes = (CcChoice("hpcc", label="HPCC"),)
    return (
        run_linkfail(schemes=schemes, backend="fluid"),
        run_failover(schemes=schemes, backend="fluid"),
    )


def _fig06():
    from repro.experiments.figure06 import run_figure06
    return run_figure06(scale="bench")


def _fig13():
    from repro.experiments.figure13 import run_figure13
    return run_figure13(scale="bench")


def _fig11_fluid():
    from repro.experiments import figure11
    from repro.runner import SweepRunner
    specs = [
        spec.replaced(backend="fluid")
        for spec in figure11.scenarios(scale="bench")
    ]
    return SweepRunner().run(specs)


def _fig14():
    from repro.experiments.figure14 import run_figure14
    return run_figure14(scale="bench")


def _fig02():
    from repro.experiments.figure02 import run_figure02
    return run_figure02(scale="bench")


def _fig03():
    from repro.experiments.figure03 import run_figure03
    return run_figure03(scale="bench")


def _fig01():
    from repro.experiments.figure01 import run_figure01
    return run_figure01(scale="bench")


def _fig09():
    from repro.experiments.figure09 import run_incast, run_long_short
    return run_long_short(), run_incast()


def _fig10():
    from repro.experiments.figure10 import run_figure10
    return run_figure10(scale="bench")


def _fig12():
    from repro.experiments.figure12 import run_figure12
    return run_figure12(scale="bench")


def _fig11():
    from repro.experiments.figure11 import run_figure11
    return run_figure11(scale="bench")


def _failover():
    from repro.experiments.failover import run_failover
    return run_failover()


def _fluid_vs_packet():
    from bench_fluid_vs_packet import run_comparison
    return run_comparison()


def _fluid_engine():
    """Array vs scalar fluid engine on the k=16 FatTree (>=10x bar
    lives in bench_fluid_engine.py; this records the raw timings)."""
    from bench_fluid_engine import run_comparison
    return run_comparison()


def _fig11_large():
    """The capability unlocked by the array engine: the full large-tier
    (1024-host) Figure-11 scenario, one scheme, fluid backend."""
    from bench_fluid_engine import run_scale
    return run_scale()


# name -> (workload, parameter note).  Ordered cheapest-first — except
# engine_events, pinned to the front so CI's `--fastest N` smoke always
# tracks raw substrate throughput alongside the cheapest experiment.
REGISTRY: dict[str, tuple] = {
    "engine_events": (_engine_events, {"events": 200_000}),
    "appendix_a1": (_appendix_a1, {"n_sources": 50, "rho": 0.95}),
    "dynamics_failover": (_dynamics_failover,
                          {"backend": "fluid", "scenarios": ["linkfail",
                                                             "failover"]}),
    "telemetry_overhead": (_telemetry_overhead,
                           {"engines": ["packet", "fluid"],
                            "limit_pct": 2, "decisions_limit_pct": 3}),
    "appendix_a2": (_appendix_a2, {"n_trials": 50}),
    "sweep_resilience": (_sweep_resilience,
                         {"backend": "fluid", "limit_pct": 3}),
    "fig06": (_fig06, {"scale": "bench"}),
    "fig13": (_fig13, {"scale": "bench"}),
    "fig11_fluid": (_fig11_fluid, {"scale": "bench", "backend": "fluid"}),
    "fig14": (_fig14, {"scale": "bench"}),
    "fig02": (_fig02, {"scale": "bench"}),
    "fig03": (_fig03, {"scale": "bench"}),
    "fig01": (_fig01, {"scale": "bench"}),
    "fig09": (_fig09, {"parts": ["long_short", "incast"]}),
    "fig10": (_fig10, {"scale": "bench"}),
    "fig12": (_fig12, {"scale": "bench"}),
    "fig11": (_fig11, {"scale": "bench"}),
    "failover": (_failover, {}),
    "fig11_large": (_fig11_large,
                    {"scale": "large", "backend": "fluid", "k": 16,
                     "hosts": 1024, "schemes": ["hpcc"]}),
    "fluid_vs_packet": (_fluid_vs_packet, {"grid": "fig11-style"}),
    "fluid_engine": (_fluid_engine,
                     {"scale": "large", "k": 16, "hosts": 1024,
                      "engines": ["array", "scalar"]}),
}


def run_benches(names: list[str]) -> list[dict]:
    results = []
    for name in names:
        fn, params = REGISTRY[name]
        print(f"running {name} ...", file=sys.stderr, flush=True)
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started
        print(f"  {name}: {wall:.2f}s", file=sys.stderr, flush=True)
        results.append({"name": name, "wall_time_s": wall, "params": params})
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmark workloads once each; emit JSON timings."
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write results as JSON (default: print to stdout)",
    )
    parser.add_argument(
        "--only", default=None, metavar="N1,N2,...",
        help="comma-separated benchmark names to run",
    )
    parser.add_argument(
        "--fastest", type=int, default=None, metavar="N",
        help="run only the N cheapest benchmarks (registry order)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list benchmark names and exit"
    )
    parser.add_argument(
        "--note", action="append", default=[], metavar="KEY=VALUE",
        help="annotate the JSON payload (repeatable); used to record "
             "before/after numbers alongside a PR's snapshot",
    )
    args = parser.parse_args(argv)

    notes = {}
    for item in args.note:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"bad --note {item!r}; expected KEY=VALUE", file=sys.stderr)
            return 1
        notes[key] = value

    if args.list:
        for name in REGISTRY:
            print(name)
        return 0
    names = list(REGISTRY)
    if args.only is not None:
        names = [part.strip() for part in args.only.split(",") if part.strip()]
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            known = ", ".join(REGISTRY)
            print(f"unknown benchmarks {unknown}; known: {known}",
                  file=sys.stderr)
            return 1
    if args.fastest is not None:
        names = names[: max(1, args.fastest)]

    payload = {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": run_benches(names),
    }
    if notes:
        payload["notes"] = notes
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(payload['results'])} results to {args.json}",
              file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
