"""The benchmark's workloads: slices of the Figure 11 grid, one backend each.

Every workload is built by ``repro.experiments.figure11.scenarios``, so
it runs the same specs the report scores; the workload seed is the
benchmark's ``--seed``.  Why each one was chosen is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

#: Workload name -> (scale, cases, scheme labels, overrides, backend,
#: extra spec updates).
WORKLOADS = {
    "fig11_packet": (
        "bench", ("30%+incast", "50%"), ("DCQCN", "HPCC"), None, "packet", {},
    ),
    "fig11_fluid_k16": (
        "large", ("50%",), ("DCQCN", "HPCC"), None, "fluid", {},
    ),
    "fig11_hybrid": (
        "bench", ("30%+incast", "50%"), ("HPCC",), {"n_flows": 3000},
        "hybrid", {"workload.foreground": {"kind": "frac", "x": 0.1}},
    ),
}


def build_specs(workload: str, seed: int) -> list:
    """The workload's cells, in execution order."""
    from repro.experiments import figure11

    scale, cases, labels, overrides, backend, updates = WORKLOADS[workload]
    schemes = tuple(s for s in figure11.SCHEMES if s.label in labels)
    specs = figure11.scenarios(scale, seed=seed, cases=cases,
                               schemes=schemes, overrides=overrides)
    return [spec.replaced(backend=backend, **updates) for spec in specs]
