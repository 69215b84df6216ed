#!/usr/bin/env python3
"""Operations playbook: failure injection and result export.

The workflow a network operator would run against the simulator: start a
loaded fabric, cut a trunk mid-run, watch the CC re-converge, and leave
with the machine-readable artifacts every sweep writes (the full run
record as JSON and a one-row summary CSV) for offline analysis.

Run:  python examples/operations_playbook.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.dynamics import FailLink, Timeline
from repro.metrics.reporter import format_table
from repro.runner import ScenarioSpec, execute_spec, write_records_csv
from repro.sim.units import MS, US
from repro.topology import dual_trunk


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="hpcc-ops-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    # A 2-rack fabric with two parallel 50G trunks, HPCC everywhere:
    # four rack-to-rack transfers, and one trunk dies at 2ms.
    sw_a, sw_b = dual_trunk(n_pairs=4).switch_tiers["tor"]
    spec = ScenarioSpec(
        program="flows",
        topology="dual_trunk",
        topology_params={"n_pairs": 4},
        workload={
            "flows": [[i, 4 + i, 10_000_000] for i in range(4)],
            "deadline": 20 * MS,
        },
        config={"base_rtt": 9 * US, "goodput_bin": 100 * US},
        measure={"sample_interval": 10 * US},
        dynamics=Timeline([FailLink(at=2 * MS, a=sw_a, b=sw_b)]),
        label="trunk-failover",
    )
    record = execute_spec(spec)

    rows = [
        (r.spec.flow_id, f"{r.fct / MS:.2f}", f"{r.slowdown:.2f}")
        for r in sorted(record.fct_records(), key=lambda r: r.spec.flow_id)
    ]
    print(format_table(
        ["flow", "FCT (ms)", "slowdown"],
        rows, title="Transfers across a mid-run trunk failure (HPCC)",
    ))
    lost = sum(e["packets_lost_down"] for e in record.link_events())
    print(f"\nall flows finished: {record.completed}; "
          f"packets lost to the cut: {lost}; "
          f"drops at switches: {record.extras['drops']}")

    record.write_json(out_dir / "record.json")
    write_records_csv([record], out_dir / "summary.csv")
    print(f"\nwrote to {out_dir}:")
    print(f"  record.json ({len(record.fct)} flows, "
          f"{len(record.queues)} sampled queues), summary.csv")


if __name__ == "__main__":
    main()
