"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so no module-level
cache (a path-set cache, say) carries over from one repetition to the
next; caches shared by the cells *within* one repetition stay.

    python3 perfbench/rep.py --workload fig11_packet --seed 1 \
        --mode plain --t0 "$(python3 -c 'import time; print(time.monotonic())')"

``--t0`` is the ``time.monotonic()`` reading taken just before the
interpreter was started (the clock is system-wide), so ``setup_s``
covers interpreter start, imports, spec building and counting the
offered flows.  Modes:

* ``setup`` - stop after set-up;
* ``plain`` - run every cell through ``repro.runner.execute_spec``
  under a :class:`calibrate.SpeedProbe`, check and fingerprint each
  record, score the figure; cell wall times exclude the probe's time;
* ``trace`` - the same with the layers wrapped by :mod:`tracer`, and
  without the probe.

The last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from calibrate import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, build_specs  # noqa: E402


def offered_flows(specs: list) -> list[dict]:
    """Per spec: the offered population, ``flow_id -> (src, dst, size,
    start_time)``, generated exactly as the load program generates it."""
    from repro.core.registry import get_scheme
    from repro.network import NetworkConfig
    from repro.runner import build_topology, generate_load_flows, workload_cdf
    from repro.sim.packet import BASE_HEADER, INT_OVERHEAD

    topologies: dict[str, object] = {}
    populations = []
    for spec in specs:
        key = json.dumps(spec.topology_params, sort_keys=True)
        if key not in topologies:
            topologies[key] = build_topology(spec)
        mtu = spec.config.get("mtu", NetworkConfig.mtu)
        header = BASE_HEADER + (
            INT_OVERHEAD if get_scheme(spec.cc.name).needs_int else 0
        )
        workload = spec.workload
        flows, _ = generate_load_flows(
            topologies[key], workload_cdf(workload),
            load=workload["load"], n_flows=workload["n_flows"],
            seed=spec.seed, wire_overhead=(mtu + header) / mtu,
            incast=workload.get("incast"),
        )
        populations.append({
            f.flow_id: (f.src, f.dst, f.size, f.start_time) for f in flows
        })
    return populations


def check_cell(record, offered: dict) -> dict:
    """Correctness checks and the deterministic fingerprint of one cell.

    ``slowdown >= 1`` is deliberately not checked: ``Network.ideal_fct``
    charges a full-MTU base RTT, so short flows can legitimately finish
    below "ideal"; they are counted as ``sub_ideal`` instead.
    """
    errors: list[str] = []
    if record.status != "ok":
        errors.append(f"status {record.status}: {record.error}")
    seen: set[int] = set()
    sub_ideal = 0
    for r in record.fct:
        fid = r["flow_id"]
        if fid in seen:
            errors.append(f"flow {fid} finished twice")
        seen.add(fid)
        if offered.get(fid) != (r["src"], r["dst"], r["size"], r["start_time"]):
            errors.append(f"flow {fid} does not match the offered flow")
        if not r["finish"] >= r["start"]:
            errors.append(f"flow {fid} finishes before it starts")
        if r["finish"] - r["start"] < r["ideal"]:
            sub_ideal += 1
    unfinished = len(offered) - len(seen)
    if record.status == "ok" and record.completed != (unfinished == 0):
        errors.append(
            f"completed={record.completed} but {unfinished} flows unfinished"
        )
    extras = record.extras
    fluid_steps = extras.get("fluid_steps", 0)
    # events_processed counts fluid steps too on the fluid and hybrid
    # backends; the packet engine's own events are the rest.
    packet_events = (0 if record.spec.backend == "fluid"
                     else record.events_processed - fluid_steps)
    payload = json.dumps(record.fct, sort_keys=True, separators=(",", ":"))
    return {
        "label": record.spec.label,
        "case": record.spec.meta.get("case"),
        "backend": record.spec.backend,
        "errors": errors[:5],
        "offered": len(offered),
        "finished": len(seen),
        "unfinished": unfinished,
        "sub_ideal": sub_ideal,
        "drops": extras.get("drops", 0),
        "packet_events": packet_events,
        "fluid_steps": fluid_steps,
        "fingerprint": {
            "events_processed": record.events_processed,
            "fluid_flow_steps": extras.get("fluid_flow_steps", 0),
            "hybrid_epochs": extras.get("hybrid_epochs", 0),
            "pause_count": extras.get("pause_count", 0),
            "fct_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        },
    }


def score(specs: list, records: list) -> dict:
    """``fct_nrmse`` by the report's own scorer against refdata/fig11."""
    from repro.experiments import figure11
    from repro.report.fidelity import score_figure
    from repro.report.refdata import load_refdata

    fidelity = score_figure(figure11.render(specs, records),
                            load_refdata("fig11"))
    matched = [s for s in fidelity.series if s.matched]
    return {
        "nrmse": fidelity.nrmse,
        "matched": len(matched),
        "series": {f"{s.panel}/{s.name}": s.nrmse for s in matched},
    }


def run(workload: str, seed: int, mode: str, t0: float) -> dict:
    from repro.runner import execute_spec

    specs = build_specs(workload, seed)
    offered = offered_flows(specs)
    out: dict = {"setup_s": time.monotonic() - t0}
    if mode == "setup":
        return out
    tracer = probe = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # Not in the traced repetition: the tracer would charge the
        # probe's kernel to whichever layer it interrupted.
        probe = SpeedProbe()
    cells, records = [], []
    for spec, population in zip(specs, offered):
        probed = probe.spent_s if probe else 0.0
        started = time.perf_counter()
        try:
            with probe or contextlib.nullcontext():
                record = execute_spec(spec)
        except Exception as exc:  # a failed cell is a result, not a crash
            record = exc
        wall = time.perf_counter() - started
        if probe:
            wall -= probe.spent_s - probed
        if isinstance(record, Exception):
            cells.append({"label": spec.label, "case": spec.meta.get("case"),
                          "backend": spec.backend, "wall_s": wall,
                          "errors": [f"{type(record).__name__}: {record}"]})
            continue
        cell = check_cell(record, population)
        cell["wall_s"] = wall
        cells.append(cell)
        records.append(record)
    out["cells"] = cells
    if len(records) == len(specs):
        started = time.perf_counter()
        out["score"] = score(specs, records)
        out["score_s"] = time.perf_counter() - started
    if probe and probe.samples:
        out["slowdown"] = probe.slowdown()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "pfc_checks": tracer.pfc_checks,
            "pfc_changes": tracer.pfc_changes,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.mode, args.t0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
