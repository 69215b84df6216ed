"""Same-machine benchmark of the three backends on Figure 11 workloads.

    python3 perfbench/run.py --workload fig11_packet --seed 1 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
Each repetition runs in a fresh interpreter (``perfbench/rep.py``), and
the cells of a repetition run one after another through
``repro.runner.execute_spec`` (a closed loop, no process pool).

``--trace 0`` repeats the workload until ``--seconds`` have passed and
reports the end-to-end metrics as medians over repetitions; the rate
in the JSON line is scaled by the machine-speed drift that
``calibrate.SpeedProbe`` measured during the cells.  Extra
set-up-only interpreters bring the ``setup_s`` sample to at least
``MIN_SETUPS``.  ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer metrics; the traced repetition
must reproduce the untraced one's fingerprints exactly.

Every record is checked (see ``rep.check_cell``) and fingerprinted;
repetitions of one seed must fingerprint identically.  A human-readable
report goes to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: A run must end well inside 180 s, whatever ``--seconds`` says.
RUN_BUDGET_S = 165.0
MIN_SETUPS = 7


class RepFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepFailed(f"{mode} repetition: no time left in the run budget")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--t0", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} repetition timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise RepFailed(f"{mode} repetition exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


# -- aggregation ----------------------------------------------------------------

def rep_totals(rep: dict) -> dict:
    cells = rep["cells"]
    wall = sum(c["wall_s"] for c in cells)
    finished = sum(c.get("finished", 0) for c in cells)
    work = sum(c.get("packet_events", 0)
               + c.get("fingerprint", {}).get("fluid_flow_steps", 0)
               for c in cells)
    return {"wall_s": wall, "flows": finished, "work": work}


def cell_failures(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a cell fails on a check error or
    when its fingerprint differs from the first repetition's."""
    attempted = failed = 0
    messages: list[str] = []
    reference = [c.get("fingerprint") for c in reps[0]["cells"]]
    for index, rep in enumerate(reps):
        for cell, ref in zip(rep["cells"], reference):
            attempted += 1
            bad = list(cell["errors"])
            if cell.get("fingerprint") != ref:
                bad.append(f"fingerprint differs from repetition 1: "
                           f"{cell.get('fingerprint')} != {ref}")
            if bad:
                failed += 1
                messages.extend(
                    f"rep {index + 1} {cell['label']} {cell['case']}: {m}"
                    for m in bad
                )
    return attempted, failed, messages


def end_to_end(reps: list[dict], setups: list[float],
               failed_frac: float) -> dict:
    totals = [rep_totals(r) for r in reps]
    score = reps[0].get("score") or {}
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(t["wall_s"] for t in totals), "s"),
        "flows_per_s": (statistics.median(
            t["flows"] / t["wall_s"] for t in totals), "flows/s"),
        "work_per_s": (statistics.median(
            t["work"] / t["wall_s"] for t in totals), "1/s"),
        "slowdown": (statistics.median(r["slowdown"] for r in reps), "1"),
        "norm_work_per_s": (statistics.median(
            t["work"] / t["wall_s"] * r["slowdown"]
            for t, r in zip(totals, reps)), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "fct_nrmse": (score.get("nrmse"), "1"),
        "failed_frac": (failed_frac, "1"),
    }


#: The end-to-end metrics ``--trace 0`` reports in its JSON line; the
#: others are printed only (see BENCHMARK.json and README.md for why).
JSON_END_TO_END = ("setup_s", "norm_work_per_s", "peak_rss_mb")


def per_layer(plain: dict, traced: dict) -> dict:
    """Layer metrics: counts and runner/report times from the untraced
    repetition, layer times from the traced one."""
    trace = traced["trace"]
    calls, own, total = trace["calls"], trace["self_s"], trace["total_s"]
    cells = plain["cells"]
    walls = [c["wall_s"] for c in cells]
    fps = [c["fingerprint"] for c in cells]

    hybrid_ran = calls.get("hybrid", 0) > 0
    sim_events = sum(c["packet_events"] for c in cells)
    sim_run = total.get("sim.run", 0.0)
    flow_steps = sum(fp["fluid_flow_steps"] for fp in fps)
    fluid_run = total.get("fluid.run", 0.0)
    checks = trace["pfc_checks"]
    score = plain.get("score") or {}
    m = {
        "runner.cells": (len(cells), "count"),
        "runner.cell_s.median": (statistics.median(walls), "s"),
        "runner.cell_s.max": (max(walls), "s"),
        "runner.wall_s": (sum(walls), "s"),
        "topology.build_s": (total.get("topology.build", 0.0), "s"),
        "workloads.generate_s": (total.get("workloads.generate", 0.0), "s"),
        "workloads.flows_offered": (sum(c["offered"] for c in cells), "count"),
        "network.init_s": (total.get("network.init", 0.0), "s"),
        "network.add_flows_s": (total.get("network.add_flows", 0.0), "s"),
        "sim.run_s": (sim_run, "s"),
        "sim.events": (sim_events, "count"),
        "sim.events_per_s": (sim_events / sim_run if sim_run else 0.0, "1/s"),
        "sim.engine.self_s": (own.get("sim.engine", 0.0), "s"),
    }
    for layer in ("switch", "queues", "buffer", "nic", "pfc"):
        m[f"sim.{layer}.calls"] = (calls.get(f"sim.{layer}", 0), "count")
        m[f"sim.{layer}.self_s"] = (own.get(f"sim.{layer}", 0.0), "s")
    m.update({
        "sim.pfc.useful_frac": (
            trace["pfc_changes"] / checks if checks else 0.0, "1"),
        "sim.pauses": (sum(fp["pause_count"] for fp in fps), "count"),
        "sim.drops": (sum(c["drops"] for c in cells), "count"),
        "sim.flows_unfinished": (sum(c["unfinished"] for c in cells), "count"),
        "sim.sub_ideal": (sum(c["sub_ideal"] for c in cells), "count"),
        "core.cc.calls": (calls.get("core.cc", 0), "count"),
        "core.cc.self_s": (own.get("core.cc", 0.0), "s"),
        "fluid.init_s": (total.get("fluid.init", 0.0), "s"),
        "fluid.add_flows_s": (total.get("fluid.add_flows", 0.0), "s"),
        "fluid.run_s": (fluid_run, "s"),
        "fluid.engine.self_s": (own.get("fluid", 0.0), "s"),
        "fluid.steps": (sum(c["fluid_steps"] for c in cells), "count"),
        "fluid.flow_steps": (flow_steps, "count"),
        "fluid.flow_steps_per_s": (
            flow_steps / fluid_run if fluid_run else 0.0, "1/s"),
        "fluid.cc_replay.calls": (calls.get("fluid.cc_replay", 0), "count"),
        "fluid.cc_replay.self_s": (own.get("fluid.cc_replay", 0.0), "s"),
        "hybrid.epochs": (sum(fp["hybrid_epochs"] for fp in fps), "count"),
        "hybrid.coupling.calls": (calls.get("hybrid.coupling", 0), "count"),
        "hybrid.coupling_s": (total.get("hybrid.coupling", 0.0), "s"),
        "hybrid.packet_s": (
            total.get("network.run", 0.0) if hybrid_ran else 0.0, "s"),
        "hybrid.fluid_s": (fluid_run if hybrid_ran else 0.0, "s"),
        "report.score_s": (plain.get("score_s", 0.0), "s"),
        "report.fct_nrmse": (score.get("nrmse") or 0.0, "1"),
        "report.matched_series": (score.get("matched", 0), "count"),
        "trace.overhead_frac": (
            sum(c["wall_s"] for c in traced["cells"]) / sum(walls) - 1, "1"),
    })
    return m


# -- reporting ------------------------------------------------------------------

def print_cells(title: str, rep: dict) -> None:
    print(title)
    print(f"  {'cell':<20} {'backend':<7} {'wall_s':>7} {'offered':>7} "
          f"{'unfin':>5} {'sub_id':>6} {'events':>8} {'flow_st':>8} "
          f"{'epochs':>6} {'pauses':>6}  fct_sha256")
    for c in rep["cells"]:
        fp = c.get("fingerprint") or {}
        print(f"  {c['label'] + ' ' + str(c['case']):<20} {c['backend']:<7} "
              f"{c['wall_s']:7.3f} {c.get('offered', 0):7d} "
              f"{c.get('unfinished', 0):5d} {c.get('sub_ideal', 0):6d} "
              f"{fp.get('events_processed', 0):8d} "
              f"{fp.get('fluid_flow_steps', 0):8d} "
              f"{fp.get('hybrid_epochs', 0):6d} {fp.get('pause_count', 0):6d}"
              f"  {fp.get('fct_sha256', '-')[:16]}")
    score = rep.get("score")
    if score:
        series = ", ".join(f"{k} {v:.3f}" for k, v in score["series"].items())
        print(f"  fct_nrmse {score['nrmse']:.4f} over {score['matched']} "
              f"matched series ({series})")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else (
            f"{value:d}" if isinstance(value, int) else f"{value:.6g}")
        print(f"  {name:<26} {shown:>14} {unit}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- modes ----------------------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> int:
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        reps.append(spawn(workload, seed, "plain", deadline))
        rep_s = time.monotonic() - rep_started
        now = time.monotonic()
        if now - started >= seconds or now + 1.5 * rep_s > deadline:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])

    attempted, failed, messages = cell_failures(reps)
    metrics = end_to_end(reps, setups, failed / attempted)
    correct = failed == 0 and reps[0].get("score") is not None
    print(f"workload {workload}  seed {seed}  {len(reps)} repetitions, "
          f"{len(setups)} set-ups (fresh interpreter each)")
    print_cells("cells (repetition 1):", reps[0])
    print_metrics(f"end-to-end (median of {len(reps)} repetitions):", metrics)
    for message in messages:
        print(f"CHECK FAILED: {message}")
    emit(correct, attempted, failed,
         {name: metrics[name] for name in JSON_END_TO_END})
    return 0 if correct else 1


def run_traced(workload: str, seed: int, deadline: float) -> int:
    plain = spawn(workload, seed, "plain", deadline)
    traced = spawn(workload, seed, "trace", deadline)
    attempted, failed, messages = cell_failures([plain, traced])
    correct = failed == 0 and plain.get("score") is not None
    print(f"workload {workload}  seed {seed}  traced run")
    print_cells("cells (untraced):", plain)
    print_cells("cells (traced):", traced)
    metrics = per_layer(plain, traced)
    print_metrics("per-layer (counts from the untraced repetition, "
                  "layer times from the traced one):", metrics)
    for message in messages:
        print(f"CHECK FAILED: {message}")
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            return run_traced(args.workload, args.seed, deadline)
        return run_untraced(args.workload, args.seed, args.seconds, deadline)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
