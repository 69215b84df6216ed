"""The report pipeline: sweep, render, score, emit.

``build_report`` is what ``hpcc-repro report`` runs: for every requested
figure it expands the experiment's declared scenario grid, executes the
missing cells through the existing :class:`~repro.runner.SweepRunner` /
:class:`~repro.runner.RunCache` machinery (a prior ``hpcc-repro sweep``
into the same cache directory is fully reused), calls the module's
``render()`` hook, scores the result against the digitized paper
reference (:mod:`repro.report.refdata`), and writes per-panel SVGs plus
one self-contained ``index.html``.

Everything is offline and dependency-free; if matplotlib happens to be
installed, :func:`rasterize_panels` can additionally emit PNG twins of
every panel, but nothing in the pipeline requires it.
"""

from __future__ import annotations

import json
import math
import platform
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from ..runner import RunCache, SweepRunner
from .fidelity import FidelityScore, score_figure
from .figures import FigureRender, Panel, Series
from .html import render_index
from .refdata import RefFigure, available_refdata, load_refdata
from .svg import render_panel


@dataclass(frozen=True)
class ReportEntry:
    """One reportable figure: its module and backend eligibility."""

    key: str
    title: str
    fluid_ok: bool = True

    @property
    def module(self):
        from .. import experiments

        return getattr(experiments, _MODULE_NAMES[self.key])


_MODULE_NAMES = {
    "fig1": "figure01", "fig2": "figure02", "fig3": "figure03",
    "fig6": "figure06", "fig9": "figure09", "fig10": "figure10",
    "fig11": "figure11", "fig12": "figure12", "fig13": "figure13",
    "fig14": "figure14", "appendix": "appendix_a", "failover": "failover",
    "linkfail": "linkfail", "flapping": "flapping",
}

#: Every figure the report can build, in paper order.  ``fluid_ok``
#: mirrors README "Simulation backends": fig1 (PFC pause trees) and
#: fig12 (flow-control/transport choices) are packet-only and silently
#: stay on the packet engine when a fluid report is requested.
REPORT_FIGURES: dict[str, ReportEntry] = {
    "fig1": ReportEntry("fig1", "Figure 1: PFC pause propagation",
                        fluid_ok=False),
    "fig2": ReportEntry("fig2", "Figure 2: DCQCN timer trade-off"),
    "fig3": ReportEntry("fig3", "Figure 3: DCQCN ECN-threshold trade-off"),
    "fig6": ReportEntry("fig6", "Figure 6: txRate vs rxRate feedback"),
    "fig9": ReportEntry("fig9", "Figure 9: testbed micro-benchmarks"),
    "fig10": ReportEntry("fig10", "Figure 10: testbed WebSearch FCT"),
    "fig11": ReportEntry("fig11", "Figure 11: large-scale FatTree"),
    "fig12": ReportEntry("fig12", "Figure 12: flow-control choices",
                         fluid_ok=False),
    "fig13": ReportEntry("fig13", "Figure 13: reaction strategies"),
    "fig14": ReportEntry("fig14", "Figure 14: WAI tuning"),
    "appendix": ReportEntry("appendix", "Appendix A: the theory, executed"),
    "failover": ReportEntry("failover", "Extension: dual-trunk failover"),
    "linkfail": ReportEntry("linkfail", "Extension: FatTree link-failure sweep"),
    "flapping": ReportEntry("flapping", "Extension: flapping-trunk study"),
}

#: The ``--fastest`` subset: cheap fluid-eligible grids that still carry
#: refdata (what CI builds on every PR).
FASTEST_FIGURES = ("fig6", "fig11", "fig13")


def _json_number(value):
    """A float as strict-JSON data: non-finite values become strings."""
    if value is None or math.isfinite(value):
        return value
    return str(value)               # "inf" / "-inf" / "nan"


@dataclass
class FigureReport:
    """One built figure: render, score, and emitted artifacts."""

    key: str
    title: str
    backend: str
    scale: str
    render: FigureRender
    score: FidelityScore | None
    ref: "RefFigure | None"
    n_specs: int
    n_cached: int
    wall_time_s: float
    #: Cells quarantined by the sweep fabric (error/timeout records);
    #: the figure rendered from the surviving cells only.
    n_failed: int = 0
    #: ``compare_decisions`` output for the figure's drilldown (fig13
    #: only): the packet-vs-fluid CC decision-trace divergence, also
    #: written as ``divergence.json``.  ``None`` when not built.
    divergence: dict | None = None
    #: Engine work summed over the figure's records (packet events or
    #: fluid steps), plus the events and wall time of the *computed*
    #: (non-cached) subset — the report's telemetry panel derives
    #: events/s from the fresh pair so cache hits cannot inflate it.
    events_processed: int = 0
    fresh_events: int = 0
    fresh_wall_s: float = 0.0
    panel_svgs: list[str] = field(default_factory=list)
    ref_svgs: list[str] = field(default_factory=list)

    @property
    def events_per_s(self) -> float | None:
        """Engine events per compute-second; None for all-cached builds."""
        if self.fresh_wall_s <= 0:
            return None
        return self.fresh_events / self.fresh_wall_s

    @property
    def extraction(self) -> str:
        return self.ref.extraction if self.ref is not None else ""

    @property
    def notes(self) -> list[str]:
        return self.render.notes


@dataclass
class Report:
    """The whole build: figure reports plus run metadata."""

    figures: list[FigureReport]
    metadata: dict

    def verdicts(self) -> dict[str, str]:
        return {
            fig.key: fig.score.verdict if fig.score is not None else "n/a"
            for fig in self.figures
        }

    def to_json(self) -> dict:
        """Machine-readable summary (written as ``report.json``).

        Stats legitimately hold ``inf``/``nan`` (an un-drained queue's
        drain time, a percentile with no samples); those encode as the
        strings ``"inf"``/``"-inf"``/``"nan"`` so the file stays strict
        JSON (``json.dumps`` would otherwise emit bare ``Infinity``
        tokens that JavaScript and jq reject).
        """
        out = {"metadata": self.metadata, "figures": {}}
        for fig in self.figures:
            entry = {
                "title": fig.title,
                "backend": fig.backend,
                "scale": fig.scale,
                "scenarios": fig.n_specs,
                "cached": fig.n_cached,
                "failed": fig.n_failed,
                "wall_time_s": round(fig.wall_time_s, 3),
                "events_processed": fig.events_processed,
                "events_per_s": _json_number(
                    round(fig.events_per_s, 1)
                    if fig.events_per_s is not None else None
                ),
                "verdict": "n/a",
                "stats": {
                    k: _json_number(v) for k, v in fig.render.stats.items()
                },
            }
            if fig.divergence is not None:
                entry["divergence"] = {
                    k: _json_number(v)
                    for k, v in fig.divergence["summary"].items()
                }
            if fig.score is not None:
                entry.update({
                    "verdict": fig.score.verdict,
                    "nrmse": _json_number(fig.score.nrmse),
                    "trend": _json_number(fig.score.trend),
                    "checks_passed": sum(
                        1 for c in fig.score.checks if c.passed
                    ),
                    "checks_total": len(fig.score.checks),
                })
            out["figures"][fig.key] = entry
        return out


def resolve_figures(names: list[str] | None, fastest: bool) -> list[str]:
    """Figure keys for a report request (CLI semantics)."""
    if fastest:
        if names:
            raise SystemExit(
                "--fastest selects its own figure subset "
                f"({', '.join(FASTEST_FIGURES)}); drop --figures or --fastest"
            )
        return list(FASTEST_FIGURES)
    if not names:
        return list(REPORT_FIGURES)
    from ..cli import _resolve

    keys = []
    for name in names:
        key = _resolve(name)
        if key not in REPORT_FIGURES:
            raise SystemExit(f"experiment {key!r} has no report entry")
        if key not in keys:
            keys.append(key)
    return keys


def _ref_panels(ref) -> list[Panel]:
    """The digitized paper curves, grouped per panel, as plot panels."""
    panels = []
    for key in ref.panel_keys():
        members = ref.series_for(key)
        units = ref.units.get(key, {})
        panels.append(Panel(
            key=f"ref-{key}",
            title=f"{ref.title} [{key}]",
            series=[
                Series(name=s.name, x=list(s.x), y=list(s.y))
                for s in members
            ],
            x_label=units.get("x", ""),
            y_label=units.get("y", ""),
        ))
    return panels


def build_figure(
    key: str,
    backend: str,
    scale: str,
    runner: SweepRunner,
    seed: int | None = None,
    telemetry=None,
) -> FigureReport:
    """Sweep + render + score one figure (no files written).

    ``seed`` is forwarded to the figure's ``scenarios`` only when given,
    so the default build keeps each figure's own default seed (fig1's
    is 3) and its spec hashes.  ``telemetry`` (a
    :class:`repro.obs.Telemetry`, usually the runner's own) adds
    per-figure ``figure`` and ``score`` spans around the sweep and the
    render/score phases.
    """
    entry = REPORT_FIGURES[key]
    effective_backend = backend if entry.fluid_ok else "packet"
    if seed is None:
        specs = entry.module.scenarios(scale=scale)
    else:
        specs = entry.module.scenarios(scale=scale, seed=seed)
    if effective_backend != "packet":
        # Cells that already carry a non-packet backend (a grid mixing
        # fluid and hybrid cells) keep it; only default-packet cells are
        # moved to the requested engine.  The figure's backend badge
        # then reflects what actually ran, e.g. ``fluid+hybrid``.
        specs = [
            s if s.backend != "packet"
            else s.replaced(backend=effective_backend)
            for s in specs
        ]
    badge = "+".join(sorted({s.backend for s in specs}))
    started = time.perf_counter()
    with telemetry.span("figure", figure=key) if telemetry is not None \
            else nullcontext():
        records = runner.run(specs)
    wall = time.perf_counter() - started
    # Quarantined cells (error/timeout) never reach the figure's render —
    # it sees only the surviving (spec, record) pairs and the report
    # badges the loss instead of aborting the whole build.
    failed = [r for r in records if not r.ok]
    ok_pairs = [(s, r) for s, r in zip(specs, records) if r.ok]
    ok_specs = [s for s, _ in ok_pairs]
    ok_records = [r for _, r in ok_pairs]
    with telemetry.span("score", figure=key) if telemetry is not None \
            else nullcontext():
        try:
            render = entry.module.render(ok_specs, ok_records)
        except Exception as exc:
            if not failed:
                raise         # a real render bug, not missing cells
            # The failures starved the render of cells it requires:
            # degrade to an empty figure carrying the failure note.
            render = FigureRender(
                figure=key, title=entry.title, panels=[],
                notes=[f"render skipped: {type(exc).__name__}: {exc}"],
            )
        if failed:
            statuses: dict[str, int] = {}
            for record in failed:
                statuses[record.status] = statuses.get(record.status, 0) + 1
            detail = ", ".join(f"{n} {s}" for s, n in sorted(statuses.items()))
            render.notes.append(
                f"{len(failed)} of {len(specs)} cells failed ({detail}); "
                f"rendered from the {len(ok_records)} surviving cells. "
                f"Failed: " + "; ".join(
                    f"{r.label} [{(r.error or {}).get('type', r.status)}]"
                    for r in failed[:6]
                ) + ("..." if len(failed) > 6 else "")
            )
        if effective_backend != backend:
            render.notes.append(
                f"{key} is packet-only (see README 'Simulation backends'); "
                f"the requested {backend!r} backend was overridden."
            )
        ref = load_refdata(key)
        score = score_figure(render, ref) if ref is not None else None
    return FigureReport(
        key=key,
        title=render.title,
        backend=badge,
        scale=scale,
        render=render,
        score=score,
        ref=ref,
        n_specs=len(specs),
        n_cached=sum(1 for r in records if r.cached),
        n_failed=len(failed),
        wall_time_s=wall,
        events_processed=sum(r.events_processed for r in records),
        fresh_events=sum(r.events_processed for r in records if not r.cached),
        fresh_wall_s=sum(r.wall_time_s for r in records if not r.cached),
        panel_svgs=[render_panel(p) for p in render.panels],
        ref_svgs=[render_panel(p) for p in _ref_panels(ref)]
        if ref is not None else [],
    )


# -- fig13 divergence drilldown ---------------------------------------------------

def _stride(values: list, cap: int) -> list:
    """Every n-th element so the result stays under ``cap`` points."""
    step = max(1, -(-len(values) // cap))
    return values[::step]


def _divergence_panel(streams: dict[str, list[dict]]) -> Panel:
    """The decision-marked rate timeline: both backends, every flow.

    Lines are each flow's rate trajectory (the ``rate_after`` step
    function, decimated for SVG size); markers sit at individual
    decision instants, so the chart shows *when* each control loop
    acted, not just where its rate ended up.
    """
    from ..obs.divergence import by_flow, decision_records, rate_trajectory

    series = []
    for backend in ("packet", "fluid"):
        flows = by_flow(decision_records(streams[backend]))
        marker_pts: list[tuple[float, float]] = []
        for flow_id in sorted(flows):
            times, rates = rate_trajectory(flows[flow_id])
            pts = _stride(list(zip(times, rates)), 400)
            series.append(Series(
                name=f"{backend} flow {flow_id}",
                x=[t / 1000.0 for t, _ in pts],        # ns -> us
                y=[r * 8.0 for _, r in pts],           # B/ns -> Gbps
            ))
            marker_pts.extend(zip(times, rates))
        marker_pts.sort()
        marker_pts = _stride(marker_pts, 150)
        series.append(Series(
            name=f"{backend} decisions",
            x=[t / 1000.0 for t, _ in marker_pts],
            y=[r * 8.0 for _, r in marker_pts],
            kind="marker",
        ))
    return Panel(
        key="cc-divergence",
        title="CC decision timeline: packet vs fluid (HPCC, 2-to-1 incast)",
        series=series,
        x_label="time (us)",
        y_label="rate (Gbps)",
    )


def build_divergence_drilldown(
    scale: str = "bench", threshold: float = 0.25
) -> tuple[dict, Panel]:
    """Run fig13's HPCC cell on both backends and diff the decisions.

    Uses a 2-to-1 incast (fig13's strategy comparison shrunk to two
    senders) so the packet run stays cheap inside a report build.
    Returns ``(compare_decisions output, timeline panel)``.
    """
    from ..experiments import figure13
    from ..obs.divergence import compare_decisions
    from ..runner.execute import execute_spec

    specs = figure13.scenarios(scale=scale, params={"fan_in": 2})
    spec = next(s for s in specs if (s.label or "") == "HPCC")
    streams = {}
    for backend in ("packet", "fluid"):
        record = execute_spec(spec.replaced(backend=backend), decisions=True)
        streams[backend] = record.telemetry or []
    div = compare_decisions(streams["packet"], streams["fluid"],
                            threshold=threshold)
    div["spec"] = {"label": spec.label, "spec_hash": spec.spec_hash,
                   "program": spec.program, "cc": spec.cc.name}
    return div, _divergence_panel(streams)


# -- the hybrid co-simulation cell ------------------------------------------------

def _build_hybrid_cell(out: Path, scale: str = "bench") -> str:
    """Run one hybrid fig11 cell and write ``hybrid_fig11.json``.

    The ``--fastest`` artifact carries a single HPCC 50%-load FatTree
    cell on the hybrid backend (10% packet foreground, fluid
    background) so every CI build exercises the co-simulation path end
    to end on a real figure workload.  Returns the metadata summary
    line.
    """
    from ..experiments import figure11
    from ..runner import CcChoice
    from ..runner.execute import execute_spec

    spec = figure11.scenarios(
        scale=scale, cases=("50%",),
        schemes=(CcChoice("hpcc", label="HPCC"),),
    )[0].replaced(
        backend="hybrid",
        **{"workload.foreground": {"kind": "frac", "x": 0.1}},
    )
    started = time.perf_counter()
    record = execute_spec(spec)
    wall = time.perf_counter() - started
    extras = record.extras or {}
    payload = {
        "spec_hash": spec.spec_hash,
        "label": spec.label,
        "backend": spec.backend,
        "scale": scale,
        "hybrid_mode": extras.get("hybrid_mode"),
        "foreground_flows": extras.get("foreground_flows"),
        "background_flows": extras.get("background_flows"),
        "hybrid_epochs": extras.get("hybrid_epochs"),
        "events_processed": record.events_processed,
        "duration_ns": _json_number(record.duration_ns),
        "n_fct": len(record.fct or []),
        "wall_time_s": round(wall, 3),
    }
    (out / "hybrid_fig11.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    return (
        f"fig11 {spec.label} on hybrid "
        f"({payload['foreground_flows']} fg / "
        f"{payload['background_flows']} bg flows, "
        f"{payload['hybrid_epochs']} epochs, {wall:.1f}s) "
        f"-> hybrid_fig11.json"
    )


# -- benchmark trajectory ---------------------------------------------------------

#: The bench-snapshot payload version this reader understands
#: (``benchmarks/run_all.py``'s ``BENCH_SCHEMA``).
_BENCH_SCHEMA = 2


def _load_bench_snapshots(root: Path) -> list[tuple[int, dict]]:
    """``BENCH_pr<N>.json`` snapshots, schema-checked and PR-sorted.

    Unparsable files, non-object payloads and payloads not stamped
    ``"schema": 2`` are skipped — a perf trajectory built from
    surviving snapshots beats an aborted report.
    """
    snapshots: list[tuple[int, dict]] = []
    for path in root.glob("BENCH_pr*.json"):
        match = re.fullmatch(r"BENCH_pr(\d+)", path.stem)
        if not match:
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(data, dict) \
                or data.get("schema") != _BENCH_SCHEMA:
            continue
        snapshots.append((int(match.group(1)), data))
    snapshots.sort()
    return snapshots


def _pr_axis(snapshots: list[tuple[int, dict]]) -> list[int]:
    """Every PR number from first to last snapshot, present or not.

    The axis deliberately includes the missing PRs (a PR that shipped
    no snapshot, e.g. a docs- or infra-only change): series carry NaN
    there, which the SVG renderer draws as a visible gap instead of a
    bridging line segment that would fake a measurement.
    """
    prs = [pr for pr, _ in snapshots]
    return list(range(min(prs), max(prs) + 1))


def load_bench_trajectory(root: Path) -> Panel | None:
    """Wall time per run_all.py workload across BENCH_pr<N>.json files.

    The series starts at PR 3 (PR 0-2 predate the snapshot convention,
    so ``BENCH_pr1.json``/``BENCH_pr2.json`` intentionally do not
    exist); snapshots missing in between render as explicit gaps.
    """
    snapshots = _load_bench_snapshots(root)
    if not snapshots:
        return None
    per_bench: dict[str, dict[int, float]] = {}
    for pr, data in snapshots:
        for result in data.get("results", []):
            name = result.get("name")
            wall = result.get("wall_time_s")
            if isinstance(name, str) and isinstance(wall, (int, float)):
                per_bench.setdefault(name, {})[pr] = float(wall)
    axis = _pr_axis(snapshots)
    series = [
        Series(name=name, x=[float(p) for p in axis],
               y=[by_pr.get(p, math.nan) for p in axis])
        for name, by_pr in sorted(per_bench.items())
    ]
    return Panel(
        key="bench-trajectory",
        title="run_all.py wall time per PR snapshot",
        series=series,
        x_label="PR", y_label="wall time (s)",
    )


def load_engine_rate_trajectory(root: Path) -> Panel | None:
    """Packet-engine events/s across ``BENCH_pr<N>.json`` snapshots.

    The ``engine_events`` entry records wall time for a fixed
    200k-event chain workload; dividing gives the substrate throughput
    trend the telemetry panel plots next to the live per-figure rates.
    Missing PR snapshots render as explicit gaps, like the wall-time
    trajectory.
    """
    snapshots = _load_bench_snapshots(root)
    if not snapshots:
        return None
    by_pr: dict[int, float] = {}
    for pr, data in snapshots:
        for result in data.get("results", []):
            if result.get("name") != "engine_events":
                continue
            wall = result.get("wall_time_s")
            events = result.get("params", {}).get("events")
            if isinstance(wall, (int, float)) and wall > 0 \
                    and isinstance(events, (int, float)):
                by_pr[pr] = float(events) / float(wall)
    if not by_pr:
        return None
    axis = _pr_axis(snapshots)
    return Panel(
        key="engine-rate-trajectory",
        title="packet-engine throughput per PR snapshot",
        series=[Series(name="engine events/s",
                       x=[float(p) for p in axis],
                       y=[by_pr.get(p, math.nan) for p in axis])],
        x_label="PR", y_label="events/s",
    )


# -- optional matplotlib rasterization -------------------------------------------

def rasterize_panels(report: Report, out: Path) -> list[Path]:
    """PNG twins of every panel — *only* if matplotlib is installed.

    The SVG report never needs this; it exists for embedding charts in
    tools that cannot render SVG.  Raises ``RuntimeError`` with a clear
    message when matplotlib is unavailable.
    """
    try:
        import matplotlib
    except ImportError:
        raise RuntimeError(
            "matplotlib is not installed; the SVG report is complete "
            "without it — install matplotlib only if you need PNGs"
        )
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    written = []
    for fig_report in report.figures:
        for panel in fig_report.render.panels:
            fig, ax = plt.subplots(figsize=(4.8, 3.0), dpi=120)
            for series in panel.series:
                if series.kind == "bar":
                    ax.bar([str(v) for v in series.x], series.y,
                           label=series.name)
                else:
                    ax.plot(series.x, series.y, label=series.name)
            ax.set_title(panel.title, fontsize=9)
            ax.set_xlabel(panel.x_label)
            ax.set_ylabel(panel.y_label)
            if panel.x_log:
                ax.set_xscale("log")
            if panel.series:
                ax.legend(fontsize=7)
            path = out / f"{fig_report.key}_{panel.key}.png"
            fig.tight_layout()
            fig.savefig(path)
            plt.close(fig)
            written.append(path)
    return written


# -- the top-level build ----------------------------------------------------------

def build_report(
    figures: list[str],
    backend: str = "packet",
    scale: str = "bench",
    out: str | Path = "report",
    cache_dir: str | Path | None = None,
    jobs: int = 1,
    progress=None,
    bench_root: str | Path | None = None,
    telemetry=None,
    hybrid_cell: bool = False,
    seed: int | None = None,
) -> Report:
    """Build the reproduction report; returns the in-memory summary.

    Writes under ``out``: one ``<figure>_<panel>.svg`` per reproduction
    panel, ``ref_<figure>_<panel>.svg`` per digitized reference panel,
    ``report.json`` (machine-readable verdicts) and ``index.html``.
    ``cache_dir`` defaults to ``<out>/cache``; point it at a previous
    ``hpcc-repro sweep --out`` directory to reuse those records.
    ``telemetry`` (a :class:`repro.obs.Telemetry`, owned and closed by
    the caller) records the build's spans and every run's probe data.
    ``hybrid_cell`` additionally runs one fig11 cell on the hybrid
    backend and writes ``hybrid_fig11.json`` (rides in the
    ``--fastest`` CI artifact).  ``seed`` (default: each figure's own)
    is passed to every figure's grid, as :func:`build_figure` does.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cache = RunCache(cache_dir if cache_dir is not None else out / "cache")
    runner = SweepRunner(jobs=jobs, cache=cache, progress=progress,
                         telemetry=telemetry,
                         journal=str(out / "journal.jsonl"))

    started = time.perf_counter()
    built = [
        build_figure(key, backend=backend, scale=scale, runner=runner,
                     seed=seed, telemetry=telemetry)
        for key in figures
    ]

    # fig13 drilldown: the control-loop flight recorder's backend diff.
    # Best-effort — a drilldown failure becomes a figure note, never a
    # failed report build.
    for fig_report in built:
        if fig_report.key != "fig13":
            continue
        if "hybrid" in fig_report.backend.split("+"):
            # The decision-trace diff is defined for the pure
            # packet-vs-fluid pair; a hybrid cell runs both engines at
            # once, so there is no second backend to diff against.
            fig_report.render.notes.append(
                "divergence drilldown skipped: not defined for hybrid "
                "cells (the diff compares the pure packet and fluid "
                "engines)"
            )
            continue
        try:
            div, div_panel = build_divergence_drilldown(scale=scale)
        except Exception as exc:
            fig_report.render.notes.append(
                f"divergence drilldown skipped: {type(exc).__name__}: {exc}"
            )
            continue
        fig_report.divergence = div
        fig_report.render.panels.append(div_panel)
        fig_report.panel_svgs.append(render_panel(div_panel))
        (out / "divergence.json").write_text(
            json.dumps(div, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )

    scored = [f for f in built if f.score is not None]
    failed_total = sum(f.n_failed for f in built)
    metadata = {
        "backend requested": backend,
        "scale": scale,
        "figures": ", ".join(figures),
        "scored": f"{len(scored)}/{len(built)} figures have refdata "
                  f"({len(available_refdata())} reference files checked in)",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "total wall time": f"{time.perf_counter() - started:.2f}s",
        "cache": str(cache.root),
    }
    diverged = next((f.divergence for f in built if f.divergence), None)
    if diverged is not None:
        s = diverged["summary"]
        agreement = s["attribution_agreement"]
        metadata["decision divergence"] = (
            f"{s['flows_compared']} flows diffed across backends "
            f"({s['flows_diverged']} diverged"
            + (f", bottleneck attribution {agreement:.0%} agree"
               if agreement is not None else "")
            + "); see divergence.json"
        )
    if failed_total:
        metadata["failed cells"] = (
            f"{failed_total} quarantined (error/timeout) — figures "
            f"rendered from surviving cells; see journal.jsonl"
        )
    if telemetry is not None:
        sink_path = getattr(telemetry.sink, "path", None)
        metadata["telemetry"] = (
            str(sink_path) if sink_path is not None else "recorded (no file)"
        )
    if hybrid_cell:
        # Best-effort like the drilldown: a broken hybrid cell becomes
        # a metadata note, never a failed report build.
        try:
            metadata["hybrid cell"] = _build_hybrid_cell(out, scale=scale)
        except Exception as exc:
            metadata["hybrid cell"] = (
                f"skipped: {type(exc).__name__}: {exc}"
            )
    report = Report(figures=built, metadata=metadata)

    for fig_report in built:
        for panel, svg in zip(fig_report.render.panels,
                              fig_report.panel_svgs):
            (out / f"{fig_report.key}_{panel.key}.svg").write_text(svg)
        if fig_report.ref_svgs:
            for key, svg in zip(fig_report.ref.panel_keys(),
                                fig_report.ref_svgs):
                (out / f"ref_{fig_report.key}_{key}.svg").write_text(svg)

    bench_dir = Path(bench_root) if bench_root is not None else Path.cwd()
    bench_panel = load_bench_trajectory(bench_dir)
    bench_svg = None
    if bench_panel is not None:
        bench_svg = render_panel(bench_panel)
        (out / "bench_trajectory.svg").write_text(bench_svg)
        metadata["bench trajectory"] = (
            f"{len(bench_panel.series)} workloads from BENCH_pr*.json "
            f"in {bench_dir}"
        )
    else:
        # Not an error (installed packages have no repo checkout), but
        # say so: a silently missing chart reads as a build bug.
        metadata["bench trajectory"] = (
            f"no BENCH_pr*.json snapshots in {bench_dir} - run from the "
            "repository root to include the trajectory chart"
        )

    rate_panel = load_engine_rate_trajectory(bench_dir)
    rate_svg = None
    if rate_panel is not None:
        rate_svg = render_panel(rate_panel)
        (out / "engine_rate_trajectory.svg").write_text(rate_svg)

    (out / "report.json").write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True,
                   allow_nan=False) + "\n"
    )
    (out / "index.html").write_text(
        render_index(report, bench_svg, rate_svg)
    )
    return report
