"""Scenario execution: programs, the spec interpreter, and the sweep runner.

The **programs** are the generic execution recipes every figure is built
from.  A program takes a :class:`ScenarioSpec` (pure data), builds its
own simulation, runs it, and returns a :class:`RunRecord` (pure data
again) — nothing live crosses the boundary, which is what lets
:class:`SweepRunner` fan specs out over a ``ProcessPoolExecutor``.
Because every run is rebuilt from the spec's seed, serial and parallel
sweeps produce byte-identical results.

The network programs, ``load`` and ``flows``, are written once against
a small data-plane protocol (build, start, run to a deadline, collect;
see :class:`~repro.runner.harness.Collected`) that the packet, fluid and
hybrid backends each implement (:data:`PLANES`).  They differ only in
how they build their flow population.

Telemetry (``repro.obs``) is opt-in per sweep: :func:`execute_spec`
builds a run-scoped memory-sink :class:`~repro.obs.Telemetry` when
asked, programs mark their setup/run/collect phases through the ambient
:func:`~repro.obs.maybe_span` context (a no-op otherwise), and
:class:`SweepRunner` ingests each worker's drained records — carried
across the process pool on the (non-persisted) ``RunRecord.telemetry``
field — into its own file-backed instance.
"""

from __future__ import annotations

import importlib
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .journal import SweepJournal

from ..dynamics import Timeline, burst_flow_specs
from ..obs import Telemetry, maybe_span, using
from ..sim.flow import FlowSpec
from ..topology.base import Topology
from ..topology.fattree import FatTreeSpec, fattree
from ..topology.simple import dual_trunk, dumbbell, intree, parking_lot, star
from ..topology.testbed import testbed
from ..workloads.fbhadoop import fbhadoop
from ..workloads.websearch import websearch
from .harness import generate_load_flows
from .results import RunCache, RunRecord
from .spec import ScenarioSpec

# -- registries (resolved by name inside worker processes) -----------------------

TOPOLOGIES: dict[str, Callable[..., Topology]] = {
    "star": star,
    "dumbbell": dumbbell,
    "parking_lot": parking_lot,
    "intree": intree,
    "testbed": testbed,
    "dual_trunk": dual_trunk,
    "fattree": lambda **kwargs: fattree(FatTreeSpec(**kwargs)),
}

CDFS: dict[str, Callable] = {
    "websearch": websearch,
    "fbhadoop": fbhadoop,
}


def build_topology(spec: ScenarioSpec) -> Topology:
    """Instantiate the spec's topology (cheap: no simulator involved)."""
    _require("topology", spec.topology, TOPOLOGIES)
    return TOPOLOGIES[spec.topology](**spec.topology_params)


def workload_cdf(workload: dict):
    cdf = CDFS[workload["cdf"]]()
    return cdf.scaled(workload.get("size_scale", 1.0))


# -- the network programs ---------------------------------------------------------

#: Backend name -> ``(module, class)`` of its data plane (the protocol
#: is documented on :class:`~repro.runner.harness.Collected`).  Imported
#: on first use, so ``repro.runner`` does not pull in ``repro.fluid`` or
#: ``repro.hybrid``.  A backend missing here raises instead of silently
#: falling through to the packet engine.
PLANES: dict[str, tuple[str, str]] = {
    "packet": ("repro.runner.harness", "PacketPlane"),
    "fluid": ("repro.fluid.programs", "FluidPlane"),
    "hybrid": ("repro.hybrid.programs", "HybridPlane"),
}


def _require(kind: str, name: str, registry) -> None:
    """Raise ``unknown <kind>`` naming the known entries of ``registry``."""
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {kind} {name!r}; known: {known}")


def data_plane(backend: str) -> type:
    """The data-plane class of ``backend``; raises on unknown names."""
    _require("backend", backend, PLANES)
    module, name = PLANES[backend]
    return getattr(importlib.import_module(module), name)


def _load_population(spec: ScenarioSpec, topology: Topology,
                     wire_factor: float) -> tuple[list[FlowSpec], float]:
    """``load``: Poisson background from a size CDF, optional incasts.

    workload: ``{"cdf", "size_scale", "load", "n_flows", "incast"?,
    "deadline_factor"?}``; the run gets ``deadline_factor`` (2.5) times
    the workload duration to drain.
    """
    workload = spec.workload
    flows, duration = generate_load_flows(
        topology, workload_cdf(workload),
        load=workload["load"], n_flows=workload["n_flows"],
        seed=spec.seed, wire_overhead=wire_factor,
        incast=workload.get("incast"),
    )
    return flows, duration * workload.get("deadline_factor", 2.5)


def _listed_population(spec: ScenarioSpec, topology: Topology,
                       wire_factor: float) -> tuple[list[FlowSpec], float]:
    """``flows``: an explicit flow list, ids 1..n.

    workload: ``{"flows": [[src, dst, size, start?, tag?], ...],
    "deadline"}``; link events come from ``spec.dynamics``.
    """
    flows = [
        FlowSpec(
            flow_id=i, src=entry[0], dst=entry[1], size=entry[2],
            start_time=entry[3] if len(entry) > 3 else 0.0,
            tag=entry[4] if len(entry) > 4 else "bg",
        )
        for i, entry in enumerate(spec.workload["flows"], start=1)
    ]
    return flows, spec.workload["deadline"]


_POPULATIONS = {"load": _load_population, "flows": _listed_population}


def _run_network(spec: ScenarioSpec) -> RunRecord:
    """The ``load`` and ``flows`` programs on the spec's data plane.

    Build the topology and the plane, build the population, add burst
    flows from the dynamics timeline, run, and assemble the record.
    Beyond the workload keys of each population: ``config`` holds
    ``NetworkConfig`` overrides (``base_rtt`` required for paper
    fidelity); ``dynamics`` is a timeline of mid-run events (see
    ``repro.dynamics``); ``measure`` takes ``sample_interval``,
    ``sample_ports``, ``windows`` and ``pause_intervals``.
    """
    plane_cls = data_plane(spec.backend)
    with maybe_span("setup"):
        topology = build_topology(spec)
        plane = plane_cls(spec, topology)
        flows, deadline = _POPULATIONS[spec.program](
            spec, topology, plane.wire_factor
        )
        timeline = Timeline.from_json(spec.dynamics)
        bursts, burst_entries = burst_flow_specs(
            timeline, topology.hosts, spec.seed,
            next_flow_id=max((fs.flow_id for fs in flows), default=0) + 1,
        )
        flows = flows + bursts
        plane.start(flows, timeline, burst_entries)
    with maybe_span("run"):
        completed = plane.run(deadline)
    with maybe_span("collect"):
        out = plane.collect()
        extras = out.extras
        # The load population is thousands of anonymous ``bg`` flows;
        # only its injected bursts are few enough to map by tag.
        flow_ids: dict[str, list[int]] = {}
        for fs in flows if spec.program == "flows" else bursts:
            flow_ids.setdefault(fs.tag, []).append(fs.flow_id)
        if flow_ids or spec.program == "flows":
            extras["flow_ids"] = flow_ids
        if spec.measure.get("windows"):
            extras["final_windows"] = {
                str(flow_id): window
                for flow_id, window in out.windows.items()
            }
        return RunRecord(
            spec=spec,
            fct=[
                {
                    "flow_id": r.spec.flow_id, "src": r.spec.src,
                    "dst": r.spec.dst, "size": r.spec.size,
                    "start_time": r.spec.start_time, "tag": r.spec.tag,
                    "start": r.start, "finish": r.finish, "ideal": r.ideal,
                }
                for r in out.fct
            ],
            queues={
                label: {"times": list(times), "qlens": list(qlens)}
                for label, (times, qlens) in out.queues.items()
            },
            extras=extras,
            events_processed=out.events_processed,
            duration_ns=out.duration_ns,
            completed=completed,
        )


def _run_appendix_a1(spec: ScenarioSpec) -> RunRecord:
    """A.1: sumDi/D/1 queueing approximations vs direct simulation.

    workload: ``{"n_sources", "rho", "threshold", "n_periods"?}``.
    """
    from ..analysis.queueing import (
        PeriodicSourcesQueue,
        mean_queue_full_load,
        overflow_probability,
    )

    w = spec.workload
    n_sources, rho = w["n_sources"], w["rho"]
    threshold = w["threshold"]
    n_periods = w.get("n_periods", 200)
    sim = PeriodicSourcesQueue(n_sources, rho, seed=spec.seed)
    extras = {
        "n_sources": n_sources,
        "rho": rho,
        "analytic_mean_full_load": mean_queue_full_load(n_sources),
        "simulated_mean": sim.mean_queue(n_periods=n_periods),
        "analytic_tail": overflow_probability(n_sources, rho, threshold),
        "simulated_tail": sim.tail_probability(threshold, n_periods=n_periods),
    }
    return RunRecord(spec=spec, extras=extras, completed=True)


def _run_appendix_a2(spec: ScenarioSpec) -> RunRecord:
    """A.2: the Pareto-convergence Lemma on random rate networks.

    workload: ``{"n_trials"}``; seed drives the random topologies.
    """
    import numpy as np

    from ..analysis.convergence import random_network

    n_trials = spec.workload["n_trials"]
    rng = np.random.default_rng(spec.seed)
    feasible = monotone = pareto_i = pareto_inf = 0
    for _ in range(n_trials):
        net = random_network(
            n_resources=int(rng.integers(2, 8)),
            n_paths=int(rng.integers(2, 10)),
            rng=rng,
        )
        r0 = rng.uniform(0.1, 5.0, size=net.n_paths)
        trajectory = net.iterate(r0, 5 * net.n_resources)
        if net.is_feasible(trajectory[1]):
            feasible += 1
        if all(
            (trajectory[k + 1] >= trajectory[k] - 1e-9).all()
            for k in range(1, len(trajectory) - 1)
        ):
            monotone += 1
        if net.is_pareto_optimal(trajectory[net.n_resources], tol=0.01):
            pareto_i += 1
        if net.is_pareto_optimal(trajectory[-1]):
            pareto_inf += 1
    extras = {
        "n_trials": n_trials,
        "feasible_after_one": feasible,
        "monotone": monotone,
        "pareto_within_i": pareto_i,
        "pareto_asymptotic": pareto_inf,
    }
    return RunRecord(spec=spec, extras=extras, completed=True)


PROGRAMS: dict[str, Callable[[ScenarioSpec], RunRecord]] = {
    "load": _run_network,
    "flows": _run_network,
    "appendix_a1": _run_appendix_a1,
    "appendix_a2": _run_appendix_a2,
}


def execute_spec(spec: ScenarioSpec, telemetry: bool = False,
                 decisions: bool = False) -> RunRecord:
    """Run one scenario to completion (the process-pool work unit).

    With ``telemetry=True`` the run executes under a run-scoped,
    memory-backed :class:`~repro.obs.Telemetry` (programs and engine
    probes find it via the ambient context); its drained records ride
    back on ``record.telemetry`` for the sweep's sink.  On an exception
    or a deadline overrun the flight recorder dumps the last samples to
    stderr before the record (or the exception) leaves the worker.  A
    ``flows`` cell that stops at its explicit ``workload["deadline"]``
    is bounded by design: it emits ``run.horizon_reached`` and no dump.

    ``decisions=True`` (implies telemetry) additionally attaches a
    :class:`~repro.obs.DecisionTap` — the execution layer hands it to
    whichever engine the spec selects — and exports one ``decision``
    record per CC control decision into the telemetry stream.
    """
    validate_specs([spec])
    program = PROGRAMS[spec.program]
    started = time.perf_counter()
    if not (telemetry or decisions):
        record = program(spec)
        record.wall_time_s = time.perf_counter() - started
        return record

    tel = Telemetry(
        run_id=spec.spec_hash,
        labels={
            "label": spec.label or spec.spec_hash,
            "program": spec.program,
            "backend": spec.backend,
            "cc": spec.cc.name,
        },
    )
    if decisions:
        from ..obs import DecisionTap

        tel.decisions = DecisionTap()
    try:
        with using(tel), tel.span("total"):
            record = program(spec)
    except BaseException:
        tel.event("run.exception")
        tel.flight.dump("exception", spec.label or spec.spec_hash)
        raise
    record.wall_time_s = time.perf_counter() - started
    if not record.completed:
        if spec.program == "flows":
            # The explicit ``workload["deadline"]`` is the run's horizon
            # by design (fig13's time series), not an incident.
            tel.event("run.horizon_reached", sim_ns=record.duration_ns)
        else:
            tel.event("run.deadline_overrun", sim_ns=record.duration_ns)
            tel.flight.dump("deadline overrun", spec.label or spec.spec_hash)
    if tel.decisions is not None:
        tel.export_decisions(tel.decisions)
    record.telemetry = tel.drain()
    return record


# -- the sweep runner -------------------------------------------------------------

# Infrastructure failures that mean "this environment cannot fork a pool";
# real execution errors inside a worker become error-status records.
_POOL_ERRORS = (BrokenProcessPool, OSError, PermissionError, ImportError)

ProgressFn = Callable[[RunRecord, int, int], None]

#: Exponential-backoff schedule for pool rebuilds after worker deaths:
#: ``min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**(rebuilds - 1))``.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0


def validate_specs(specs: list[ScenarioSpec]) -> None:
    """Reject malformed specs before any worker starts.

    Input errors — unknown program or topology names — are bugs in the
    calling experiment, not runtime faults, so they raise immediately
    under *every* failure policy: quarantine must never silently eat a
    typo.  The checks are registry-membership only (no simulator work).
    """
    for spec in specs:
        _require("program", spec.program, PROGRAMS)
        _require("backend", spec.backend, PLANES)
        if spec.program in _POPULATIONS:
            _require("topology", spec.topology, TOPOLOGIES)


def execute_spec_guarded(
    spec: ScenarioSpec, telemetry: bool = False,
    execute: Callable[[ScenarioSpec, bool], RunRecord] | None = None,
    attempt: int = 1,
) -> RunRecord:
    """The process-pool work unit, with failure isolation.

    Runs :func:`execute_spec` (or the injected ``execute`` callable —
    the chaos hooks in the test suite use this) and converts any
    in-worker exception into an ``error``-status :class:`RunRecord`
    instead of letting it tear down the pool.  The original exception
    rides back on the non-persisted ``exception`` field (when picklable)
    so the ``failures="raise"`` policy can re-raise it verbatim.
    """
    work = execute if execute is not None else execute_spec
    started = time.perf_counter()
    try:
        record = work(spec, telemetry)
    except Exception as exc:
        record = RunRecord.failure(
            spec, "error", exc=exc,
            wall_time_s=time.perf_counter() - started, attempts=attempt,
        )
        try:
            pickle.dumps(exc)
        except Exception:
            record.exception = None     # unpicklable: the summary suffices
        return record
    record.attempts = attempt
    return record


class SweepTimeout(TimeoutError):
    """A spec exceeded its wall-clock budget under ``failures="raise"``."""


class SweepRunner:
    """Executes spec lists: cache first, then parallel (or serial) compute.

    * ``jobs`` — worker processes; 1 (default) runs in-process, serially.
    * ``cache`` — a :class:`RunCache` (or a path); hits skip computation
      and completed runs are persisted as soon as they finish.
    * ``progress`` — optional callback ``(record, done, total)``.
    * ``telemetry`` — optional :class:`~repro.obs.Telemetry`; per-run
      records are ingested as they land, plus sweep-level counters
      (cache hits/misses, faults), per-spec wall-time gauges and a
      worker-utilization gauge.  The caller owns the instance.
    * ``failures`` — ``"quarantine"`` (default) turns a failing spec
      into an ``error``/``timeout``-status record and keeps sweeping;
      ``"raise"`` re-raises the first failure (the pre-fault behaviour).
      Input errors (unknown program/topology) raise under both policies.
    * ``retries`` — extra attempts for specs lost to *infrastructure*
      faults (a worker killed by the OOM killer, a broken pool); the
      pool is rebuilt with bounded exponential backoff.  Deterministic
      execution errors are never retried — same spec, same exception.
    * ``spec_timeout`` — per-spec wall-clock budget in seconds; a spec
      still running past it has its worker killed and lands as a
      terminal ``timeout`` record.  ``"auto"`` derives the budget from
      observed runs (10x the slowest fresh ok cell, floor 5s; no
      enforcement until one fresh cell lands).  Enforced on the pool
      path only — a serial (``jobs=1``) run cannot kill itself.
    * ``journal`` — a :class:`~repro.runner.journal.SweepJournal` (or a
      path); every landed cell is appended and fsynced as it finishes,
      making the sweep resumable after a crash (``sweep --resume``).

    Duplicate specs (same :attr:`~ScenarioSpec.spec_hash`) are computed
    once and shared.  If the platform refuses to fork a process pool the
    runner silently degrades to serial execution — results are identical
    either way because every run is rebuilt from its spec.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | str | None = None,
        progress: ProgressFn | None = None,
        telemetry: Telemetry | None = None,
        failures: str = "quarantine",
        retries: int = 2,
        spec_timeout: float | str | None = None,
        journal: "SweepJournal | str | None" = None,
        execute: Callable[[ScenarioSpec, bool], RunRecord] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if failures not in ("quarantine", "raise"):
            raise ValueError(
                f"failures must be 'quarantine' or 'raise', got {failures!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if spec_timeout is not None and spec_timeout != "auto" \
                and float(spec_timeout) <= 0:
            raise ValueError(f"spec_timeout must be > 0, got {spec_timeout}")
        self.jobs = jobs
        self.cache = RunCache(cache) if isinstance(cache, str) else cache
        self.progress = progress
        self.telemetry = telemetry
        self.failures = failures
        self.retries = retries
        self.spec_timeout = spec_timeout
        if isinstance(journal, (str, Path)):
            from .journal import SweepJournal

            journal = SweepJournal(journal)
        self.journal = journal
        self._execute = execute
        #: Slowest fresh-ok wall time seen this run (drives "auto" budgets).
        self._slowest_ok = 0.0

    # -- the outer loop ----------------------------------------------------------

    def run(self, specs: list[ScenarioSpec]) -> list[RunRecord]:
        """Execute every spec, returning records in input order.

        Under the default ``failures="quarantine"`` policy the returned
        list always has one record per spec; check ``record.ok`` (or
        ``record.status``) before using a cell's results.
        """
        validate_specs(specs)
        total = len(specs)
        records: list[RunRecord | None] = [None] * total
        done = 0
        tel = self.telemetry
        sweep_started = time.perf_counter()
        self._slowest_ok = 0.0
        if self.journal is not None:
            self.journal.open(total)

        def notify(record: RunRecord) -> None:
            nonlocal done
            done += 1
            if tel is not None:
                tel.gauge("sweep.spec_wall_s", record.wall_time_s,
                          label=record.label, cached=record.cached,
                          status=record.status)
            if self.progress is not None:
                self.progress(record, done, total)

        try:
            # Cache pass + dedupe: one computation per distinct spec hash.
            to_run: dict[str, ScenarioSpec] = {}
            indices: dict[str, list[int]] = {}
            for i, spec in enumerate(specs):
                key = spec.spec_hash
                if key in indices:
                    indices[key].append(i)
                    continue
                indices[key] = [i]
                cached = self.cache.get(spec) if self.cache is not None \
                    else None
                if cached is not None:
                    records[i] = cached
                    if self.journal is not None:
                        self.journal.record(cached)
                    notify(cached)
                else:
                    to_run[key] = spec
            if tel is not None:
                block = tel.counters("sweep.cache")
                block.inc("hits", len(indices) - len(to_run))
                block.inc("misses", len(to_run))

            computed: dict[str, RunRecord] = {}
            if len(to_run) > 1 and self.jobs > 1:
                computed = self._run_pool(to_run, notify)
            for key, spec in to_run.items():
                if key not in computed:           # serial path / pool fallback
                    record = execute_spec_guarded(
                        spec, tel is not None, self._execute
                    )
                    computed[key] = record
                    self._land(record, notify)

            # Fan results back out to every index (duplicates keep their own
            # label/meta via spec reattachment, and their own progress tick).
            for key, positions in indices.items():
                base = records[positions[0]] \
                    if records[positions[0]] is not None else computed[key]
                for i in positions:
                    if records[i] is None:
                        records[i] = base if specs[i] is base.spec \
                            else replace(base, spec=specs[i])
                        if i != positions[0]:
                            notify(records[i])
        finally:
            if self.journal is not None:
                self.journal.close()
        if tel is not None:
            elapsed = time.perf_counter() - sweep_started
            busy = sum(r.wall_time_s for r in records
                       if r is not None and not r.cached)
            tel.gauge("sweep.wall_s", elapsed, specs=total, jobs=self.jobs)
            if elapsed > 0:
                tel.gauge("sweep.worker_utilization",
                          min(1.0, busy / (elapsed * self.jobs)),
                          jobs=self.jobs)
        return [r for r in records if r is not None]

    # -- landing results ---------------------------------------------------------

    def _land(self, record: RunRecord, notify: Callable[[RunRecord], None]
              ) -> None:
        """One terminal outcome: cache, journal, telemetry, policy."""
        if record.ok:
            if not record.cached:
                self._slowest_ok = max(self._slowest_ok, record.wall_time_s)
            if self.cache is not None:
                self.cache.put(record)
        elif self.telemetry is not None:
            self.telemetry.counters("sweep.fault").inc("quarantined")
            self.telemetry.event(
                "sweep.spec_failed", label=record.label,
                status=record.status,
                error=(record.error or {}).get("type", ""),
            )
        if self.telemetry is not None and record.telemetry:
            self.telemetry.ingest(record.telemetry)
            record.telemetry = []
        if self.journal is not None:
            self.journal.record(record)
        notify(record)
        if not record.ok and self.failures == "raise":
            self._raise(record)

    def _raise(self, record: RunRecord) -> None:
        if record.exception is not None:
            raise record.exception
        error = record.error or {}
        detail = f"{record.label}: {error.get('type')}: {error.get('message')}"
        if record.status == "timeout":
            raise SweepTimeout(detail)
        raise RuntimeError(f"sweep cell failed: {detail}")

    def _current_timeout(self) -> float | None:
        """The live per-spec budget (None while "auto" has no sample)."""
        if self.spec_timeout is None:
            return None
        if self.spec_timeout == "auto":
            if self._slowest_ok <= 0.0:
                return None
            return max(5.0, 10.0 * self._slowest_ok)
        return float(self.spec_timeout)

    # -- the pool path -----------------------------------------------------------

    def _run_pool(
        self, to_run: dict[str, ScenarioSpec],
        notify: Callable[[RunRecord], None],
    ) -> dict[str, RunRecord]:
        """Parallel execution with a watchdog; returns whatever completed
        (possibly nothing if the platform cannot spawn a pool — the
        caller's serial loop fills the gaps).

        The submission window is bounded by ``jobs`` so every inflight
        future is actually *running* — which makes submit time a faithful
        start time, and the per-spec deadline meaningful.  Overdue specs
        get the whole pool generation killed (SIGKILL: a hung worker may
        ignore anything milder), land as terminal ``timeout`` records,
        and the collateral inflight specs are requeued onto a fresh pool.
        A worker death (OOM kill, segfault) breaks the pool for every
        inflight future; all of them are requeued — the culprit is
        indistinguishable from the collateral — with attempts bounded by
        ``retries`` and a bounded exponential backoff between rebuilds.
        """
        tel = self.telemetry
        computed: dict[str, RunRecord] = {}
        queue = deque(to_run.items())
        attempts: dict[str, int] = {key: 0 for key in to_run}
        max_attempts = 1 + self.retries
        rebuilds = 0
        pool = self._new_pool()
        if pool is None:
            return computed
        # future -> (key, spec, started_at) for everything submitted.
        inflight: dict = {}

        def land(record: RunRecord, key: str) -> None:
            computed[key] = record
            try:
                self._land(record, notify)
            except BaseException:
                self._kill_pool(pool)
                raise

        def requeue_lost(key: str, spec: ScenarioSpec) -> None:
            """A worker died under this spec: retry or quarantine."""
            if attempts[key] < max_attempts:
                if tel is not None:
                    tel.counters("sweep.fault").inc("retries")
                queue.append((key, spec))
            else:
                land(RunRecord.failure(
                    spec, "error", attempts=attempts[key],
                    detail=f"worker lost {attempts[key]} times "
                           f"(retries={self.retries} exhausted)",
                ), key)

        try:
            while queue or inflight:
                while queue and len(inflight) < self.jobs:
                    key, spec = queue.popleft()
                    attempts[key] += 1
                    try:
                        future = pool.submit(
                            execute_spec_guarded, spec, tel is not None,
                            self._execute, attempts[key],
                        )
                    except _POOL_ERRORS:
                        attempts[key] -= 1
                        queue.appendleft((key, spec))
                        return computed       # degrade to the serial path
                    inflight[future] = (key, spec, time.monotonic())

                timeout = self._current_timeout()
                wait_s = None
                if timeout is not None and inflight:
                    next_deadline = min(
                        started + timeout
                        for _, _, started in inflight.values()
                    )
                    wait_s = max(0.05, next_deadline - time.monotonic())
                finished, _ = wait(set(inflight), timeout=wait_s,
                                   return_when=FIRST_COMPLETED)

                broken = False
                for future in finished:
                    key, spec, _started = inflight.pop(future)
                    try:
                        record = future.result()
                    except _POOL_ERRORS:
                        broken = True
                        requeue_lost(key, spec)
                        continue
                    record.attempts = attempts[key]
                    land(record, key)

                if broken:
                    # One death poisons the whole generation: every other
                    # inflight future is about to raise BrokenProcessPool
                    # too.  Requeue them all and start a fresh pool.
                    if tel is not None:
                        tel.counters("sweep.fault").inc("worker_lost")
                        tel.flight.dump("worker death", "sweep")
                    for future, (key, spec, _started) in list(
                            inflight.items()):
                        requeue_lost(key, spec)
                    inflight.clear()
                    rebuilds += 1
                    pool = self._rebuild_pool(pool, rebuilds)
                    if pool is None:
                        return computed
                    continue

                timeout = self._current_timeout()
                if timeout is None or not inflight:
                    continue
                now = time.monotonic()
                overdue = {
                    future for future, (_k, _s, started) in inflight.items()
                    if now - started > timeout
                }
                if not overdue:
                    continue
                # Watchdog: kill the generation, record the overdue specs
                # as terminal timeouts, requeue the collateral.
                span = tel.span("sweep.watchdog", overdue=len(overdue)) \
                    if tel is not None else nullcontext()
                with span:
                    self._kill_pool(pool)
                    for future, (key, spec, started) in list(
                            inflight.items()):
                        if future in overdue:
                            if tel is not None:
                                tel.counters("sweep.fault").inc("timeouts")
                            land(RunRecord.failure(
                                spec, "timeout",
                                wall_time_s=now - started,
                                attempts=attempts[key],
                                detail=f"exceeded {timeout:.1f}s "
                                       f"wall-clock budget",
                            ), key)
                        else:
                            requeue_lost(key, spec)
                    inflight.clear()
                    rebuilds += 1
                    pool = self._rebuild_pool(pool, rebuilds,
                                              backoff=False)
                    if pool is None:
                        return computed
        finally:
            self._kill_pool(pool)
        return computed

    # -- pool lifecycle ----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(max_workers=self.jobs)
        except _POOL_ERRORS:
            return None

    def _rebuild_pool(self, old: ProcessPoolExecutor | None, rebuilds: int,
                      backoff: bool = True) -> ProcessPoolExecutor | None:
        if old is not None:
            self._kill_pool(old)
        if backoff:
            time.sleep(min(_BACKOFF_CAP_S,
                           _BACKOFF_BASE_S * 2 ** (rebuilds - 1)))
        return self._new_pool()

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor | None) -> None:
        """Tear a pool down without waiting on its workers.

        SIGKILL, not terminate: a spec stuck in a tight simulation loop
        never reaches a Python signal handler.  Reaches into
        ``pool._processes`` (CPython implementation detail) defensively —
        if the attribute moves, we degrade to a plain shutdown.
        """
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
