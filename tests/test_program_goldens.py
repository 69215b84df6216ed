"""Record goldens for the ``load`` and ``flows`` programs on every backend.

Each case runs one small ``load`` cell and one small ``flows`` cell
through :func:`~repro.runner.execute_spec` and pins the sha256 of the
whole record (``json.dumps(record.to_json(), sort_keys=True)`` without
the host-dependent ``wall_time_s``): spec hash, FCT rows, queue series,
every extras key, ``events_processed``, ``duration_ns`` and
``completed``.  A refactor of the programs, the backends behind them, or
the record assembly that changes any of those bytes fails here.

The cells exercise every program option a record carries:

* ``load`` — Poisson background plus ``incast`` bursts, an
  ``inject_burst`` + ``fail_link``/``restore_link`` timeline (the burst's
  flow ids merge into ``flow_ids``), ``sample_interval`` and
  ``pause_intervals``;
* ``flows`` — ``sample_ports`` (both port kinds), ``windows``,
  ``goodput_bin`` and a ``degrade_link``/``fail_link``/``restore_link``
  timeline.

Cases: packet, fluid, and hybrid with a mixed, an all-foreground and an
all-background partition.  The same cells also check the program's
shape under telemetry: one ``setup``, one ``run`` and one ``collect``
span per cell, and one topology build, inside ``setup``.

The digests must hold on every CPython the suite supports.  From 3.12
on, builtin ``sum()`` over floats is compensated, so no digest input may
come from a float ``sum()`` of three or more inexact terms.  The inputs
were audited for that:

* host rates (``total_capacity`` in flow generation) are 10 Gbps =
  1.25 B/ns, so their sums are exact;
* star paths have two links, so the fluid base-RTT sums
  (``FluidPath``) add two terms, which both summations round alike;
* ``pause_total_ns`` sums PFC pause durations left to right
  (``PauseTracker.total_pause_time``);
* ``drops`` is ``int()`` of the fluid byte total, and these cells drop
  nothing;
* every cell runs HPCC, whose fluid replay uses no ``pow``.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.runner import CcChoice, ScenarioSpec, execute, execute_spec
from repro.sim.units import US

BASE_RTT = 9 * US

#: ``star(6)``: hosts 0..5, switch 6.
LOAD_DYNAMICS = [
    {"type": "inject_burst", "at": 40 * US, "dst": 5, "fan_in": 3,
     "flow_size": 30_000, "tag": "burst"},
    {"type": "fail_link", "at": 60 * US, "a": 0, "b": 6},
    {"type": "restore_link", "at": 90 * US, "a": 0, "b": 6},
]

#: ``star(5)``: hosts 0..4, switch 5.
FLOWS_DYNAMICS = [
    {"type": "degrade_link", "at": 100 * US, "a": 5, "b": 4,
     "rate_factor": 0.5},
    {"type": "fail_link", "at": 200 * US, "a": 3, "b": 5},
    {"type": "restore_link", "at": 300 * US, "a": 3, "b": 5},
]

#: case -> (backend, foreground selector for load, for flows).
CASES = {
    "packet": ("packet", None, None),
    "fluid": ("fluid", None, None),
    "hybrid_mixed": ("hybrid", {"kind": "tag", "tags": ["incast", "burst"]},
                     {"kind": "count", "n": 2}),
    "hybrid_all_fg": ("hybrid", {"kind": "all"}, {"kind": "all"}),
    "hybrid_all_bg": ("hybrid", {"kind": "none"}, {"kind": "none"}),
}


def load_spec(backend: str, selector: dict | None) -> ScenarioSpec:
    workload = {
        "cdf": "fbhadoop", "size_scale": 0.1, "load": 0.5, "n_flows": 30,
        "incast": {"fan_in": 4, "flow_size": 20_000, "load": 0.1},
    }
    if selector is not None:
        workload["foreground"] = selector
    return ScenarioSpec(
        program="load", topology="star",
        topology_params={"n_hosts": 6, "host_rate": "10Gbps",
                         "link_delay": "1us"},
        cc=CcChoice("hpcc"), workload=workload,
        config={"base_rtt": BASE_RTT, "buffer_bytes": 150_000},
        measure={"sample_interval": 20 * US, "pause_intervals": True},
        dynamics={"events": LOAD_DYNAMICS}, seed=3, backend=backend,
    )


def flows_spec(backend: str, selector: dict | None) -> ScenarioSpec:
    workload = {
        "flows": [[0, 4, 300_000, 0.0, "a"], [1, 4, 300_000, 0.0, "b"],
                  [2, 4, 200_000, 50 * US, "c"], [3, 0, 100_000, 0.0, "d"]],
        "deadline": 2e6,
    }
    if selector is not None:
        workload["foreground"] = selector
    return ScenarioSpec(
        program="flows", topology="star",
        topology_params={"n_hosts": 5, "host_rate": "10Gbps",
                         "link_delay": "1us"},
        cc=CcChoice("hpcc"), workload=workload,
        config={"base_rtt": BASE_RTT, "goodput_bin": 50 * US},
        measure={"sample_interval": 20 * US, "windows": True,
                 "sample_ports": [["bottleneck", "to_host", 4],
                                  ["uplink", "between", 0, 5]]},
        dynamics={"events": FLOWS_DYNAMICS}, seed=3, backend=backend,
    )


def record_digest(record) -> str:
    data = record.to_json()
    del data["wall_time_s"]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


def golden_specs() -> dict[str, ScenarioSpec]:
    specs = {}
    for case, (backend, load_sel, flows_sel) in CASES.items():
        specs[f"{case}-load"] = load_spec(backend, load_sel)
        specs[f"{case}-flows"] = flows_spec(backend, flows_sel)
    return specs


#: cell -> record digest, captured before the programs were unified.
GOLDEN: dict[str, str] = {
    "packet-load": "3854c41e906f526ef69d23165be561eaa75bef1b93869754059e0d0455e41a78",
    "packet-flows": "562d5da24bf9ac703905c58f8044dff0202cae226914c1cac86223368c7b6358",
    "fluid-load": "b3a6bd1ec26fc5d0605dd64ce1e86cadc83ec174e2b8248b7a200313559d5599",
    "fluid-flows": "04588e5681ceb4eed2c5b23637cbf49bb7fa8c83ff9687ad8a952693c20e37cc",
    "hybrid_mixed-load": "cc3f40f353a8bf26b84a81b932bd9dd4b1ecaed957f9352f2320154c9c0378b4",
    "hybrid_mixed-flows": "08b79ab399e605280d04403048fdf7f6238a2730959ef7cb1736dd93f91fd0d6",
    "hybrid_all_fg-load": "c99de9486c9735ec012decdf9ba43953eb6404c4a1b9516a964cb965c2aec5d9",
    "hybrid_all_fg-flows": "87220887f9eb7e9b8112b6eb4b4157335875741aeaa0e2988f657e5427da7ed6",
    "hybrid_all_bg-load": "70ff77deedbba63ec438ede77810b021cb2433f54658afe2536ee11fcd250f29",
    "hybrid_all_bg-flows": "a3e48e559ffd5d377a11a0dd169a8772b6d71e8501286a256283639f37cffd69",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_record_golden(cell):
    record = execute_spec(golden_specs()[cell])
    assert record_digest(record) == GOLDEN[cell]


#: Extra set-up time the slowed topology factory adds to every build.
SLOW_BUILD_S = 0.05


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_one_span_set_and_one_topology_build(cell, monkeypatch):
    builds = []
    factory = execute.TOPOLOGIES["star"]

    def slow_star(**params):
        builds.append(params)
        time.sleep(SLOW_BUILD_S)
        return factory(**params)

    monkeypatch.setitem(execute.TOPOLOGIES, "star", slow_star)
    record = execute_spec(golden_specs()[cell], telemetry=True)
    spans = [r for r in record.telemetry if r["kind"] == "span"]
    names = sorted(r["name"] for r in spans)
    assert names == ["collect", "run", "setup", "total"]
    assert len(builds) == 1
    [setup] = [r for r in spans if r["name"] == "setup"]
    assert setup["dur"] >= SLOW_BUILD_S
