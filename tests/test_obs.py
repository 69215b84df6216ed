"""The run-telemetry subsystem (``repro.obs``).

Covers the schema contract, the sinks, the ambient context, the engine
probes, and — most importantly — the two wiring guarantees the
subsystem makes to the rest of the repo:

* **off is a no-op**: with no ``--telemetry``, runs produce zero
  telemetry records and the packet engine's golden determinism
  fixtures are bit-identical (the goldens themselves run telemetry-off
  in ``test_determinism_golden.py``; here we assert the off path leaves
  no residue and the *on* path doesn't perturb results either).
* **on is complete**: spans cover setup/run/collect/total, both
  engines' probes emit their gauge/counter sets, sweep cache stats and
  the flight recorder fire, and every emitted record validates against
  the versioned schema.
"""

import io
import json

import pytest
from test_determinism_golden import GOLDEN, fct_digest

from repro.network import Network, NetworkConfig
from repro.obs import (
    DecisionTap,
    FlightRecorder,
    JsonlSink,
    MemorySink,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Telemetry,
    current,
    instrument_simulator,
    maybe_span,
    meta_record,
    using,
    validate_record,
)
from repro.obs.schema import json_number
from repro.obs.summarize import read_jsonl, summarize_file
from repro.runner import RunCache, ScenarioSpec, SweepRunner
from repro.runner.execute import execute_spec
from repro.sim.units import MS, US
from repro.topology import star


def tiny_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
        workload={"flows": [[0, 2, 40_000], [1, 2, 40_000]],
                  "deadline": 5e6},
        config={"base_rtt": 9 * US},
        seed=1,
        scale="bench",
        label="tiny",
    )
    return spec.replaced(**overrides) if overrides else spec


def tiny_load_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="load",
        topology="star",
        topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
        workload={"cdf": "fbhadoop", "size_scale": 0.1, "load": 0.3,
                  "n_flows": 20},
        config={"base_rtt": 9 * US},
        seed=1,
        scale="bench",
        label="tiny-load",
    )
    return spec.replaced(**overrides) if overrides else spec


def assert_all_valid(records):
    for record in records:
        # Round-trip through JSON so tuples/numpy scalars would surface.
        obj = json.loads(json.dumps(record))
        assert validate_record(obj) is None, (validate_record(obj), record)


class TestSchema:
    def test_json_number_passthrough_and_nonfinite(self):
        assert json_number(1.5) == 1.5
        assert json_number(0) == 0
        assert json_number(float("inf")) == "inf"
        assert json_number(float("-inf")) == "-inf"
        assert json_number(float("nan")) == "nan"

    def test_meta_record_validates(self):
        assert validate_record(meta_record("r1")) is None
        assert validate_record(
            meta_record("r1", {"backend": "fluid"})) is None

    def test_meta_wrong_schema_or_version_rejected(self):
        bad = meta_record("r1")
        bad["schema"] = "other"
        assert "schema" in validate_record(bad)
        bad = meta_record("r1")
        bad["version"] = SCHEMA_VERSION + 1
        assert "version" in validate_record(bad)

    def test_meta_version_1_rejected(self):
        old = meta_record("r1")
        old["version"] = 1
        assert "version" in validate_record(old)

    def test_unknown_kind_rejected(self):
        assert "kind" in validate_record({"kind": "tracepoint"})
        assert validate_record([1, 2]) == "record is not an object"

    def test_required_fields_per_kind(self):
        base = {"name": "x", "run_id": "r", "t": 0.0}
        assert validate_record({**base, "kind": "gauge"}) is not None
        assert validate_record(
            {**base, "kind": "gauge", "value": 3}) is None
        assert validate_record(
            {**base, "kind": "counter", "value": "nan"}) is None
        assert validate_record({**base, "kind": "event"}) is None
        assert validate_record(
            {**base, "kind": "span", "dur": -1.0}) == "span dur is negative"
        assert validate_record(
            {**base, "kind": "hist", "buckets": {"a": 1}}) is None
        assert validate_record(
            {**base, "kind": "hist", "buckets": {"a": "x"}}) is not None

    def test_bool_is_not_a_number(self):
        base = {"name": "x", "run_id": "r", "kind": "gauge", "value": True}
        assert validate_record({**base, "t": 0.0}) is not None

    def test_labels_must_be_flat_scalars(self):
        base = {"kind": "event", "name": "x", "run_id": "r", "t": 0.0}
        assert validate_record({**base, "labels": {"k": "v"}}) is None
        assert validate_record(
            {**base, "labels": {"k": [1]}}) is not None


class TestSinks:
    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "sub" / "t.jsonl"        # parent auto-created
        sink = JsonlSink(path)
        sink.write(meta_record("r1"))
        sink.write({"kind": "event", "name": "e", "run_id": "r1", "t": 0.0})
        sink.close()
        sink.write({"kind": "event"})              # post-close: dropped
        records, errors = read_jsonl(path)
        assert not errors and len(records) == 2
        assert records[0]["schema"] == SCHEMA_NAME

    def test_memory_sink_drain_empties(self):
        sink = MemorySink()
        sink.write({"a": 1})
        assert sink.drain() == [{"a": 1}]
        assert sink.drain() == []

    def test_flight_recorder_ring_and_dump(self):
        flight = FlightRecorder(maxlen=4)
        for i in range(10):
            flight.write({"kind": "event", "name": f"e{i}",
                          "run_id": "r", "t": 0.0})
        assert len(flight.ring) == 4
        stream = io.StringIO()
        flight.dump("test", "r", stream=stream, limit=2)
        text = stream.getvalue()
        assert "--- flight recorder [r] (test; last 2 of 4 records) ---" in text
        assert '"name":"e9"' in text and '"name":"e5"' not in text


class TestTelemetry:
    def test_meta_header_then_records_all_valid(self):
        tel = Telemetry(run_id="r1", labels={"backend": "packet"})
        tel.gauge("g", 1.25, sim_ns=100.0, scope="test")
        tel.hist("h", {"a": 1, "b": float("inf")})
        tel.event("e")
        with tel.span("phase", stage="x"):
            pass
        tel.counters("blk").inc("n", 3)
        tel.count("top")
        records = tel.drain()
        assert records[0]["kind"] == "meta"
        assert records[0]["labels"] == {"backend": "packet"}
        assert_all_valid(records)
        by_kind = {}
        for record in records:
            by_kind.setdefault(record["kind"], []).append(record)
        assert {r["name"]: r["value"] for r in by_kind["counter"]} == {
            "blk.n": 3, "top": 1}
        assert by_kind["gauge"][0]["labels"] == {"scope": "test"}
        assert all(r["run_id"] == "r1" for r in records[1:])

    def test_span_records_error_label_on_exception(self):
        tel = Telemetry(run_id="r1")
        with pytest.raises(ValueError):
            with tel.span("boom"):
                raise ValueError("x")
        records = tel.drain()
        span = next(r for r in records if r["kind"] == "span")
        assert span["labels"]["error"] == "ValueError"
        assert span["dur"] >= 0

    def test_close_is_idempotent_and_counters_flush_once(self):
        tel = Telemetry(run_id="r1")
        tel.count("n")
        tel.close()
        tel.close()
        records = tel.sink.drain()
        assert sum(1 for r in records if r["kind"] == "counter") == 1

    def test_ingest_preserves_foreign_run_id(self):
        worker = Telemetry(run_id="worker-1")
        worker.event("w")
        parent = Telemetry(run_id="parent")
        parent.ingest(worker.drain())
        records = parent.drain()
        assert [r["run_id"] for r in records] == [
            "parent", "worker-1", "worker-1"]

    def test_every_emit_feeds_the_flight_ring(self):
        tel = Telemetry(run_id="r1")
        tel.event("e1")
        tel.event("e2")
        assert [r["name"] for r in tel.flight.ring] == ["e1", "e2"]


class TestAmbientContext:
    def test_using_sets_and_restores(self):
        assert current() is None
        tel = Telemetry(run_id="r1")
        with using(tel):
            assert current() is tel
            with using(None):
                assert current() is None
            assert current() is tel
        assert current() is None

    def test_maybe_span_is_noop_without_ambient(self):
        with maybe_span("anything", k="v"):
            pass                                   # must not raise or emit

    def test_maybe_span_emits_against_ambient(self):
        tel = Telemetry(run_id="r1")
        with using(tel), maybe_span("phase", k="v"):
            pass
        spans = [r for r in tel.drain() if r["kind"] == "span"]
        assert spans and spans[0]["name"] == "phase"
        assert spans[0]["labels"] == {"k": "v"}


class TestGoldenDeterminismWithTelemetry:
    """Attaching a probe must not change what the engine computes."""

    def test_hpcc_golden_bit_identical_with_probe(self):
        expected_events, expected_digest = GOLDEN["hpcc"]
        net = Network(
            star(4, host_rate="100Gbps"),
            NetworkConfig(cc_name="hpcc", base_rtt=9 * US, seed=3),
        )
        tel = Telemetry(run_id="golden")
        probe = instrument_simulator(net.sim, tel, every=8)
        net.add_flow(net.make_flow(0, 3, 1_000_000, start_time=1_000.0))
        net.add_flow(net.make_flow(1, 3, 700_000, start_time=1_003.0))
        net.add_flow(net.make_flow(2, 3, 500_000, start_time=1_007.0))
        assert net.run_until_done(deadline=5 * MS)
        probe.finish(net.sim)
        records = tel.drain()

        assert net.sim.events_processed == expected_events
        assert fct_digest(net.metrics.fct_records) == expected_digest
        assert_all_valid(records)
        gauges = {r["name"] for r in records if r["kind"] == "gauge"}
        assert {"sim.heap_depth", "sim.pending_events", "sim.events_per_s",
                "sim.sim_wall_ratio", "sim.wall_s"} <= gauges
        counters = {r["name"]: r["value"] for r in records
                    if r["kind"] == "counter"}
        assert counters["sim.events_processed"] == expected_events
        assert counters["sim.run_calls"] == probe.run_calls


#: Decision-record vocabulary per scheme (see docs/observability.md).
DECISION_BRANCHES = {
    "hpcc": {"MI", "AI"},
    "hpcc-perack": {"MI", "AI"},
    "hpcc-perrtt": {"MI", "AI"},
    "dcqcn": {"md", "fast_recovery", "additive", "hyper"},
    "timely": {"ai_low", "md_high", "ai_gradient", "hai", "md_gradient"},
    "dctcp": {"ai", "md"},
}


#: Scheme knobs that make the tiny incast actually exercise the control
#: law (DCQCN's stock Kmin, port-scaled to 100G, sits above the queue
#: this short run builds, so CNPs would never fire).
DECISION_CC_PARAMS = {
    "dcqcn": {"kmin": 40_000, "kmax": 160_000},
}


def incast_tap(scheme: str) -> DecisionTap:
    """Run a 2-to-1 packet incast under ``scheme`` with a tap attached."""
    net = Network(
        star(4, host_rate="100Gbps"),
        NetworkConfig(cc_name=scheme, base_rtt=9 * US, seed=3,
                      cc_params=DECISION_CC_PARAMS.get(scheme, {})),
    )
    tap = DecisionTap()
    net.decision_tap = tap
    net.add_flow(net.make_flow(0, 3, 500_000, start_time=1_000.0))
    net.add_flow(net.make_flow(1, 3, 400_000, start_time=1_003.0))
    assert net.run_until_done(deadline=5 * MS)
    return tap


class TestDecisionTap:
    def test_flow_trace_ring_evicts_and_counts(self):
        tap = DecisionTap(maxlen=3)
        trace = tap.trace(1, "hpcc")
        for i in range(5):
            trace.record(float(i), "ack", "AI", 1.0, None, 2.0, None, {})
        assert len(trace.ring) == 3
        assert trace.dropped == 2
        assert tap.total_recorded == 3
        assert tap.total_dropped == 2
        # Oldest evicted: the ring holds the latest window of activity.
        assert [d["sim_ns"] for d in trace.decisions()] == [2.0, 3.0, 4.0]

    def test_trace_is_per_flow_and_cached(self):
        tap = DecisionTap()
        assert tap.trace(1, "hpcc") is tap.trace(1, "hpcc")
        assert tap.trace(1, "hpcc") is not tap.trace(2, "hpcc")

    @pytest.mark.parametrize("scheme", sorted(DECISION_BRANCHES))
    def test_packet_capture_per_scheme(self, scheme):
        tap = incast_tap(scheme)
        assert tap.total_recorded > 0
        decisions = tap.decisions()
        assert len({d["flow"] for d in decisions}) == 2
        for dec in decisions:
            assert dec["scheme"] == scheme
            if dec["event"] == "install":       # line-rate start anchor
                assert dec["branch"] is None
            else:
                assert dec["branch"] in DECISION_BRANCHES[scheme]
            assert dec["rate_after"] > 0
            assert isinstance(dec["inputs"], dict)
        assert any(d["event"] != "install" for d in decisions)

    def test_hpcc_decisions_carry_bottleneck_attribution(self):
        tap = incast_tap("hpcc")
        hops = [d["inputs"]["bottleneck_hop"] for d in tap.decisions()
                if "bottleneck_hop" in d["inputs"]]
        assert hops and all(hop >= 0 for hop in hops)

    def test_export_decisions_validates_and_orders(self):
        tap = incast_tap("hpcc")
        tel = Telemetry(run_id="r1")
        n = tel.export_decisions(tap)
        records = tel.drain()
        decisions = [r for r in records if r["kind"] == "decision"]
        assert len(decisions) == n == tap.total_recorded
        assert_all_valid(records)
        keys = [(d["sim_ns"], d["flow"]) for d in decisions]
        assert keys == sorted(keys)
        assert not any(r["name"] == "decisions_dropped" for r in records
                       if r["kind"] == "event")

    def test_export_surfaces_ring_evictions(self):
        tap = DecisionTap(maxlen=2)
        trace = tap.trace(1, "hpcc")
        for i in range(5):
            trace.record(float(i), "ack", "AI", 1.0, None,
                         2.0, None, {"u": 0.5})
        tel = Telemetry(run_id="r1")
        assert tel.export_decisions(tap) == 2
        events = [r for r in tel.drain() if r["kind"] == "event"]
        assert any(r["name"] == "decisions_dropped"
                   and r["labels"]["dropped"] == 3 for r in events)

    def test_export_encodes_nonfinite_inputs(self):
        tap = DecisionTap()
        tap.trace(1, "hpcc").record(
            0.0, "ack", "AI", float("inf"), None, 1.0, None,
            {"u": float("nan"), "wc": 2.0})
        tel = Telemetry(run_id="r1")
        tel.export_decisions(tap)
        [dec] = [r for r in tel.drain() if r["kind"] == "decision"]
        assert dec["rate_before"] == "inf"
        assert dec["inputs"] == {"u": "nan", "wc": 2.0}
        assert_all_valid([dec])

    def test_execute_spec_decisions_both_backends(self):
        for backend in ("packet", "fluid"):
            spec = tiny_spec(backend=backend)
            record = execute_spec(spec, decisions=True)
            assert record.completed
            assert_all_valid(record.telemetry)
            decisions = [r for r in record.telemetry
                         if r["kind"] == "decision"]
            assert decisions, backend
            assert {d["scheme"] for d in decisions} == {"hpcc"}

    def test_decisions_do_not_perturb_results(self):
        for backend in ("packet", "fluid"):
            spec = tiny_spec(backend=backend)
            off = execute_spec(spec)
            on = execute_spec(spec, decisions=True)
            assert off.fct == on.fct, backend
            assert off.duration_ns == on.duration_ns, backend

    def test_golden_bit_identical_with_tap(self):
        expected_events, expected_digest = GOLDEN["hpcc"]
        net = Network(
            star(4, host_rate="100Gbps"),
            NetworkConfig(cc_name="hpcc", base_rtt=9 * US, seed=3),
        )
        net.decision_tap = DecisionTap()
        net.add_flow(net.make_flow(0, 3, 1_000_000, start_time=1_000.0))
        net.add_flow(net.make_flow(1, 3, 700_000, start_time=1_003.0))
        net.add_flow(net.make_flow(2, 3, 500_000, start_time=1_007.0))
        assert net.run_until_done(deadline=5 * MS)
        assert net.sim.events_processed == expected_events
        assert fct_digest(net.metrics.fct_records) == expected_digest
        assert net.decision_tap.total_recorded > 0


class TestExecuteSpecTelemetry:
    def test_off_path_leaves_no_records(self):
        record = execute_spec(tiny_spec())
        assert record.telemetry == []
        assert current() is None

    def test_packet_run_emits_spans_and_engine_counters(self):
        record = execute_spec(tiny_spec(), telemetry=True)
        assert record.completed
        assert_all_valid(record.telemetry)
        assert record.telemetry[0]["kind"] == "meta"
        spans = {r["name"] for r in record.telemetry if r["kind"] == "span"}
        assert {"setup", "run", "collect", "total"} <= spans
        counters = {r["name"] for r in record.telemetry
                    if r["kind"] == "counter"}
        assert {"sim.events_processed", "sim.run_calls"} <= counters

    def test_fluid_run_emits_fluid_probe_set(self):
        record = execute_spec(tiny_spec(backend="fluid"), telemetry=True)
        assert record.completed
        assert_all_valid(record.telemetry)
        counters = {r["name"] for r in record.telemetry
                    if r["kind"] == "counter"}
        assert {"fluid.steps", "fluid.flow_steps",
                "fluid.flows_finished"} <= counters
        spans = {r["name"] for r in record.telemetry if r["kind"] == "span"}
        assert {"setup", "run", "collect", "total"} <= spans

    def test_fluid_probe_samples_working_set(self):
        # Sampled mid-run, the working-set gauges equal a recount over
        # the live rows: the row block includes not-yet-compacted dead
        # rows, the touched links are those some live row routes over.
        from repro.fluid import FluidEngine
        from repro.obs.probes import FluidProbe
        from repro.sim.flow import FlowSpec
        from repro.topology.fattree import bench_fattree

        engine = FluidEngine(bench_fattree(), cc_name="hpcc",
                             base_rtt=9 * US)
        engine.add_flows(
            FlowSpec(i, src=i % 8, dst=8 + (i * 3) % 8, size=200_000,
                     start_time=i * 5_000.0)
            for i in range(40)
        )
        tel = Telemetry(run_id="r1")
        probe = FluidProbe(tel)
        seen = []
        for deadline in (60_000.0, 120_000.0, 200_000.0):
            engine.run(deadline=deadline)
            probe.sample(engine)
            alive = engine._alive[:engine._n]
            live_links = {
                link.index for flow, a in zip(engine._flows, alive) if a
                for link in flow.path.links
            }
            records = tel.drain()
            assert_all_valid(records)
            gauges = {r["name"]: r["value"] for r in records
                      if r["kind"] == "gauge"}
            assert gauges["fluid.rows"] == engine._n >= engine._alive_n
            assert gauges["fluid.touched_links"] == len(live_links)
            seen.append(gauges["fluid.touched_links"])
        assert max(seen) > 0

    def test_fluid_results_identical_on_and_off(self):
        spec = tiny_spec(backend="fluid")
        off = execute_spec(spec)
        on = execute_spec(spec, telemetry=True)
        assert off.fct == on.fct
        assert off.completed == on.completed
        assert off.duration_ns == on.duration_ns

    def test_packet_results_identical_on_and_off(self):
        spec = tiny_spec()
        off = execute_spec(spec)
        on = execute_spec(spec, telemetry=True)
        assert off.fct == on.fct
        assert off.duration_ns == on.duration_ns

    def test_deadline_overrun_dumps_flight_recorder(self, capsys):
        # A load cell whose drain budget (deadline_factor x the arrival
        # window) runs out before its flows finish: a real overrun.
        spec = tiny_load_spec(**{"workload.deadline_factor": 0.01})
        record = execute_spec(spec, telemetry=True)
        assert not record.completed
        err = capsys.readouterr().err
        assert "--- flight recorder [tiny-load] (deadline overrun" in err
        events = [r for r in record.telemetry if r["kind"] == "event"]
        assert any(r["name"] == "run.deadline_overrun" for r in events)
        assert not any(r["name"] == "run.horizon_reached" for r in events)

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_explicit_horizon_is_not_an_overrun(self, backend, capsys):
        # A flows cell stopping at its explicit deadline is bounded by
        # design (every fig13 cell): an event, no incident, no dump.
        spec = tiny_spec(backend=backend, **{"workload.deadline": 10_000.0})
        record = execute_spec(spec, telemetry=True)
        assert not record.completed
        assert "flight recorder" not in capsys.readouterr().err
        names = {r["name"] for r in record.telemetry if r["kind"] == "event"}
        assert "run.horizon_reached" in names
        assert "run.deadline_overrun" not in names

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_fig13_cells_raise_no_incident(self, backend, capsys):
        from repro.experiments import figure13

        for spec in figure13.scenarios(scale="bench"):
            record = execute_spec(spec.replaced(backend=backend),
                                  telemetry=True)
            assert not record.completed
            names = {r["name"] for r in record.telemetry
                     if r["kind"] == "event"}
            assert names & {"run.deadline_overrun", "run.exception"} == set()
            assert "run.horizon_reached" in names
        assert "flight recorder" not in capsys.readouterr().err


class TestSweepTelemetry:
    def test_cache_hit_miss_counters_and_sweep_gauges(self, tmp_path):
        specs = [tiny_spec(), tiny_spec(label="tiny2", seed=2)]
        cache = RunCache(tmp_path)

        tel = Telemetry(run_id="sweep-1")
        SweepRunner(cache=cache, telemetry=tel).run(specs)
        first = tel.drain()
        counters = {r["name"]: r["value"] for r in first
                    if r["kind"] == "counter"}
        assert counters["sweep.cache.hits"] == 0
        assert counters["sweep.cache.misses"] == 2
        gauges = {r["name"] for r in first if r["kind"] == "gauge"}
        assert {"sweep.spec_wall_s", "sweep.wall_s",
                "sweep.worker_utilization"} <= gauges
        # Worker records were ingested under their own run ids.
        assert {r["run_id"] for r in first} >= {
            "sweep-1", specs[0].spec_hash, specs[1].spec_hash}

        tel = Telemetry(run_id="sweep-2")
        records = SweepRunner(cache=cache, telemetry=tel).run(specs)
        assert all(r.cached for r in records)
        counters = {r["name"]: r["value"] for r in tel.drain()
                    if r["kind"] == "counter"}
        assert counters["sweep.cache.hits"] == 2
        assert counters["sweep.cache.misses"] == 0

    def test_records_cross_the_process_pool(self, tmp_path):
        tel = Telemetry(run_id="sweep-par")
        records = SweepRunner(jobs=2, telemetry=tel).run(
            [tiny_spec(), tiny_spec(label="tiny2", seed=2)])
        drained = tel.drain()
        assert all(r.telemetry == [] for r in records)   # ingested + cleared
        spans = [r for r in drained if r["kind"] == "span"]
        assert {r["run_id"] for r in spans} == {
            records[0].spec_hash, records[1].spec_hash}
        assert_all_valid(drained)


class TestSummarize:
    def test_summarize_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(run_id="r1", sink=JsonlSink(path))
        with tel.span("total"):
            tel.gauge("g", 2.0)
            tel.event("e")
            tel.hist("h", {"a": 1})
        tel.count("n", 5)
        tel.close()
        text, status = summarize_file(path)
        assert status == 0
        assert "total" in text and "n" in text and "g" in text

    def test_invalid_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [json.dumps(meta_record("r1")), "{not json", '{"kind":"x"}']
        path.write_text("\n".join(lines) + "\n")
        records, errors = read_jsonl(path)
        assert len(records) == 1 and len(errors) == 2
        text, status = summarize_file(path)
        assert status == 0 and "invalid lines skipped: 2" in text

    def test_empty_or_missing_file_fails(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        _, status = summarize_file(path)
        assert status == 1
        _, status = summarize_file(tmp_path / "absent.jsonl")
        assert status == 1

    def test_torn_tail_from_killed_run_tolerated(self, tmp_path):
        """A run killed mid-write leaves half a line; readers keep going."""
        path = tmp_path / "t.jsonl"
        tel = Telemetry(run_id="r1", sink=JsonlSink(path))
        tel.event("before_the_crash")
        tel.close()
        whole = path.read_text()
        path.write_text(whole + whole[: len(whole) // 3].rstrip("\n"))
        records, errors = read_jsonl(path)
        assert [r["kind"] for r in records] == ["meta", "event"]
        assert len(errors) == 1
        text, status = summarize_file(path)
        assert status == 0 and "before_the_crash" in text

    def test_unknown_future_kind_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            json.dumps(meta_record("r1")),
            json.dumps({"kind": "holo_trace", "name": "x",
                        "run_id": "r1", "t": 0.0}),
            json.dumps({"kind": "event", "name": "e",
                        "run_id": "r1", "t": 0.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        records, errors = read_jsonl(path)
        assert len(records) == 2 and len(errors) == 1
        assert "kind" in errors[0][1]

    def test_decisions_section_in_text_and_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(run_id="r1", sink=JsonlSink(path))
        tap = DecisionTap()
        trace = tap.trace(1, "hpcc")
        trace.record(5.0, "ack", "AI", 1.0, None, 2.0, None, {"u": 0.5})
        trace.record(9.0, "ack", "MI", 2.0, None, 3.0, None, {"u": 1.5})
        tap.trace(2, "hpcc").record(7.0, "ack", "AI", 1.0, None,
                                    1.5, None, {"u": 0.2})
        tel.export_decisions(tap)
        tel.close()
        text, status = summarize_file(path)
        assert status == 0
        assert "decisions (scheme" in text
        assert "AI=2" in text and "MI=1" in text

        out, status = summarize_file(path, as_json=True)
        assert status == 0
        doc = json.loads(out)
        assert doc["decisions"]["hpcc"] == {
            "count": 3, "flows": 2, "branches": {"AI": 2, "MI": 1}}

    def test_summarize_json_aggregates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(run_id="r1", sink=JsonlSink(path),
                        labels={"backend": "packet"})
        with tel.span("total"):
            tel.gauge("g", 2.0)
            tel.gauge("g", 4.0)
            tel.event("e")
            tel.hist("h", {"a": 1})
        tel.count("n", 5)
        tel.close()
        out, status = summarize_file(path, as_json=True)
        assert status == 0
        doc = json.loads(out)
        assert doc["runs"] == {"r1": {"backend": "packet"}}
        assert doc["counters"]["n"] == 5
        assert doc["gauges"]["g"] == {
            "samples": 2, "min": 2.0, "mean": 3.0, "max": 4.0}
        assert doc["spans"]["total"]["count"] == 1
        assert doc["events"] == {"e": 1}
        assert doc["invalid_lines"] == []

    def test_summarize_json_error_paths(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out, status = summarize_file(path, as_json=True)
        assert status == 1 and "error" in json.loads(out)
