"""Packet event tracing."""

import pytest

from repro.network import Network, NetworkConfig
from repro.sim.trace import PacketTracer
from repro.sim.units import MS, US
from repro.topology import star


@pytest.fixture
def traced_run():
    net = Network(star(3, host_rate="100Gbps"),
                  NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
    tracer = PacketTracer.attach(net)
    spec = net.make_flow(0, 2, 10_000)
    net.add_flow(spec)
    assert net.run_until_done(deadline=5 * MS)
    return net, tracer, spec


class TestTracing:
    def test_sends_match_flow_size(self, traced_run):
        net, tracer, spec = traced_run
        sends = [e for e in tracer.for_flow(spec.flow_id)
                 if e.kind == "send"]
        assert len(sends) == 10                      # 10 x 1000B
        assert sends[0].seq == 0
        assert sends[-1].seq == 9_000

    def test_every_send_eventually_received(self, traced_run):
        net, tracer, spec = traced_run
        sent = {e.seq for e in tracer.events if e.kind == "send"}
        received = {e.seq for e in tracer.events if e.kind == "recv"}
        assert sent <= received | sent               # lossless: all arrive
        assert tracer.count("recv") == tracer.count("send")

    def test_acks_flow_back(self, traced_run):
        _, tracer, spec = traced_run
        assert tracer.count("ack") == tracer.count("send")

    def test_timestamps_monotone(self, traced_run):
        _, tracer, _ = traced_run
        times = [e.t for e in tracer.events]
        assert times == sorted(times)

    def test_write_trace_file(self, traced_run, tmp_path):
        _, tracer, _ = traced_run
        path = tmp_path / "trace.jsonl"
        n = tracer.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert n == len(tracer.events) == len(lines) - 1   # + meta header
        assert '"trace.send"' in lines[1] or '"trace.recv"' in lines[1]

    def test_max_events_cap(self):
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        tracer = PacketTracer.attach(net, max_events=5)
        net.add_flow(net.make_flow(0, 2, 50_000))
        net.run_until_done(deadline=5 * MS)
        assert len(tracer.events) == 5

    def test_drop_events_traced(self):
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dctcp", base_rtt=9 * US,
                                    pfc_enabled=False, buffer_bytes=20_000,
                                    rto=200 * US))
        tracer = PacketTracer.attach(net)
        for s in range(3):
            net.add_flow(net.make_flow(s, 3, 100_000))
        net.run_until_done(deadline=100 * MS)
        assert tracer.count("drop") == net.metrics.drop_count
        assert tracer.count("drop") > 0

    def test_pause_resume_events_traced(self):
        """A shallow-buffer incast with PFC on must pause — and every
        pause must be matched by a resume once the queue drains."""
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US,
                                    buffer_bytes=20_000))
        tracer = PacketTracer.attach(net)
        for s in range(3):
            net.add_flow(net.make_flow(s, 3, 100_000))
        assert net.run_until_done(deadline=100 * MS)
        assert tracer.count("pause") > 0
        assert tracer.count("resume") == tracer.count("pause")
        # Pause frames carry no flow payload: they target a port, not a flow.
        kinds = {e.kind for e in tracer.events}
        assert {"pause", "resume"} <= kinds

    def test_cnp_events_traced(self):
        """DCQCN's congestion signal (ECN-echo CNP frames) shows up in
        the trace under its own kind, distinct from plain ACKs."""
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US,
                                    seed=3))
        tracer = PacketTracer.attach(net)
        net.add_flow(net.make_flow(0, 3, 1_000_000, start_time=1_000.0))
        net.add_flow(net.make_flow(1, 3, 700_000, start_time=1_003.0))
        net.add_flow(net.make_flow(2, 3, 500_000, start_time=1_007.0))
        assert net.run_until_done(deadline=5 * MS)
        assert tracer.count("cnp") > 0
        assert tracer.count("cnp") < tracer.count("ack")


class TestJsonlExport:
    def test_to_jsonl_is_schema_valid(self, traced_run, tmp_path):
        import json

        from repro.obs import SCHEMA_NAME, validate_record

        _, tracer, _ = traced_run
        path = tmp_path / "trace.jsonl"
        n = tracer.to_jsonl(path, run_id="trace-test")
        assert n == len(tracer.events)
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1                   # meta header + events
        records = [json.loads(line) for line in lines]
        assert all(validate_record(r) is None for r in records)
        meta, events = records[0], records[1:]
        assert meta["schema"] == SCHEMA_NAME
        assert meta["labels"] == {"timebase": "sim",
                                  "source": "PacketTracer"}
        assert all(r["kind"] == "event" for r in events)
        assert all(r["run_id"] == "trace-test" for r in events)
        assert {r["name"] for r in events} >= {"trace.send", "trace.recv",
                                               "trace.ack"}
        # sim timebase: t is sim-seconds, sim_ns the raw stamp.
        assert all(r["t"] == r["sim_ns"] / 1e9 for r in events)
