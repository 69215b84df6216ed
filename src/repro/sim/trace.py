"""Opt-in packet event tracing (the ns-3 ASCII-trace equivalent).

Attach a :class:`PacketTracer` to a network to record per-packet events —
send, receive, ACK, drop, PFC — with timestamps, for debugging CC
behaviour at packet granularity or feeding external analysis; its one
export is :meth:`PacketTracer.to_jsonl`, in the ``repro.obs`` telemetry
schema.  Tracing is off unless attached, so the hot path stays clean.

>>> tracer = PacketTracer.attach(net)           # doctest: +SKIP
>>> net.run_until_done(deadline=1e6)            # doctest: +SKIP
>>> tracer.events[0]                            # doctest: +SKIP
TraceEvent(t=0.0, kind='send', flow_id=1, seq=0, size=1000, node=0)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .packet import Packet, PacketType


@dataclass(frozen=True)
class TraceEvent:
    t: float
    kind: str           # 'send' | 'recv' | 'ack' | 'nack' | 'cnp' | 'drop' | 'pause' | 'resume'
    flow_id: int
    seq: int
    size: int
    node: int


_KIND_BY_TYPE = {
    PacketType.DATA: "recv",
    PacketType.ACK: "ack",
    PacketType.NACK: "nack",
    PacketType.CNP: "cnp",
    PacketType.PAUSE: "pause",
    PacketType.RESUME: "resume",
}


@dataclass
class PacketTracer:
    """Records packet events from every NIC plus drops from the metrics hub.

    Use :meth:`attach` — it wraps the NIC receive/emit paths and the
    metrics drop hook without the simulator knowing tracing exists.
    """

    events: list[TraceEvent] = field(default_factory=list)
    max_events: int | None = None

    @classmethod
    def attach(cls, net, max_events: int | None = None) -> "PacketTracer":
        tracer = cls(max_events=max_events)
        sim = net.sim
        for host_id, nic in net.nics.items():
            tracer._wrap_nic(nic, sim)
        original_drop = net.metrics.record_drop

        def record_drop(pkt, device_id):
            tracer._record(sim.now, "drop", pkt, device_id)
            original_drop(pkt, device_id)

        net.metrics.record_drop = record_drop
        return tracer

    # -- recording -------------------------------------------------------------

    def _record(self, now: float, kind: str, pkt: Packet, node: int) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            return
        self.events.append(TraceEvent(
            t=now, kind=kind, flow_id=pkt.flow_id, seq=pkt.seq,
            size=pkt.wire_size, node=node,
        ))

    def _wrap_nic(self, nic, sim) -> None:
        original_receive = nic.receive

        def receive(pkt, in_port):
            kind = _KIND_BY_TYPE.get(pkt.ptype, "recv")
            self._record(sim.now, kind, pkt, nic.node_id)
            original_receive(pkt, in_port)

        nic.receive = receive

        original_send = nic._send_data

        def send_data(flow, seq, payload, now):
            original_send(flow, seq, payload, now)
            fake = Packet(PacketType.DATA, flow.spec.flow_id,
                          nic.node_id, flow.spec.dst,
                          seq=seq, payload=payload)
            self._record(now, "send", fake, nic.node_id)

        nic._send_data = send_data

    # -- querying --------------------------------------------------------------

    def for_flow(self, flow_id: int) -> list[TraceEvent]:
        return [e for e in self.events if e.flow_id == flow_id]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def to_jsonl(self, path: str | Path, run_id: str = "packet-trace") -> int:
        """Export in the ``repro.obs`` telemetry schema; returns the
        event count.

        Each trace event becomes an ``event`` record named
        ``trace.<kind>`` with the packet fields as labels, so packet
        traces land in the same tooling format as run telemetry
        (``hpcc-repro tele summarize`` reads both).  The timebase is
        the *sim* clock — ``t`` is sim-seconds and ``sim_ns`` the raw
        stamp — which the meta header declares via
        ``labels["timebase"]``.
        """
        from ..obs.schema import meta_record

        meta = meta_record(
            run_id, {"timebase": "sim", "source": "PacketTracer"}
        )
        lines = [json.dumps(meta, separators=(",", ":"), sort_keys=True)]
        for event in self.events:
            record = {
                "kind": "event",
                "name": f"trace.{event.kind}",
                "t": event.t / 1e9,
                "sim_ns": event.t,
                "run_id": run_id,
                "labels": {"flow": event.flow_id, "seq": event.seq,
                           "size": event.size, "node": event.node},
            }
            lines.append(json.dumps(record, separators=(",", ":"),
                                    sort_keys=True))
        Path(path).write_text("\n".join(lines) + "\n")
        return len(self.events)
