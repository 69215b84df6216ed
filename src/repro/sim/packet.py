"""Packets and INT (in-network telemetry) hop records.

Mirrors Figure 7 of the paper: each data packet carries an INT stack; each
switch appends one :class:`IntHop` when the packet is emitted from its egress
port, recording the port bandwidth ``B``, a timestamp ``ts``, the cumulative
transmitted bytes ``tx_bytes``, and the instantaneous queue length ``qlen``.
The receiver moves the stack onto the ACK so the sender sees per-hop load.

``rx_bytes`` (cumulative bytes *enqueued* at the port) is an extension used
only by the HPCC-rxRate design-choice variant (Figure 6).

Allocation discipline
---------------------
Steady-state forwarding allocates (almost) nothing: consumed packets and
hop records go back to module-level freelists (:func:`recycle_packet`,
:func:`recycle_hops`, drawn from by the ``make_*`` factories and
:func:`new_hop`), and :func:`make_ack` *moves* the INT stack from the data
packet to the ACK instead of copying it.  The ownership rules:

* a packet handed to ``EgressPort.enqueue`` belongs to the network until
  the consuming device's ``receive`` runs; the consumer recycles it,
* ``ack.int_hops`` (and the hop records in it) die when the sender-side
  NIC finishes its CC callbacks — CC algorithms must copy any INT state
  they keep across ACKs (``core/hpcc.py`` does),
* test code that builds packets directly via :class:`Packet` and never
  recycles them opts out of pooling entirely.
"""

from __future__ import annotations

import enum
from typing import Optional


class PacketType(enum.IntEnum):
    DATA = 0
    ACK = 1
    NACK = 2
    CNP = 3       # DCQCN congestion notification packet
    PAUSE = 4     # PFC pause frame (link-local)
    RESUME = 5    # PFC resume frame (link-local)


# Wire-size constants, bytes.  A RoCEv2 data packet carries Eth+IP+UDP+BTH
# (~48B of headers); the HPCC INT stack adds up to 42B (Section 5.1, the
# paper's worst-case accounting); control packets are minimum-size frames.
BASE_HEADER = 48
INT_OVERHEAD = 42
ACK_SIZE = 60
CNP_SIZE = 60
PFC_FRAME_SIZE = 64


def data_header(int_enabled: bool) -> int:
    """Header bytes of a data packet: base headers, plus INT space when
    INT is on.  (:func:`make_data_packet` inlines this on the hot path.)"""
    return BASE_HEADER + (INT_OVERHEAD if int_enabled else 0)


def data_wire_factor(mtu: int, int_enabled: bool) -> float:
    """On-wire bytes per payload byte of full-``mtu`` data packets."""
    return (mtu + data_header(int_enabled)) / mtu


class IntHop:
    """One switch's telemetry record, appended at packet emission."""

    __slots__ = ("bandwidth", "ts", "tx_bytes", "qlen", "rx_bytes")

    def __init__(
        self,
        bandwidth: float,
        ts: float,
        tx_bytes: int,
        qlen: int,
        rx_bytes: int = 0,
    ) -> None:
        self.bandwidth = bandwidth    # egress port rate, bytes/ns
        self.ts = ts                  # emission timestamp, ns
        self.tx_bytes = tx_bytes      # cumulative bytes emitted by the port
        self.qlen = qlen              # instantaneous egress queue bytes
        self.rx_bytes = rx_bytes      # cumulative bytes enqueued (extension)

    def copy(self) -> "IntHop":
        return IntHop(self.bandwidth, self.ts, self.tx_bytes, self.qlen, self.rx_bytes)

    def copy_from(self, other: "IntHop") -> None:
        """Overwrite this record in place (allocation-free snapshotting)."""
        self.bandwidth = other.bandwidth
        self.ts = other.ts
        self.tx_bytes = other.tx_bytes
        self.qlen = other.qlen
        self.rx_bytes = other.rx_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntHop(B={self.bandwidth:.3f}B/ns ts={self.ts:.0f} "
            f"tx={self.tx_bytes} q={self.qlen})"
        )


class Packet:
    """A simulated packet.

    ``seq`` is a byte offset (RoCE-style), ``payload`` the number of payload
    bytes, and ``wire_size`` the bytes that occupy links (``payload +
    header``, materialized at construction — links and buffers read it a
    handful of times per hop).  ``ack_seq`` is the cumulative
    acknowledgement carried by ACK/NACK packets.
    """

    __slots__ = (
        "ptype",
        "flow_id",
        "src",
        "dst",
        "seq",
        "payload",
        "header",
        "wire_size",
        "ecn",
        "int_hops",
        "ack_seq",
        "ts_tx",
        "priority",
        "pause_priority",
        "hop_count",
        "_ingress_ref",
    )

    def __init__(
        self,
        ptype: PacketType,
        flow_id: int,
        src: int,
        dst: int,
        seq: int = 0,
        payload: int = 0,
        header: int = BASE_HEADER,
        priority: int = 0,
    ) -> None:
        self.ptype = ptype
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.payload = payload
        self.header = header
        self.wire_size = payload + header
        self.ecn = False
        self.int_hops: Optional[list[IntHop]] = None
        self.ack_seq = 0
        self.ts_tx = 0.0            # sender timestamp, echoed for RTT (TIMELY)
        self.priority = priority
        self.pause_priority = 0     # which priority a PAUSE/RESUME targets
        self.hop_count = 0
        self._ingress_ref = None    # (switch-local) ingress accounting token

    def add_int_hop(self, hop: IntHop) -> None:
        if self.int_hops is None:
            self.int_hops = []
        self.int_hops.append(hop)
        self.hop_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.ptype.name} flow={self.flow_id} seq={self.seq} "
            f"payload={self.payload} {self.src}->{self.dst})"
        )


# -- freelists ----------------------------------------------------------------

_packet_pool: list[Packet] = []
_hop_pool: list[IntHop] = []
_PACKET_POOL_CAP = 8192
_HOP_POOL_CAP = 16384


def recycle_packet(pkt: Packet) -> None:
    """Return a consumed packet to the freelist.

    Callers must be the packet's final owner (see the ownership rules in
    the module docstring).  A still-populated INT stack is dropped rather
    than recycled — use :func:`recycle_hops` first when the hop records
    are known dead too.
    """
    if len(_packet_pool) >= _PACKET_POOL_CAP:
        return
    hops = pkt.int_hops
    if hops:                       # non-empty stack: hop ownership unknown
        pkt.int_hops = None
    pkt._ingress_ref = None
    _packet_pool.append(pkt)


def recycle_hops(pkt: Packet) -> None:
    """Return a packet's dead INT hop records to the freelist."""
    hops = pkt.int_hops
    if hops:
        if len(_hop_pool) < _HOP_POOL_CAP:
            _hop_pool.extend(hops)
        hops.clear()


def new_hop(
    bandwidth: float, ts: float, tx_bytes: int, qlen: int, rx_bytes: int = 0
) -> IntHop:
    """Pool-aware :class:`IntHop` constructor (the switch emission path)."""
    pool = _hop_pool
    if pool:
        hop = pool.pop()
        hop.bandwidth = bandwidth
        hop.ts = ts
        hop.tx_bytes = tx_bytes
        hop.qlen = qlen
        hop.rx_bytes = rx_bytes
        return hop
    return IntHop(bandwidth, ts, tx_bytes, qlen, rx_bytes)


def _new_packet(
    ptype: PacketType,
    flow_id: int,
    src: int,
    dst: int,
    seq: int,
    payload: int,
    header: int,
) -> Packet:
    """Pool-aware packet constructor: every field is (re)initialized."""
    pool = _packet_pool
    if not pool:
        return Packet(
            ptype, flow_id, src, dst, seq=seq, payload=payload, header=header
        )
    pkt = pool.pop()
    pkt.ptype = ptype
    pkt.flow_id = flow_id
    pkt.src = src
    pkt.dst = dst
    pkt.seq = seq
    pkt.payload = payload
    pkt.header = header
    pkt.wire_size = payload + header
    pkt.ecn = False
    pkt.ack_seq = 0
    pkt.ts_tx = 0.0
    pkt.priority = 0
    pkt.pause_priority = 0
    pkt.hop_count = 0
    # int_hops is None or an empty (cleared) list from the previous life;
    # _ingress_ref was cleared at recycle time.
    return pkt


def make_data_packet(
    flow_id: int,
    src: int,
    dst: int,
    seq: int,
    payload: int,
    int_enabled: bool,
    now: float,
) -> Packet:
    """Build a data packet, reserving INT header space when INT is on."""
    header = BASE_HEADER + (INT_OVERHEAD if int_enabled else 0)
    pkt = _new_packet(PacketType.DATA, flow_id, src, dst, seq, payload, header)
    if int_enabled:
        if pkt.int_hops is None:
            pkt.int_hops = []
    else:
        pkt.int_hops = None
    pkt.ts_tx = now
    return pkt


def make_ack(data: Packet, ack_seq: int, now: float, nack: bool = False) -> Packet:
    """Build the ACK (or NACK) for a received data packet.

    *Moves* the INT stack (the data packet is dead once its ACK exists)
    and copies the ECN mark back to the sender, and echoes the sender
    timestamp for RTT measurement.
    """
    ptype = PacketType.NACK if nack else PacketType.ACK
    hops = data.int_hops
    header = ACK_SIZE + (INT_OVERHEAD if hops is not None else 0)
    ack = _new_packet(ptype, data.flow_id, data.dst, data.src, data.seq, 0, header)
    ack.ack_seq = ack_seq
    ack.ecn = data.ecn
    ack.ts_tx = data.ts_tx
    if hops is not None:
        ack.int_hops = hops
        data.int_hops = None
    else:
        ack.int_hops = None        # a pooled packet may carry an empty list
    return ack


def make_cnp(flow_id: int, src: int, dst: int) -> Packet:
    """Build a DCQCN congestion-notification packet (receiver -> sender)."""
    pkt = _new_packet(PacketType.CNP, flow_id, src, dst, 0, 0, CNP_SIZE)
    pkt.int_hops = None
    return pkt


def make_pause(priority: int, pause: bool) -> Packet:
    """Build a link-local PFC pause/resume frame."""
    ptype = PacketType.PAUSE if pause else PacketType.RESUME
    pkt = _new_packet(ptype, -1, -1, -1, 0, 0, PFC_FRAME_SIZE)
    pkt.int_hops = None
    pkt.pause_priority = priority
    return pkt
