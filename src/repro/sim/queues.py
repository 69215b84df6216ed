"""Egress ports: FIFO queueing, serialization, PFC pause, INT counters.

A port serializes one packet at a time at its configured rate; the link then
adds propagation delay.  PFC pause frames travel through a small control
queue that is served ahead of data and is never paused, matching how real
switches emit PFC at the highest priority.

The port keeps the counters INT exposes (Figure 7): cumulative transmitted
bytes (``tx_bytes``) and instantaneous queue length (``qlen_bytes``), plus
the cumulative *enqueued* bytes (``rx_bytes``) used by the HPCC-rxRate
design-choice variant.

Fused transmission path
-----------------------
Serialization start is the only synchronous step: the packet is dequeued,
INT-stamped (``on_emit``) and its arrival at the peer scheduled in one go
(``Link.transmit`` folds serialization + propagation into a single event).
The serialize-done callback is scheduled only when someone needs it — the
port has an ``on_idle`` listener (host NICs pump on it) or more traffic is
already queued.  A switch port forwarding into an empty queue therefore
costs one scheduled event per packet, not two; ``busy`` is tracked as a
``_busy_until`` timestamp instead of a flag.  Fused-away completions are
still counted in ``events_processed`` (see the engine's event-count
contract), so the counter — and with it the golden determinism fixtures —
is invariant to this optimization.

Two caveats of the fused design:

* the fused credit is booked at serialization *start*, so on a run
  truncated mid-serialization (a deadline with incomplete flows)
  ``events_processed`` can lead the canonical count by up to one per
  mid-serialization fused port.  FCT records and event ordering are
  unaffected; runs that complete (everything the golden fixtures pin)
  match exactly;
* fusion assumes ``on_idle`` listeners are wired at construction time.
  Attaching ``on_idle`` to a port that already carried traffic is
  unsupported: an in-flight fused serialization would end without the
  completion callback the new listener expects.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .engine import Simulator
from .packet import Packet


class EgressPort:
    """One transmit direction of a device's port."""

    def __init__(
        self,
        sim: Simulator,
        owner,
        port_id: int,
        rate: float,
        on_emit: Optional[Callable[[Packet, "EgressPort"], None]] = None,
        on_idle: Optional[Callable[["EgressPort"], None]] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"port rate must be positive, got {rate}")
        self.sim = sim
        self.owner = owner
        self.port_id = port_id
        self.rate = rate                      # bytes per ns
        self.link = None                      # set when wired
        self._queue: deque[Packet] = deque()
        self._control: deque[Packet] = deque()
        self._busy_until = 0.0                # serializing while now < this
        self._done_event: list | None = None  # completion wakeup, if needed
        self.paused = False
        self.qlen_bytes = 0
        self.tx_bytes = 0                     # cumulative emitted wire bytes
        self.rx_bytes = 0                     # cumulative enqueued wire bytes
        self.packets_emitted = 0
        self.on_emit = on_emit                # hook: INT stamping, buffer release
        self.on_idle = on_idle                # hook: NIC pump
        # Hybrid coupling: a BgLinkView whose ``residual`` fraction of
        # the line rate is left over by fluid background traffic; when
        # set, serialization slows down to model sharing the wire.
        # ``None`` (the default) keeps the pure-packet path untouched.
        self.bg_view = None
        self._pause_started: float | None = None
        self.total_paused = 0.0

    # -- queue state ---------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized.

        With a fused completion the port frees exactly at ``_busy_until``;
        with a scheduled completion it stays busy until that event runs
        (matters only for same-timestamp ordering).
        """
        return self._done_event is not None or self.sim.now < self._busy_until

    @property
    def idle(self) -> bool:
        """True when nothing is being serialized and no data is queued."""
        # `not busy` inlined: this property is on the NIC pump's hot path.
        return (
            not self._queue
            and not self._control
            and self._done_event is None
            and self.sim.now >= self._busy_until
        )

    # -- enqueue paths -------------------------------------------------------

    def enqueue(self, pkt: Packet) -> None:
        """Queue a data-plane packet (data, ACK, NACK, CNP)."""
        self._queue.append(pkt)
        size = pkt.wire_size
        self.qlen_bytes += size
        self.rx_bytes += size
        if self._done_event is None:
            self._unfuse_or_kick()

    def enqueue_control(self, pkt: Packet) -> None:
        """Queue a link-local control frame (PFC); bypasses pause."""
        self._control.append(pkt)
        if self._done_event is None:
            self._unfuse_or_kick()

    def _unfuse_or_kick(self) -> None:
        """New work arrived with no completion wakeup scheduled: either the
        current (fused) serialization needs a real completion after all, or
        the port is free and can start serializing now."""
        sim = self.sim
        if sim.now < self._busy_until:
            self._done_event = sim.at(self._busy_until, self._tx_done)
            sim.events_processed -= 1     # hand the fused credit back
        else:
            self._kick()

    # -- pause / resume ------------------------------------------------------

    def set_paused(self, paused: bool) -> None:
        if paused == self.paused:
            return
        self.paused = paused
        now = self.sim.now
        if paused:
            self._pause_started = now
        else:
            if self._pause_started is not None:
                self.total_paused += now - self._pause_started
                self._pause_started = None
            self._kick()
            if self.on_idle is not None and self.idle:
                self.on_idle(self)

    def paused_time(self, now: float) -> float:
        """Total paused duration including a still-open pause."""
        open_time = 0.0
        if self._pause_started is not None:
            open_time = now - self._pause_started
        return self.total_paused + open_time

    # -- transmission --------------------------------------------------------

    def _kick(self) -> None:
        sim = self.sim
        if self._done_event is not None or sim.now < self._busy_until:
            return
        if self._control:
            pkt = self._control.popleft()
        elif self._queue and not self.paused:
            pkt = self._queue.popleft()
            self.qlen_bytes -= pkt.wire_size
        else:
            return
        size = pkt.wire_size
        self.tx_bytes += size
        self.packets_emitted += 1
        ser = size / self.rate
        if (view := self.bg_view) is not None:
            ser /= view.residual
        # Mark busy and credit the logical serialize-done *before* the
        # on_emit hook: the hook can re-enter the enqueue paths (a switch
        # releasing buffer may emit a PFC frame, in the hairpin case out
        # of this very port), and those must see the port busy and may
        # legitimately un-fuse the completion (refunding this credit).
        self._busy_until = sim.now + ser
        sim.events_processed += 1
        if self.on_emit is not None:
            self.on_emit(pkt, self)
        link = self.link
        if link is not None:
            link.transmit(pkt, self, ser)
        if self._done_event is None and (
            self.on_idle is not None or self._queue or self._control
        ):
            # Someone needs the serialize-done callback after all: make it
            # a real event and hand the fused credit back (the firing will
            # count it).
            self._done_event = sim.at(self._busy_until, self._tx_done)
            sim.events_processed -= 1

    def _tx_done(self) -> None:
        self._done_event = None
        self._kick()
        if self.on_idle is not None and self.idle:
            self.on_idle(self)
