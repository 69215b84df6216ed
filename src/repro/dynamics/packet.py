"""Packet-backend dynamics driver: timelines onto a live ``Network``.

Schedules every primitive of a :class:`~repro.dynamics.events.Timeline`
on the simulator and keeps per-event accounting.  The data plane and the
control plane react at different times, as in a real fabric:

* a link cut (or recovery) takes effect on the wire immediately —
  traffic serialized into a dead link is lost and counted;
* routing reconverges ``detection_delay`` later (0 by default), through
  the scoped incremental recompute in
  :class:`~repro.sim.routing.RoutingState`; the reconvergence report
  (destination columns recomputed, ECMP groups changed) lands in the
  event's accounting entry.

With ``detection_delay == 0`` cut and reconvergence share one scheduled
callback, so a fail/restore pair replays the exact event structure (and
therefore ``events_processed``) of the pre-dynamics failover hook — the
golden determinism fixtures pin that.
"""

from __future__ import annotations

from .events import DegradeLink, FailLink, RestoreLink, Timeline

__all__ = ["PacketDynamicsDriver"]


class PacketDynamicsDriver:
    """Installs one timeline onto a packet :class:`~repro.network.Network`."""

    def __init__(
        self,
        net,
        timeline: Timeline,
        burst_entries: list[dict] | None = None,
    ) -> None:
        self.net = net
        self.timeline = timeline
        self.entries: list[dict] = []
        self._burst_entries = list(burst_entries or ())
        # id(link) -> (link, packets_lost_down snapshot at cut, fail entry).
        self._open_outages: dict[int, tuple[object, int, dict]] = {}
        self._installed = False

    # -- scheduling --------------------------------------------------------------

    def install(self) -> None:
        """Schedule every primitive event on the network's simulator.

        Burst flows are *not* scheduled here — they are ordinary flow
        specs (see :func:`~repro.dynamics.events.burst_flow_specs`) the
        program adds alongside the workload; the driver only tracks
        their accounting entries.
        """
        if self._installed:
            raise RuntimeError("driver already installed")
        self._installed = True
        sim = self.net.sim
        for _origin, event in self.timeline.primitives():
            if isinstance(event, FailLink):
                entry = self._link_entry(event)
                entry["packets_lost_down"] = 0
                sim.at(event.at, self._fire_fail, event, entry)
            elif isinstance(event, RestoreLink):
                entry = self._link_entry(event)
                entry["packets_lost_down"] = 0
                sim.at(event.at, self._fire_restore, event, entry)
            elif isinstance(event, DegradeLink):
                entry = self._link_entry(event)
                entry["rate_factor"] = event.rate_factor
                entry["delay_factor"] = event.delay_factor
                sim.at(event.at, self._fire_degrade, event, entry)
            # InjectBurst primitives carry no scheduled action: their
            # flows start themselves.
        self.entries.extend(self._burst_entries)
        self.entries.sort(key=lambda e: e["time"])

    def _link_entry(self, event) -> dict:
        entry = {
            "type": event.kind, "time": event.at,
            "a": event.a, "b": event.b, "fired": False,
        }
        self.entries.append(entry)
        return entry

    # -- event callbacks ---------------------------------------------------------

    def _fire_fail(self, event: FailLink, entry: dict) -> None:
        entry["fired"] = True
        link = self.net.fail_link(event.a, event.b, reroute=False)
        self._open_outages[id(link)] = (link, link.packets_lost_down, entry)
        self._detect(entry, link)

    def _fire_restore(self, event: RestoreLink, entry: dict) -> None:
        entry["fired"] = True
        link = self.net.restore_link(event.a, event.b, reroute=False)
        _link, snapshot, fail_entry = self._open_outages.pop(
            id(link), (link, 0, None)
        )
        lost = link.packets_lost_down - snapshot
        entry["packets_lost_down"] = lost
        if fail_entry is not None:
            fail_entry["packets_lost_down"] = lost
        self._detect(entry, link)

    def _fire_degrade(self, event: DegradeLink, entry: dict) -> None:
        entry["fired"] = True
        self.net.degrade_link(
            event.a, event.b,
            rate_factor=event.rate_factor,
            delay_factor=event.delay_factor,
        )

    def _detect(self, entry: dict, link) -> None:
        delay = self.timeline.detection_delay
        if delay > 0.0:
            self.net.sim.at(self.net.sim.now + delay, self._reconverge, entry, link)
        else:
            self._reconverge(entry, link)

    def _reconverge(self, entry: dict, link) -> None:
        report = self.net.reconverge(link)
        entry["detected_at"] = self.net.sim.now
        entry["reroutes"] = report.groups_changed
        entry["dests_recomputed"] = report.dests_recomputed

    # -- results -----------------------------------------------------------------

    def report(self) -> list[dict]:
        """The accounting entries, after the run.

        Closes still-open outages (a cut with no matching restore keeps
        losing packets until the run ends — the legacy single-cut
        semantics) and resolves burst ``fired`` flags against the final
        simulation clock.
        """
        now = self.net.sim.now
        for link, snapshot, fail_entry in self._open_outages.values():
            fail_entry["packets_lost_down"] = link.packets_lost_down - snapshot
        for entry in self._burst_entries:
            entry["fired"] = entry["time"] <= now
        return self.entries
