"""The fluid engine's live working set: invariants of its row bookkeeping.

:class:`~repro.fluid.FluidEngine` steps only what live flows need, and
keeps that working set incrementally instead of rebuilding it:

* per-link live-flow counts and the touched-link mask change only on
  admission and completion, and the touched index list is re-listed
  only when a link's count crosses 0 <-> 1;
* dead rows are compacted away in place by array gathers, not by
  rebuilding every row from its flow object;
* the hop matrix is exactly as wide as the longest admitted path.

The working-set test drives staggered arrivals, completions and link
dynamics (fail, degrade, restore, reconvergence) and checks after every
step that the incremental state equals a from-scratch recomputation.
The last class pins the order in which per-hop queue delays are summed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.fluid import FluidEngine
from repro.fluid.engine import _ROW_FIELDS, _path_sum
from repro.sim.flow import FlowSpec
from repro.sim.units import US
from repro.topology.fattree import bench_fattree, fattree_k

DEADLINE = 200e6

#: Per topology: its builder and the arrival spacing (ns) that keeps a
#: few dozen flows live at once, so dead rows pile up and compact.
TOPOLOGIES = {
    "bench": (bench_fattree, 3_000.0),
    "k4": (lambda: fattree_k(4), 300.0),
}



def _flows(topology, spacing: float, n: int = 160) -> list[FlowSpec]:
    rng = random.Random(13)
    return [
        FlowSpec(
            flow_id=i, src=(pair := rng.sample(topology.hosts, 2))[0],
            dst=pair[1], size=rng.randint(5_000, 150_000),
            start_time=i * spacing,
        )
        for i in range(n)
    ]


def _links(topology) -> tuple[tuple[int, int], ...]:
    """A host uplink (its flows park when cut), a core-layer link (its
    flows reroute) and a ToR uplink (degraded while the first two are
    down)."""
    host = next(
        (l.a, l.b) for l in topology.links
        if topology.is_host(l.a) or topology.is_host(l.b)
    )
    fabric = [
        (l.a, l.b) for l in topology.links
        if not topology.is_host(l.a) and not topology.is_host(l.b)
    ]
    return host, fabric[-1], fabric[0]


def _int_slice(flow) -> list[int]:
    """The INT links ``_set_rows`` lists for ``flow``."""
    return [l.index for l in flow.path.int_links if l.capacity > 0.0]


def _live(engine) -> list:
    alive = engine._alive[:engine._n]
    return [f for f, a in zip(engine._flows, alive) if a]


def _snapshot(engine) -> dict:
    n = engine._n
    state = {name: getattr(engine, name)[:n].copy() for name in _ROW_FIELDS}
    state["_alive"] = engine._alive[:n].copy()
    state["_hopm"] = engine._hopm[:n].copy()
    state["_flows"] = list(engine._flows)
    state["_link_flows"] = engine._link_flows.copy()
    state["_touched"] = engine._touched.copy()
    if engine._needs_int:
        state["_il_off"] = engine._il_off[:n + 1].copy()
        state["_il"] = engine._il[:engine._il_nnz].copy()
    return state


def _assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "_flows":
            assert [id(f) for f in got[key]] == [id(f) for f in value]
        else:
            np.testing.assert_array_equal(got[key], value, err_msg=key)


def _check_working_set(engine, longest: int) -> None:
    """The incremental state equals a from-scratch recomputation."""
    L = engine._dummy
    n = engine._n
    alive = engine._alive[:n]
    assert int(alive.sum()) == engine._alive_n
    assert len(engine._flows) == n
    hopm = engine._hopm[:n]
    live_hops = hopm[alive]
    counts = np.bincount(live_hops[live_hops != L], minlength=L)
    np.testing.assert_array_equal(engine._link_flows[:L], counts)
    np.testing.assert_array_equal(engine._touched[:L], counts > 0)
    assert not engine._touched[L]
    if not engine._touched_stale:
        np.testing.assert_array_equal(
            engine._touched_idx, np.flatnonzero(counts)
        )
    assert engine._H == longest
    for i, flow in enumerate(engine._flows):
        if not alive[i]:
            continue
        path = [l.index for l in flow.path.links]
        assert hopm[i, :len(path)].tolist() == path
        assert (hopm[i, len(path):] == L).all()
        if engine._needs_int:
            off = engine._il_off
            got = engine._il[off[i]:off[i + 1]].tolist()
            assert got == _int_slice(flow)


def _instrument(engine) -> dict:
    """Check the working set after every step and every compaction.

    A compaction is checked twice: each live row keeps its values and
    relative order, and the compacted block equals what the Python
    ``_rebuild_rows`` (save + ``_set_rows``) builds from the flow
    objects — INT slices included.
    """
    seen = {"steps": 0, "compactions": 0, "longest": 0}
    advance = engine._advance
    compact = engine._compact_rows
    append = engine._append_row

    def append_row(flow):
        seen["longest"] = max(seen["longest"], len(flow.path.links))
        append(flow)

    def compact_rows():
        before = _snapshot(engine)
        keep = np.flatnonzero(before["_alive"])
        compact()
        after = _snapshot(engine)
        m = keep.size
        assert engine._n == m
        assert [id(f) for f in after["_flows"]] == [
            id(before["_flows"][i]) for i in keep
        ]
        for name in _ROW_FIELDS:
            np.testing.assert_array_equal(
                after[name], before[name][keep], err_msg=name
            )
        np.testing.assert_array_equal(after["_hopm"], before["_hopm"][keep])
        engine._rebuild_rows()
        _assert_same(_snapshot(engine), after)
        seen["compactions"] += 1

    def advance_checked(dt):
        _check_working_set(engine, seen["longest"])
        order = _live(engine)
        advance(dt)
        survivors = {id(f) for f in _live(engine)}
        assert [id(f) for f in _live(engine)] == [
            id(f) for f in order if id(f) in survivors
        ]
        _check_working_set(engine, seen["longest"])
        seen["steps"] += 1

    engine._append_row = append_row
    engine._compact_rows = compact_rows
    engine._advance = advance_checked
    return seen


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("cc", ["hpcc", "dcqcn", "dctcp"])
def test_incremental_state_matches_recomputation(topo, cc):
    build, spacing = TOPOLOGIES[topo]
    topology = build()
    engine = FluidEngine(topology, cc_name=cc, base_rtt=9 * US)
    flows = _flows(topology, spacing)
    n_flows = len(flows)
    engine.add_flows(flows)
    seen = _instrument(engine)
    (ha, hb), (fa, fb), (da, db) = _links(topology)
    span = n_flows * spacing
    engine.schedule_event(0.2 * span, lambda: engine.fail_link(fa, fb))
    engine.schedule_event(0.25 * span, engine.reconverge)
    engine.schedule_event(0.35 * span, lambda: engine.fail_link(ha, hb))
    engine.schedule_event(0.4 * span, engine.reconverge)
    engine.schedule_event(
        0.5 * span, lambda: engine.degrade_link(da, db, rate_factor=0.5)
    )
    engine.schedule_event(0.6 * span, lambda: engine.restore_link(ha, hb))
    engine.schedule_event(0.65 * span, engine.reconverge)
    engine.schedule_event(0.7 * span, lambda: engine.restore_link(fa, fb))
    engine.schedule_event(0.75 * span, engine.reconverge)
    assert engine.run(deadline=DEADLINE)
    assert len(engine.fct_records) == n_flows
    assert seen["steps"] > 100
    assert seen["compactions"] >= 2
    assert seen["longest"] == 6     # host-tor-agg-core-agg-tor-host


class TestQueueDelayOrder:
    """Per-path queue delay: the engine's sum vs ``FluidPath``'s."""

    @staticmethod
    def _queued_engine(rng: random.Random) -> FluidEngine:
        topology = fattree_k(4)
        engine = FluidEngine(topology, cc_name="hpcc", base_rtt=9 * US)
        hosts = topology.hosts
        for i in range(400):
            src, dst = rng.sample(hosts, 2)
            flow_id = 1000 + i
            engine._append_row(
                _admitted(engine, FlowSpec(flow_id, src, dst, 1_000, 0.0))
            )
        # Queue every switch egress with magnitudes spread over six
        # decades, so rounding in the sum depends on its order.
        arrays = engine.arrays
        for link in engine.graph.switch_egress_links():
            arrays.queue[link.index] = rng.random() * 10 ** rng.randint(0, 6)
        arrays.push()
        return engine

    @staticmethod
    def _per_hop(engine: FluidEngine, width: int) -> np.ndarray:
        A = engine.arrays
        L = engine._dummy
        qdiv = np.zeros(L + 1)
        np.divide(A.queue, A.capacity, out=qdiv[:L], where=A.capacity > 0.0)
        hopm = np.full((engine._n, width), L, dtype=np.int64)
        hopm[:, :engine._H] = engine._hopm[:engine._n]
        return qdiv[hopm]

    @pytest.mark.parametrize("width", [6, 8, 11])
    def test_path_sum_equals_fluid_path_bit_for_bit(self, width):
        engine = self._queued_engine(random.Random(5))
        assert engine._H == 6
        per_hop = self._per_hop(engine, width)
        queued = (per_hop > 0.0).sum(axis=1)
        rows = np.flatnonzero(queued >= 3)
        assert rows.size > 100
        got = _path_sum(per_hop)
        want = [engine._flows[i].path.queue_delay() for i in range(engine._n)]
        assert got[rows].tolist() == [want[i] for i in rows]
        assert got.tolist() == want

    def test_data_tells_pairwise_from_left_to_right(self):
        # numpy's row sum over 8 padded columns is a pairwise tree; the
        # data above must be able to see that, or the test is blind.
        engine = self._queued_engine(random.Random(5))
        per_hop = self._per_hop(engine, 8)
        want = [f.path.queue_delay() for f in engine._flows]
        assert per_hop.sum(axis=1).tolist() != want


def _admitted(engine: FluidEngine, spec: FlowSpec):
    """Route ``spec`` into a flow object the way ``add_flow`` does."""
    engine.add_flow(spec)
    flow = engine._starts.pop()
    assert flow.path is not None
    return flow
