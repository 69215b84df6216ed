"""The fluid backend: engine behaviour, programs, packet cross-validation.

The cross-validation class is the backend's contract: on scenarios with
a known steady state (two flows sharing a bottleneck, a synchronized
incast) the fluid model must reproduce the packet simulator's *goodput
shares* and *fairness* within tolerance for every scheme, and absolute
FCT slowdowns within tolerance for the schemes whose packet dynamics
are themselves smooth (HPCC, DCTCP).  Schemes whose packet behaviour is
dominated by sub-RTT burst overshoot (DCQCN's min-rate collapse) keep
share/fairness agreement only — that divergence is inherent to fluid
approximation and documented in README's "Simulation backends".
"""

from __future__ import annotations

import pytest

from repro import Network, NetworkConfig
from repro.fluid import FluidEngine, fluid_supported
from repro.runner import RunRecord, ScenarioSpec, execute_spec
from repro.sim.flow import FlowSpec
from repro.sim.units import US
from repro.topology import star

BASE_RTT = 9 * US
DEADLINE = 200e6


def _topology():
    return star(n_hosts=5, host_rate="10Gbps", link_delay="1us")


def packet_records(cc: str, flows: list[FlowSpec]) -> list:
    net = Network(_topology(), NetworkConfig(cc_name=cc, base_rtt=BASE_RTT))
    for flow in flows:
        net.add_flow(flow)
    assert net.run_until_done(deadline=DEADLINE)
    return sorted(net.metrics.fct_records, key=lambda r: r.spec.flow_id)


def fluid_records(cc: str, flows: list[FlowSpec]) -> list:
    engine = FluidEngine(_topology(), cc_name=cc, base_rtt=BASE_RTT)
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return sorted(engine.fct_records, key=lambda r: r.spec.flow_id)


def two_flows(size: int = 600_000) -> list[FlowSpec]:
    return [FlowSpec(1, 0, 4, size, 0.0), FlowSpec(2, 1, 4, size, 0.0)]


def incast_flows(size: int = 200_000) -> list[FlowSpec]:
    return [FlowSpec(i, i - 1, 4, size, 0.0) for i in range(1, 5)]


def shares(records) -> list[float]:
    """Each flow's goodput share of the total (size/fct, normalized)."""
    rates = [r.spec.size / r.fct for r in records]
    total = sum(rates)
    return [rate / total for rate in rates]


def jain(records) -> float:
    rates = [r.spec.size / r.fct for r in records]
    return sum(rates) ** 2 / (len(rates) * sum(r * r for r in rates))


class TestFluidEngine:
    def test_solo_flow_near_ideal(self):
        [record] = fluid_records("hpcc", [FlowSpec(1, 0, 4, 1_000_000, 0.0)])
        assert record.slowdown == pytest.approx(1.0, abs=0.1)

    def test_two_flows_share_the_bottleneck(self):
        records = fluid_records("hpcc", two_flows())
        assert [r.slowdown for r in records] == pytest.approx([2.0, 2.0], rel=0.25)

    def test_deterministic(self):
        first = fluid_records("hpcc", two_flows())
        second = fluid_records("hpcc", two_flows())
        assert [(r.start, r.finish) for r in first] == \
            [(r.start, r.finish) for r in second]

    @pytest.mark.parametrize("cc", [
        "hpcc", "hpcc-perack", "hpcc-perrtt", "hpcc-rxrate",
        "dcqcn", "dcqcn+win", "timely", "timely+win", "dctcp",
    ])
    def test_every_paper_scheme_completes(self, cc):
        records = fluid_records(cc, two_flows(size=200_000))
        assert len(records) == 2
        assert all(r.fct > 0 and r.slowdown >= 0.999 for r in records)

    def test_fluid_supported(self):
        assert fluid_supported("hpcc")
        with pytest.raises(KeyError, match="unknown CC scheme"):
            fluid_supported("quantum-cc")

    def test_late_start_fast_forwards_idle_time(self):
        engine = FluidEngine(_topology(), cc_name="hpcc", base_rtt=BASE_RTT)
        engine.add_flow(FlowSpec(1, 0, 4, 100_000, start_time=50e6))
        assert engine.run(deadline=100e6)
        [record] = engine.fct_records
        assert record.start == 50e6
        assert record.slowdown == pytest.approx(1.0, abs=0.1)
        # The idle 50ms cost no steps.
        assert engine.steps < 100

    def test_queue_sampling(self):
        engine = FluidEngine(
            _topology(), cc_name="hpcc", base_rtt=BASE_RTT,
            sample_interval=BASE_RTT,
        )
        engine.add_flows(two_flows())
        engine.run(deadline=DEADLINE)
        label = "sw5->4"                      # switch egress to the receiver
        series = engine.queue_samples[label]
        assert len(series["times"]) == len(series["qlens"]) > 0
        assert max(series["qlens"]) > 0       # 2:1 share builds queue

    def test_queues_respect_buffer_cap(self):
        engine = FluidEngine(
            _topology(), cc_name="dcqcn", base_rtt=BASE_RTT,
            buffer_bytes=50_000,
        )
        engine.add_flows(incast_flows())
        engine.run(deadline=DEADLINE)
        assert all(
            l.queue <= 50_000 + 1e-6 for l in engine.graph.links.values()
        )


class TestCrossValidation:
    """Fluid vs packet on scenarios with a known steady state."""

    @pytest.mark.parametrize("cc", ["hpcc", "dctcp"])
    def test_two_flow_slowdowns_agree(self, cc):
        packet = packet_records(cc, two_flows())
        fluid = fluid_records(cc, two_flows())
        for p, f in zip(packet, fluid):
            assert f.slowdown == pytest.approx(p.slowdown, rel=0.30)

    @pytest.mark.parametrize("cc", ["hpcc", "dcqcn", "timely", "dctcp"])
    def test_two_flow_goodput_shares_agree(self, cc):
        packet = shares(packet_records(cc, two_flows()))
        fluid = shares(fluid_records(cc, two_flows()))
        for p, f in zip(packet, fluid):
            assert f == pytest.approx(p, abs=0.05)

    @pytest.mark.parametrize("cc", ["hpcc", "timely"])
    def test_incast_fairness_agrees(self, cc):
        packet = packet_records(cc, incast_flows())
        fluid = fluid_records(cc, incast_flows())
        assert jain(fluid) > 0.99
        assert jain(fluid) == pytest.approx(jain(packet), abs=0.02)
        for p, f in zip(shares(packet), shares(fluid)):
            assert f == pytest.approx(p, abs=0.05)

    def test_incast_hpcc_slowdowns_agree(self):
        packet = packet_records("hpcc", incast_flows())
        fluid = fluid_records("hpcc", incast_flows())
        packet_mean = sum(r.slowdown for r in packet) / len(packet)
        fluid_mean = sum(r.slowdown for r in fluid) / len(fluid)
        assert fluid_mean == pytest.approx(packet_mean, rel=0.30)


class TestFailoverCrossValidation:
    """Dual-trunk failover: the fluid goodput-recovery trajectory must
    agree with the packet backend within documented bounds.

    After the cut both models have a single 50G trunk, so the post-cut
    trajectory is directly comparable: post-recovery aggregate goodput
    within 20%, recovery time within two goodput bins (200us).  *Pre*-cut
    goodput is bounded one-sidedly: fluid pools the parallel trunks into
    one 100G link while packet ECMP can hash 4 flows 3-1 across members,
    so fluid >= packet there by construction (README "Network dynamics").
    DCQCN is excluded: its packet behaviour is dominated by sub-RTT
    min-rate collapse, the same divergence the steady-state
    cross-validation class documents.
    """

    BOUNDS = {"after_rel": 0.20, "recovery_slack_us": 200.0}

    @pytest.fixture(scope="class")
    def results(self):
        from repro.experiments.failover import SCHEMES, run_failover

        schemes = tuple(
            cc for cc in SCHEMES if cc.name in ("hpcc", "dctcp")
        )
        return {
            backend: run_failover(schemes=schemes, backend=backend)
            for backend in ("packet", "fluid")
        }

    @pytest.mark.parametrize("scheme", ["HPCC", "DCTCP"])
    def test_post_cut_goodput_agrees(self, results, scheme):
        packet = results["packet"].goodput_after[scheme]
        fluid = results["fluid"].goodput_after[scheme]
        assert fluid == pytest.approx(packet, rel=self.BOUNDS["after_rel"])

    @pytest.mark.parametrize("scheme", ["HPCC", "DCTCP"])
    def test_recovery_time_agrees(self, results, scheme):
        packet = results["packet"].recovery_time_us[scheme]
        fluid = results["fluid"].recovery_time_us[scheme]
        assert packet != float("inf") and fluid != float("inf")
        assert abs(fluid - packet) <= self.BOUNDS["recovery_slack_us"]

    @pytest.mark.parametrize("scheme", ["HPCC", "DCTCP"])
    def test_pre_cut_goodput_bounded_by_pooling(self, results, scheme):
        packet = results["packet"].goodput_before[scheme]
        fluid = results["fluid"].goodput_before[scheme]
        payload_capacity = 100 * (1000 / 1048)      # 2 trunks, wire factor
        assert packet * 0.95 <= fluid <= payload_capacity * 1.01

    def test_fluid_failover_runs_and_drains(self, results):
        fluid = results["fluid"]
        assert all(fluid.drained.values())


def load_spec(backend: str = "fluid", **updates) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="load",
        topology="star",
        topology_params={"n_hosts": 4, "host_rate": "10Gbps"},
        workload={"cdf": "fbhadoop", "size_scale": 0.1,
                  "load": 0.2, "n_flows": 15},
        config={"base_rtt": BASE_RTT},
        seed=2,
        backend=backend,
        label="fluid-load",
    )
    return spec.replaced(**updates) if updates else spec


def flows_spec(backend: str = "fluid", **updates) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
        workload={"flows": [[0, 2, 60_000, 0.0, "a"], [1, 2, 60_000, 0.0, "b"]],
                  "deadline": 5e6},
        config={"base_rtt": BASE_RTT},
        measure={"sample_interval": 10_000.0, "windows": True},
        backend=backend,
        label="fluid-flows",
    )
    return spec.replaced(**updates) if updates else spec


class TestFluidPrograms:
    def test_load_program_record(self):
        record = execute_spec(load_spec())
        assert record.spec.backend == "fluid"
        assert record.fct
        assert record.events_processed > 0          # RTT steps
        assert record.extras["n_hosts"] == 4
        assert record.extras["pause_total_ns"] == 0.0
        fct = record.fct_records()
        assert all(r.slowdown > 0 for r in fct)

    def test_same_workload_as_packet(self):
        """Both backends simulate the identical seeded flow population."""
        fluid = execute_spec(load_spec())
        packet = execute_spec(load_spec(backend="packet"))
        fluid_specs = {(r["flow_id"], r["src"], r["dst"], r["size"],
                        r["start_time"]) for r in fluid.fct}
        packet_specs = {(r["flow_id"], r["src"], r["dst"], r["size"],
                         r["start_time"]) for r in packet.fct}
        assert fluid_specs == packet_specs

    def test_flows_program_record(self):
        record = execute_spec(flows_spec())
        assert len(record.fct) == 2
        assert record.flow_ids("a") == [1] and record.flow_ids("b") == [2]
        assert set(record.final_windows()) == {1, 2}
        assert record.queues                       # sampled series present
        label, series = next(iter(record.queues.items()))
        assert len(series["times"]) == len(series["qlens"]) > 0

    def test_legacy_link_events_run_on_fluid(self):
        """Link events execute on fluid (pre-dynamics PRs raised
        ValueError): cutting the receiver's uplink parks both flows, so
        the run ends incomplete — blackholed, not crashed, like the
        packet backend."""
        spec = flows_spec(
            dynamics={"events": [{"type": "fail_link", "at": 1.0,
                                  "a": 3, "b": 2}]}
        )
        record = execute_spec(spec)
        [event] = record.link_events()
        assert event["type"] == "fail_link" and event["fired"]
        assert not record.completed        # host 2 is unreachable: flows park

    def test_ignored_config_recorded(self):
        record = execute_spec(load_spec(**{"config.transport": "irn"}))
        assert record.extras["fluid_ignored_config"] == ["transport"]

    def test_record_roundtrip_preserves_backend(self):
        import json

        record = execute_spec(flows_spec())
        back = RunRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back.spec.backend == "fluid"
        assert back.spec == record.spec
        assert back.fct == record.fct

    def test_figure_grids_run_on_fluid(self):
        """A figure11-style FatTree cell end-to-end on the fluid engine."""
        from repro.experiments import figure11
        from repro.runner import CcChoice

        [spec] = figure11.scenarios(
            scale="bench", cases=("50%",),
            schemes=(CcChoice("hpcc", label="HPCC"),),
        )
        record = execute_spec(spec.replaced(backend="fluid"))
        assert record.spec.backend == "fluid"
        assert len(record.fct) > 100
        slowdowns = [r.slowdown for r in record.fct_records()]
        assert all(s >= 0.999 for s in slowdowns)   # float-exact ideal
