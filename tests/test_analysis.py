"""Appendix A models: the Lemma, AI equilibria, ND/D/1 queueing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.convergence import RateNetwork, random_network
from repro.analysis.fairness import (
    alpha_fair_limits,
    alpha_fair_rate,
    equilibrium_rate,
    equilibrium_utilization,
    fairness_convergence_time,
    iterate_single_resource,
    max_stable_ai,
    wai_rule_of_thumb,
)
from repro.analysis.queueing import (
    PeriodicSourcesQueue,
    mean_queue_full_load,
    overflow_probability,
)


class TestRateNetworkBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateNetwork(np.array([[2.0]]), np.array([1.0]))   # non-binary
        with pytest.raises(ValueError):
            RateNetwork(np.array([[1.0]]), np.array([0.0]))   # zero capacity
        with pytest.raises(ValueError):
            RateNetwork(np.array([[0.0]]), np.array([1.0]))   # unused path

    def test_single_bottleneck_one_step(self):
        # One resource, two paths: one step lands exactly on capacity.
        net = RateNetwork(np.array([[1.0, 1.0]]), np.array([10.0]))
        r1 = net.step(np.array([20.0, 20.0]))
        assert net.loads(r1)[0] == pytest.approx(10.0)
        assert r1 == pytest.approx([5.0, 5.0])

    def test_step_scales_up_underloaded(self):
        net = RateNetwork(np.array([[1.0]]), np.array([10.0]))
        r1 = net.step(np.array([2.0]))
        assert r1[0] == pytest.approx(10.0)

    def test_nonpositive_rates_rejected(self):
        net = RateNetwork(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            net.step(np.array([0.0]))


class TestLemma:
    """The Appendix A.2 Lemma, checked numerically.

    (iii) is checked at a 1% saturation tolerance: when a later bottleneck
    carries paths clamped by an earlier one it saturates geometrically
    rather than in one exact step.
    """

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_feasible_after_one_step(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(int(rng.integers(2, 7)),
                             int(rng.integers(2, 9)), rng)
        r0 = rng.uniform(0.05, 8.0, size=net.n_paths)
        assert net.is_feasible(net.step(r0))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_monotone_after_first_step(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(int(rng.integers(2, 7)),
                             int(rng.integers(2, 9)), rng)
        trajectory = net.iterate(rng.uniform(0.05, 8.0, size=net.n_paths), 8)
        for a, b in zip(trajectory[1:], trajectory[2:]):
            assert (b >= a - 1e-9).all()

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_converges_to_pareto(self, seed):
        # The saturation of later bottlenecks is geometric when they carry
        # paths clamped by earlier ones, so the finite-I claim holds only
        # approximately; the asymptotic claim holds always.
        rng = np.random.default_rng(seed)
        net = random_network(int(rng.integers(2, 6)),
                             int(rng.integers(2, 8)), rng)
        r0 = rng.uniform(0.05, 8.0, size=net.n_paths)
        final = net.iterate(r0, 200)[-1]
        assert net.is_pareto_optimal(final, tol=0.01)

    def test_paper_example_parking_lot(self):
        # Two resources, three paths: path 2 crosses both.
        a = np.array([[1.0, 0.0, 1.0],
                      [0.0, 1.0, 1.0]])
        net = RateNetwork(a, np.array([10.0, 10.0]))
        rates = net.converged_rates(np.array([1.0, 1.0, 1.0]))
        assert net.is_feasible(rates)
        assert net.is_pareto_optimal(rates, tol=0.01)

    def test_fixed_point_is_stable(self):
        net = RateNetwork(np.array([[1.0, 1.0]]), np.array([10.0]))
        fixed = np.array([4.0, 6.0])        # already saturating
        assert net.step(fixed) == pytest.approx(fixed)


class TestFairnessEquilibria:
    def test_rate_utilization_duality(self):
        # R = a/(1 - Ut/U)  <=>  U = Ut/(1 - a/R).
        a, ut = 0.05, 0.95
        u = 0.97
        r = equilibrium_rate(a, ut, u)
        assert equilibrium_utilization(a, ut, r) == pytest.approx(u)

    def test_fixed_point_iteration_matches_closed_form(self):
        a, ut, n, c = 0.01, 0.95, 10, 10.0
        r, u = iterate_single_resource(n, c, a, ut, n_steps=5000)
        assert r == pytest.approx(equilibrium_rate(a, ut, u), rel=1e-3)
        assert u == pytest.approx(equilibrium_utilization(a, ut, r), rel=1e-3)

    def test_utilization_grows_with_ai_step(self):
        _, u_small = iterate_single_resource(10, 10.0, 0.005, 0.95)
        _, u_large = iterate_single_resource(10, 10.0, 0.02, 0.95)
        assert u_large > u_small > 0.95

    def test_max_stable_ai_bound(self):
        # a < R(1) x (1 - Utarget) keeps U below 100% (Appendix A.3).
        bound = max_stable_ai(0.95, min_rate=1.0)
        assert bound == pytest.approx(0.05)
        _, u = iterate_single_resource(10, 10.0, bound * 0.9, 0.95)
        assert u < 1.0

    def test_equilibrium_validation(self):
        with pytest.raises(ValueError):
            equilibrium_rate(0.1, 0.95, 0.90)
        with pytest.raises(ValueError):
            equilibrium_utilization(0.1, 0.95, 0.05)


class TestAlphaFairness:
    def test_limits(self):
        rates = [1.0, 2.0, 4.0]
        limits = alpha_fair_limits(rates)
        assert limits["max_min (alpha->inf)"] == 1.0
        # alpha=1: harmonic-style combination of per-resource rates.
        assert limits["proportional (alpha=1)"] == pytest.approx(
            1.0 / (1 / 1 + 1 / 2 + 1 / 4)
        )

    def test_alpha_to_infinity_approaches_min(self):
        rates = [1.0, 2.0, 4.0]
        assert alpha_fair_rate(rates, 50.0) == pytest.approx(1.0, rel=0.05)

    def test_monotone_decreasing_in_alpha_below_min(self):
        rates = [1.0, 3.0]
        values = [alpha_fair_rate(rates, a) for a in (0.5, 1.0, 2.0, 8.0)]
        assert all(v <= rates[0] + 1e-9 for v in values[1:])

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_fair_rate([], 1.0)
        with pytest.raises(ValueError):
            alpha_fair_rate([1.0], 0.0)
        with pytest.raises(ValueError):
            alpha_fair_rate([-1.0], 1.0)

    def test_wai_rule(self):
        # Footnote 4: 80B for Winit at 100G x T with N=100... shape check:
        assert wai_rule_of_thumb(160_000, 0.95, 100) == pytest.approx(80.0)

    def test_convergence_time_monotone(self):
        fast = fairness_convergence_time(0, 10_000, wai=100, base_rtt=9000)
        slow = fairness_convergence_time(0, 10_000, wai=10, base_rtt=9000)
        assert slow > fast


class TestQueueing:
    def test_mean_queue_formula(self):
        # sqrt(pi N / 8): about 4.4 packets for N=50 ("less than 5").
        assert mean_queue_full_load(50) == pytest.approx(4.43, abs=0.01)
        assert mean_queue_full_load(50) < 5

    def test_overflow_probability_tiny_at_95(self):
        # The paper: ~1e-9 for 20 packets, 50 sources, 95% load.
        p = overflow_probability(50, 0.95, 20)
        assert p < 1e-7

    def test_overflow_increases_with_load(self):
        assert overflow_probability(50, 0.99, 10) > \
               overflow_probability(50, 0.90, 10)

    def test_simulated_mean_below_formula_at_95(self):
        sim = PeriodicSourcesQueue(50, 0.95, seed=3)
        assert sim.mean_queue(n_periods=100) < mean_queue_full_load(50) + 1

    def test_simulated_full_load_near_formula(self):
        sim = PeriodicSourcesQueue(50, 1.0, seed=3)
        mean = sim.mean_queue(n_periods=200)
        assert mean == pytest.approx(mean_queue_full_load(50), rel=0.5)

    def test_simulated_tail_negligible(self):
        sim = PeriodicSourcesQueue(50, 0.95, seed=3)
        assert sim.tail_probability(20, n_periods=100) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSourcesQueue(0, 0.5)
        with pytest.raises(ValueError):
            PeriodicSourcesQueue(5, 1.5)
        with pytest.raises(ValueError):
            overflow_probability(5, 0.0, 1)
        with pytest.raises(ValueError):
            mean_queue_full_load(0)
