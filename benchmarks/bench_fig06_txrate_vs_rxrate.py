"""Figure 6: txRate versus rxRate feedback in a 2-to-1 scenario.

Paper: txRate converges gracefully; rxRate oscillates before converging.
Reproduction note: under Algorithm 1's min-qlen filter,
EWMA and reference window, the rxRate variant also converges here; the
bench asserts convergence for both and records the transient difference
(rxRate over-cuts because queue and arrival rate double-count).
"""

from repro.experiments.figure06 import run_figure06

from conftest import run_once

TX = "HPCC (txRate)"
RX = "HPCC-rxRate"


def test_fig06_feedback_signal(benchmark):
    result = run_once(benchmark, run_figure06, scale="bench")

    print()
    for label in (TX, RX):
        print(f"{label}: steady mean {result.steady_mean[label] / 1000:.2f}KB"
              f" +- {result.steady_std[label] / 1000:.2f}KB,"
              f" peak {result.peak[label] / 1000:.1f}KB")

    # Both settle to (near-)empty queues after the line-rate transient.
    assert result.steady_mean[TX] < 5_000
    assert result.steady_mean[RX] < 5_000
    # rxRate's double-counted congestion makes its startup cut at least as
    # deep: its transient peak queue cannot exceed txRate's.
    assert result.peak[RX] <= result.peak[TX] * 1.1
