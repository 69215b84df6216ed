"""Figure 1: PFC pause propagation depth and suppressed bandwidth.

Paper (production data): ~10% of pause events propagate 3 hops; the worst
events suppress up to 25% of network capacity.  Here: DCQCN + incast on a
synthetic PoD, standing in for the paper's production telemetry.
"""

from repro.experiments.figure01 import run_figure01

from conftest import run_once


def test_fig01_pause_trees(benchmark):
    result = run_once(benchmark, run_figure01, scale="bench")

    print()
    print(f"pause trees: {len(result.trees)}")
    for depth, frac in sorted(result.depth_ccdf.items()):
        print(f"  P(depth >= {depth}) = {frac * 100:.1f}%")
    if result.suppressed:
        print(f"  worst suppressed capacity: {result.suppressed[0] * 100:.1f}%")

    # Shape: pauses happen, a meaningful share propagates multiple hops,
    # and the worst event silences a double-digit share of host capacity.
    assert result.pause_events > 10
    assert result.depth_ccdf.get(1, 0) == 1.0
    assert result.depth_ccdf.get(2, 0) > 0.05
    assert result.suppressed and result.suppressed[0] > 0.10
