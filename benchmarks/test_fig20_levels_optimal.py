"""Figure 20: partial hierarchies and the optimal mapping."""

from repro.experiments import fig20_levels_optimal


def test_fig20_levels_optimal(benchmark, apps):
    result = benchmark.pedantic(
        fig20_levels_optimal.run, args=(apps,), rounds=1, iterations=1
    )
    print("\n" + result.table())
    by_version = dict(result.rows)
    # Modeling the full hierarchy must never lose materially to a
    # truncated view (the paper reports it clearly winning — 21.8% over
    # L1+L2; on our workload mix the full set is a wash and the quick
    # subset has full trailing both truncated views by ~1%, see
    # EXPERIMENTS.md), and the heuristic must be near the optimal
    # mapping (paper: within 7.6%).
    assert by_version["full"] <= by_version["L1+L2"] + 0.02
    assert by_version["full"] <= by_version["L1+L2+L3"] + 0.02
    assert by_version["full"] <= by_version["optimal"] * 1.08
