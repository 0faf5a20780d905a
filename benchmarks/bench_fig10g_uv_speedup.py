"""Fig 10(g): construction speedup of the PV-index over the UV-index.

Paper result: the PV-index builds 15-25x faster than the UV-index on 2D
data.  Our UV substitute shares the fast domination machinery instead of
[9]'s costly hyperbola intersections, so the measured factor is smaller;
the direction (PV faster) and its cause (per-object boundary refinement
in the UV-index) are preserved.
"""

from repro.bench import figures


def test_fig10g_uv_speedup(benchmark, record_figure, profile):
    kwargs = {"size": 200} if profile == "smoke" else {}
    result = benchmark.pedantic(
        figures.fig10g_uv_speedup,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    record_figure(result)

    for row in result.rows:
        assert row["speedup"] > 1.0, (
            f"PV should build faster than UV on {row['dataset']}"
        )
