"""F8: performance vs sectors-touched-per-granule density."""

from conftest import BENCH_SCALE, run_once

from repro.analysis.experiments import f8_divergence

DENSITIES = (0.25, 0.5, 0.75, 1.0)


def test_f8_divergence(benchmark, report):
    out = run_once(benchmark, f8_divergence, densities=DENSITIES,
                   scale=BENCH_SCALE)
    report(out)
    perf = out.data["perf"]

    # Granule-code schemes improve monotonically as the workload
    # touches more of each granule (less overfetch per miss).
    for scheme in ("inline-full", "cachecraft"):
        curve = [perf[density][scheme] for density in DENSITIES]
        assert all(a < b for a, b in zip(curve, curve[1:])), (scheme, curve)
        assert perf[1.0][scheme] > 0.6, scheme

    # The per-sector metadata scheme pays per miss regardless of
    # density: flat, and below the granule schemes at every point.
    for density in DENSITIES:
        assert perf[density]["cachecraft"] >= \
            perf[density]["metadata-cache"] - 0.02, density

    # At the sparse end CacheCraft holds at least inline-full's line.
    assert perf[0.25]["cachecraft"] >= perf[0.25]["inline-full"] - 0.03
