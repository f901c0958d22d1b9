"""F10 (extension): speculative use — consume before verification.

An extension beyond the reconstructed paper: grant demanded sectors the
moment their data arrives and let verification finish in the background
(containment assumed).  The instructive *negative* result: because the
craft buffer already overlaps verification with the MLP of other
misses, removing the verification serialization barely moves
performance — CacheCraft's residual overhead is bandwidth, not latency.
"""

from conftest import BENCH_SCALE, BENCH_SEED, run_once

from repro.analysis.experiments import ExperimentOutput
from repro.analysis.harness import ExperimentHarness, geomean
from repro.analysis.tables import format_table
from repro.workloads import REPRESENTATIVE_WORKLOADS


def f10_speculative(scale: float = BENCH_SCALE) -> ExperimentOutput:
    harness = ExperimentHarness(scale=scale, seed=BENCH_SEED)
    rows = []
    data = {}
    for wl in REPRESENTATIVE_WORKLOADS:
        base = harness.run(wl, "none")
        plain = harness.run(wl, "cachecraft")
        spec = harness.run(wl, "cachecraft", speculative_use=True)
        row = {
            "plain": plain.performance_vs(base),
            "speculative": spec.performance_vs(base),
            "grants": int(spec.stat("speculative_grants")),
        }
        data[wl] = row
        rows.append([wl, row["plain"], row["speculative"], row["grants"]])
    gm_plain = geomean(r["plain"] for r in data.values())
    gm_spec = geomean(r["speculative"] for r in data.values())
    rows.append(["geomean", gm_plain, gm_spec, None])
    data["geomean"] = {"plain": gm_plain, "speculative": gm_spec}
    text = format_table(
        ["workload", "cachecraft", "+speculative", "spec grants"],
        rows, title="F10: speculative use (extension)")
    return ExperimentOutput("F10", "Speculative-use extension", data, text,
                            notes=[f"near-tie ({gm_spec - gm_plain:+.3f} "
                                   "geomean): the craft buffer already "
                                   "overlaps most verification latency; "
                                   "the residual overhead is bandwidth"])


def test_f10_speculative(benchmark, report):
    out = run_once(benchmark, f10_speculative)
    report(out)
    data = out.data
    # The mechanism engages...
    assert all(row["grants"] > 0 for wl, row in data.items()
               if wl != "geomean")
    # ...but the paper-shaped conclusion is a near-tie: verification
    # latency was never the bottleneck.
    assert abs(data["geomean"]["speculative"]
               - data["geomean"]["plain"]) < 0.05
    # And it must never *hurt* beyond noise.
    assert data["geomean"]["speculative"] > data["geomean"]["plain"] - 0.04
