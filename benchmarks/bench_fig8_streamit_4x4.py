"""Figure 8: normalised energy per heuristic, StreamIt suite, 4x4 CMP.

All 12 workflows at the original CCR and rescaled to 10, 1 and 0.1; periods
chosen by the Section-6.1.3 divide-by-10 procedure.  Shapes to check
against the paper: DPA1D fails on the first four (high-elevation)
workflows, DPA2D fails on the pipeline-like ones, Random is never best,
and one of the specialised heuristics wins each row.
"""

from _common import streamit_experiment, write_result


def test_fig8(benchmark):
    exp = benchmark.pedantic(
        streamit_experiment, args=(4,), rounds=1, iterations=1
    )
    text = exp.render()
    print("\n" + text)
    write_result("fig8_streamit_4x4", text)
    counter = exp.failure_table()
    benchmark.extra_info["instances"] = counter.total
    benchmark.extra_info["failures"] = dict(
        zip(counter.heuristics, counter.row())
    )
    # Qualitative shape assertions (the paper-scale report is ROADMAP.md
    # item 4).
    records = exp.records
    assert counter.total == 48
    # Random never fails outright more than the specialised heuristics do.
    fails = dict(zip(counter.heuristics, counter.row()))
    assert fails["Random"] <= fails["DPA1D"]
    # DPA1D fails on the four high-elevation workflows at original CCR.
    for idx in (1, 2, 3, 4):
        assert not records[(idx, None)].results["DPA1D"].ok
