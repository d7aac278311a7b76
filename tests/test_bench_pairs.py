"""The verdicts `tools/bench_pairs.py` writes for each end-to-end metric,
and the per-layer medians of its traced runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def _pairs(base, change):
    return [{side: {"result": {"correct": True, "attempted": 1, "failed": 0,
                               "metrics": {"peak_rss_mb": {"value": v}}}}
             for side, v in (("base", b), ("change", c))}
            for b, c in zip(base, change)]


def _verdicts(base, change):
    row = bench_pairs.summarize(_pairs(base, change), [RSS])["peak_rss_mb"]
    return row["gain"], row["within_bound"]


@pytest.mark.parametrize("base, change, verdicts", [
    # 10 of 10 wins, medians 1.5 MB apart, base quartiles 0.2 MB apart
    ([43.5, 43.6, 43.7] * 3 + [43.6], [42.1, 42.2] * 5, (True, True)),
    # 8 of 10 wins: short of nine tenths
    ([43.6] * 10, [42.2] * 8 + [43.7, 43.7], (False, True)),
    # 10 of 10 wins by less than the base's interquartile range
    ([43.0, 44.0] * 5, [x - 0.1 for x in [43.0, 44.0] * 5], (False, True)),
    # worse by 5%, inside the 10% bound
    ([40.0] * 4, [42.0] * 4, (False, True)),
    # worse by 15%
    ([40.0] * 4, [46.0] * 4, (False, False)),
])
def test_gain_and_bound_verdicts(base, change, verdicts):
    assert _verdicts(base, change) == verdicts


def test_layer_medians_of_the_traced_runs():
    runs = [{"result": {"metrics": {
        "symbolic.kneading.time_s": {"value": t, "unit": "s"},
        "symbolic.kneading.calls": {"value": c, "unit": "count"}}},
        "provenance": {"trace": 1}}
        for t, c in ((0.030, 8), (0.011, 8), (0.014, 9))]
    assert bench_pairs.TRACED_RUNS == 3
    assert bench_pairs.layer_medians(runs) == {
        "symbolic.kneading.time_s": 0.014, "symbolic.kneading.calls": 8}
