"""tools/pairs.py's summary, held to the summaries that BENCH_26.json
records next to the pairs they were computed from."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

BENCH = json.loads((ROOT / "BENCH_26.json").read_text())
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def leaves(value, path=""):
    """{path: leaf} of nested dicts and lists."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in leaves(value[key], f"{path}/{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{path}/{i}").items()}
    return {path: value}


@pytest.mark.parametrize("recorded", BENCH["summary"],
                         ids=lambda s: f"{s['workload']}-{s['seed']}")
def test_summary_matches_the_recorded_one(recorded):
    runs = [p for p in BENCH["workloads"][recorded["workload"]]["pairs"]
            if p["seed"] == recorded["seed"]]
    computed = leaves(pairs.summarize(recorded["workload"], recorded["seed"], runs, METRICS))
    assert computed == pytest.approx(leaves(recorded), rel=1e-12)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_spread():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.2}
    result = lambda parent, change: {  # noqa: E731
        side: {"metrics": {"wall_s": {"value": v}}} for side, v in
        (("parent", parent), ("change", change))}
    # the change wins 9 of 10 pairs by far more than the parent's spread
    runs = [result(1.0 + 0.01 * i, 0.8) for i in range(9)] + [result(1.0, 1.1)]
    summary = pairs.compare(metric, runs)
    assert summary["change_wins"] == 9 and summary["within_bound"]
    assert pairs.gain_counts(summary, len(runs))
    # 8 of 10 is too few, and a tie counts for neither side
    runs[0] = result(0.8, 0.8)
    summary = pairs.compare(metric, runs)
    assert summary["change_wins"] == 8 and not pairs.gain_counts(summary, len(runs))
    # a slower change outside the bound
    summary = pairs.compare(metric, [result(1.0, 1.3)] * 4)
    assert not summary["within_bound"] and summary["median_change_pct"] == pytest.approx(30)
    higher = {"name": "tiles_per_s", "better": "higher", "bound": 0.2}
    summary = pairs.compare(higher, [{side: {"metrics": {"tiles_per_s": {"value": v}}}
                                      for side, v in (("parent", 10.0), ("change", 7.0))}])
    assert summary["change_wins"] == 0 and not summary["within_bound"]
