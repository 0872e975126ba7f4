"""The verdicts of tools/bench_pairs.py on made-up paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
P90 = {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        (OPS, [100, 101, 102, 103, 104, 100, 101, 102, 103, 104], [120] * 9 + [99], "gain"),
        (OPS, [100, 101, 102, 103, 104] * 2, [70] * 10, "regression"),
        (P90, [10.0] * 10, [13.0] * 10, "regression"),
        (OPS, [100, 101, 102, 103, 104] * 2, [102] * 10, "within bound"),
        (OPS, [50, 100, 150, 200] * 2, [100, 140] * 4, "unresolved"),
        (OPS, [50, 100, 150, 200] * 2, [300] * 8, "gain"),
    ],
    ids=["gain-9-of-10", "ops-down", "p90-up", "flat", "wide-spread", "wide-spread-but-all-better"],
)
def test_judge_reads_paired_runs_against_the_bound(metric, parent, change, verdict):
    assert bench_pairs.judge(metric, parent, change)["verdict"] == verdict


def test_judge_counts_wins_and_losses_without_ties():
    m = bench_pairs.judge(P90, [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0])
    assert (m["wins"], m["losses"], m["pairs"]) == (2, 1, 4)
    assert m["parent_quartiles"] == [10.0, 10.0]


def _runs(parent, change, failed):
    """Paired runs of ops_per_s; `failed` gives each side's failed ops out of 100 per run."""
    def side(value, name):
        return {"metrics": {"ops_per_s": {"value": value}}, "attempted": 100, "failed": failed[name], "correct": True}
    return [{"parent": side(p, "parent"), "change": side(c, "change")} for p, c in zip(parent, change)]


@pytest.mark.parametrize(
    "failed, verdict",
    [({"parent": 0, "change": 0}, "gain"), ({"parent": 1, "change": 1}, "gain"),
     ({"parent": 0, "change": 1}, "within bound"), ({"parent": 2, "change": 1}, "gain")],
    ids=["none-fail", "equal-share", "change-fails-more", "change-fails-less"],
)
def test_summarize_counts_no_gain_when_the_change_fails_more_ops(failed, verdict):
    runs = _runs([100, 101, 102, 103, 104] * 2, [130] * 10, failed)
    out = bench_pairs.summarize([OPS], runs)
    assert out["metrics"]["ops_per_s"]["verdict"] == verdict
    assert out["ops"]["change"]["failed"] == 10 * failed["change"]

