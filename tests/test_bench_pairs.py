"""The verdicts of tools/bench_pairs.py on made-up paired runs."""

import importlib.util
import json
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


def _runs(parent, change, failed, wall_s=(60.0, 60.0)):
    """Paired runs of ops_per_s; `failed` gives each side's failed ops out of 100 per run, `wall_s` each side's clock."""
    def side(value, name, wall):
        return {"metrics": {"ops_per_s": {"value": value}}, "attempted": 100, "failed": failed[name],
                "correct": True, "wall_s": wall}
    return [{"seed": 3 + i, "first": ("parent", "change")[i % 2],
             "parent": side(p, "parent", wall_s[0]), "change": side(c, "change", wall_s[1])}
            for i, (p, c) in enumerate(zip(parent, change))]


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



def test_summarize_keeps_each_run_and_totals_each_sides_wall_clock():
    runs = _runs([100, 101, 102], [130, 131, 132], {"parent": 0, "change": 0}, wall_s=(58.5, 68.25))
    out = bench_pairs.summarize([OPS], runs)
    assert out["wall_s"] == {"parent": 3 * 58.5, "change": 3 * 68.25}
    assert out["runs"][1] == {"seed": 4, "first": "change",
                              "parent": {"ops_per_s": 101, "wall_s": 58.5}, "change": {"ops_per_s": 131, "wall_s": 68.25}}


def test_run_once_times_the_whole_process(tmp_path):
    """wall_s spans the process, untimed work included; the last stdout line is the result."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys, time\n"
        "time.sleep(0.2)  # work the run does not time\n"
        "print('progress')\n"
        "print(json.dumps({'argv': sys.argv[1:], 'metrics': {}}))\n"
    )
    result = bench_pairs.run_once(tmp_path, "large-chains", 3, 20)
    assert result["argv"] == ["--workload", "large-chains", "--seed", "3", "--seconds", "20", "--trace", "0"]
    assert 0.2 <= result["wall_s"] < bench_pairs.RUN_TIMEOUT_S
    json.dumps(result)  # a run record stays JSON
