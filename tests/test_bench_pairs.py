"""tools/bench_pairs.py: compare's verdicts and pair counts, and runs that
give no result.  Loaded by path; runs neither git nor the benchmark."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "x", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "x", "unit": "ms", "better": "lower", "bound": 0.2}
STEADY = [100.0] * 10
#: 50, 60, ..., 140: median 95, quartiles 72.5 and 117.5, IQR 47% of the median.
SPREAD = [float(v) for v in range(50, 150, 10)]
UNRESOLVED = "unresolved (parent IQR exceeds bound)"


@pytest.mark.parametrize(
    "metric,parent,change,verdict",
    [
        (HIGHER, STEADY, [80.0] * 10, "within bound"),  # -20% against 0.25
        (LOWER, STEADY, [119.0] * 10, "within bound"),  # +19% against 0.2
        (HIGHER, STEADY, [70.0] * 10, "worse than bound"),
        (LOWER, STEADY, [121.0] * 10, "worse than bound"),
        (HIGHER, SPREAD, SPREAD, UNRESOLVED),
        (HIGHER, SPREAD, [v / 2 for v in SPREAD], UNRESOLVED),
        # every change run beats every parent run: resolved despite the spread
        (HIGHER, SPREAD, [v + 100 for v in SPREAD], "within bound"),
        (LOWER, SPREAD, [v / 4 for v in SPREAD], "within bound"),
    ],
    ids=["higher-within", "lower-within", "higher-worse", "lower-worse", "unresolved", "unresolved-worse",
         "higher-wins-all", "lower-wins-all"],
)
def test_compare_verdicts(metric, parent, change, verdict):
    entry = bench_pairs.compare(metric, parent, change)
    assert entry["verdict"] == verdict
    assert entry["runs"] == {"parent": parent, "change": change}


def test_compare_quartiles_and_move():
    entry = bench_pairs.compare(HIGHER, SPREAD, [v + 100 for v in SPREAD])
    assert entry["parent"] == {"median": 95.0, "q1": 72.5, "q3": 117.5, "iqr_frac_of_median": round(45 / 95, 4)}
    assert entry["median_change_frac"] == round(100 / 95, 4)


@pytest.mark.parametrize("metric,better,worse", [(HIGHER, 2, 3), (LOWER, 3, 2)], ids=["higher", "lower"])
def test_ties_count_for_neither_side(metric, better, worse):
    change = [100.0, 101.0, 99.0, 100.0, 100.0, 102.0, 97.0, 100.0, 98.0, 100.0]
    entry = bench_pairs.compare(metric, STEADY, change)
    assert (entry["pairs_change_better"], entry["pairs_change_worse"]) == (better, worse)


RESULT = {"correct": True, "metrics": {"x": {"value": 1.0}}, "attempted": 1, "failed": 0}
NO_RESULT = "last stdout line is not a JSON result"


@pytest.mark.parametrize(
    "code,why",
    [
        ("pass", "printed nothing"),
        ("print('warming up'); print('done')", NO_RESULT),
        ("print('[1, 2]')", NO_RESULT),
        ("print('{\"correct\": true}')", NO_RESULT),
        (f"import sys; print({json.dumps(RESULT)!r}); sys.exit(3)", "exited 3"),
    ],
    ids=["no-output", "no-json", "json-list", "partial-result", "nonzero-exit"],
)
def test_run_once_names_a_run_without_a_result(tmp_path, code, why):
    assert bench_pairs.run_once([sys.executable, "-c", code], tmp_path, "w", 1, 20) == (None, why)


def test_a_run_without_a_result_is_recorded_and_the_job_goes_on(tmp_path, monkeypatch):
    # a fake benchmark that logs a line before its result, and whose
    # change side prints no result at seed 2
    script = (
        "import os, sys\n"
        "print('log')\n"
        "if os.path.basename(os.getcwd()) != 'change' or sys.argv[sys.argv.index('--seed') + 1] != '2':\n"
        f"    print({json.dumps(RESULT)!r})\n"
    )
    spec = {"command": [sys.executable, "-c", script], "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [HIGHER]}

    def extract(rev, root):
        os.makedirs(os.path.join(root, rev))
        Path(root, rev, "BENCHMARK.json").write_text(json.dumps(spec))
        return os.path.join(root, rev)

    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1].split("^")[0].encode())
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["parent", "change", str(out), "--title", "t"]) == 1
    workload = json.loads(out.read_text())["workloads"]["w"]
    assert workload["crashed"] == [f"seed 2 change: {NO_RESULT}"]
    assert workload["seeds"] == [1, 3]
    assert workload["metrics"]["x"]["runs"] == {"parent": [1.0, 1.0], "change": [1.0, 1.0]}
