"""Compare two commits on the benchmark and write one BENCH_<n>.json.

Run from the repository root, with the parent commit first:

    python3 tools/bench_pairs.py PARENT CHANGE BENCH_32.json --title "what the change does"

Each commit is extracted with `git archive` into its own temporary
directory.  The change's BENCHMARK.json gives the command, workloads,
run seconds and bounds.  For every workload and each seed i = 1..10 the
command runs once per side from that side's directory,

    python3 perfbench/run.py --workload W --seed i --seconds 20 --trace 0

with PYTHONDONTWRITEBYTECODE=1; the parent runs first for odd seeds and
the change first for even seeds.  The last stdout line of each run is its
JSON result.  The file records, for each end-to-end metric, the median
and quartiles of each side, the parent's spread, the change's median
move, how many pairs the change won and lost, and a verdict against the
metric's bound.  No gain is claimed or judged.  A run that exits
nonzero, or whose last stdout line is not a JSON result, is listed with
its reason under its workload's "crashed" key and the job goes on; the
statistics then use the seeds where both sides ran.  The script
exits 1 if a run crashed or reported a wrong product.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

#: Pairs of runs per workload, one per seed 1..PAIRS.
PAIRS = 10
STATISTICS = (
    "median and quartiles (statistics.quantiles, method inclusive) over the ten runs of each side; "
    "iqr_frac_of_median is the parent's (q3 - q1) / median; a pair counts as better or worse by the "
    "metric's direction, ties counting for neither; a metric is unresolved where the parent's IQR "
    "exceeds its bound and not every change run beats every parent run"
)
CLAIM = "none: no gain is claimed; every end-to-end metric must stay within its BENCHMARK.json bound"


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract(rev, root):
    """A fresh copy of rev's tree under root; its path."""
    path = os.path.join(root, rev)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(path)
    return path


#: The keys of a run's JSON result that the statistics read.
RESULT_KEYS = {"correct", "metrics", "attempted", "failed"}


def run_once(command, copy, workload, seed, seconds):
    """(the run's JSON result, None), or (None, why the run gave none): it
    exited nonzero, or its last stdout line is no JSON object with RESULT_KEYS."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        why = f"exited {proc.returncode}"
    elif not lines:
        why = "printed nothing"
    else:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict) and RESULT_KEYS <= result.keys():
            return result, None
        why = "last stdout line is not a JSON result"
    print(f"{' '.join(argv)} in {copy}: {why}:\n{proc.stdout}{proc.stderr}", file=sys.stderr)
    return None, why


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric, parent_runs, change_runs):
    """One metric's entry: both sides' quartiles, pairs won and lost, verdict."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    parent, change = summary(parent_runs), summary(change_runs)
    iqr = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
    move = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    change_beats_all = min(sign * c for c in change_runs) > max(sign * p for p in parent_runs)
    if iqr > bound and not change_beats_all:
        verdict = "unresolved (parent IQR exceeds bound)"
    elif -sign * move > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": {**parent, "iqr_frac_of_median": round(iqr, 4)},
        "change": change,
        "median_change_frac": round(move, 4),
        "pairs_change_better": sum(g > 0 for g in gains),
        "pairs_change_worse": sum(g < 0 for g in gains),
        "verdict": verdict,
        "runs": {"parent": parent_runs, "change": change_runs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("change", help="the commit to compare with it")
    parser.add_argument("out", help="the file to write, BENCH_<n>.json")
    parser.add_argument("--title", required=True, help="what the change does, one line")
    parser.add_argument("--host", default=f"{os.cpu_count()}-core host", help="the machine, as far as known")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    commits = {side: git("rev-parse", f"{rev}^{{commit}}").decode().strip() for side, rev in sides.items()}
    seeds = list(range(1, PAIRS + 1))
    first = {str(i): "parent" if i % 2 else "change" for i in seeds}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as root:
        copies = {side: extract(commit, root) for side, commit in commits.items()}
        with open(os.path.join(copies["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        command = spec["command"]
        seconds = spec["run_seconds"]
        python = subprocess.run(
            [command[0], "-c", "import platform; print(platform.python_version())"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        workloads = {}
        wrong, crashed = [], []
        for workload in (w["name"] for w in spec["workloads"]):
            results, lost = {"parent": {}, "change": {}}, []
            for i in seeds:
                order = ("parent", "change") if first[str(i)] == "parent" else ("change", "parent")
                for side in order:
                    result, why = run_once(command, copies[side], workload, i, seconds)
                    if result is None:
                        lost.append(f"seed {i} {side}: {why}")
                        continue
                    results[side][i] = result
                    if not result["correct"]:
                        wrong.append(f"{workload} seed {i} {side}")
                    print(f"{workload} seed {i} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
            paired = [i for i in seeds if all(i in rs for rs in results.values())]
            runs = {side: [rs[i] for i in paired] for side, rs in results.items()}
            workloads[workload] = {
                "seeds": paired,
                "first": first,
                "metrics": {
                    m["name"]: compare(
                        m,
                        [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    )
                    for m in spec["end_to_end"]
                } if len(paired) > 1 else {},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            }
            if lost:
                workloads[workload]["crashed"] = lost
                crashed += [f"{workload} {run}" for run in lost]
    run = " ".join([*command, "--workload W --seed i --seconds", f"{seconds:g}", "--trace 0"])
    bench = {
        "series": "BENCH",
        "change": args.title,
        "claim": CLAIM,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "change_src_tree": git("rev-parse", f"{commits['change']}:src").decode().strip(),
        "change_commit_note": "the commit that was benchmarked; a later commit with the same src_tree ships the same code",
        "python": python,
        "host": f"{args.host}; parent and change each ran from its own fresh `git archive` copy with "
        "PYTHONDONTWRITEBYTECODE=1",
        "command": run,
        "seeds": seeds,
        "order": "one pair per seed; the parent ran first for odd seeds, the change first for even seeds",
        "statistics": STATISTICS,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for name, workload in workloads.items():
        for metric, entry in workload["metrics"].items():
            print(f"{name} {metric}: {entry['parent']['median']:.6g} -> {entry['change']['median']:.6g} "
                  f"({entry['median_change_frac']:+.2%}), {entry['verdict']}")
    if crashed:
        print(f"crashed runs: {', '.join(crashed)}", file=sys.stderr)
    if wrong:
        print(f"wrong products: {', '.join(wrong)}", file=sys.stderr)
    return 1 if crashed or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
