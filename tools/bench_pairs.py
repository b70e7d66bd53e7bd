"""Alternating benchmark pairs: a parent checkout against a changed one.

Runs ``python3 bench/run.py --workload W --seed S --seconds T`` in each of
two checkout directories, once per seed and workload, alternating which
side runs first (the parent first on the first seed). Each run is the
benchmark's own, from its own checkout, with the interpreter that runs this
script. At the end it prints one JSON line: per ``workload/metric`` pair of
each workload and end-to-end metric, each side's per-seed values, median
and quartiles, each side's IQR as a share of its median, the pairs the
change won (a tie counts for neither side) and a verdict; the lists of the
``regressed`` and ``unresolved`` pairs; and whether every run was correct
with 0 failed.

The verdict applies these rules, in this order:

- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound, a share of the parent's median;
- ``gain``: the change won at least 9 of every 10 pairs, and its median is
  better by more than the parent's interquartile range (IQR);
- ``unresolved``: the parent's IQR is a larger share of its median than
  the bound, and not every change run reads better than every parent run;
- ``no_regression`` otherwise.

Each metric's direction ("higher" or "lower" is better) and bound come
from the ``end_to_end`` list of the parent's ``BENCHMARK.json``;
``--workload all`` means every workload that file lists, and a comma list
names several. Standard library only; it writes nothing outside the
benchmark's own run directories.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload all \
        --seeds 301-310 --seconds 45
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``301-310`` or ``301,305,307`` (or a mix) -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its final JSON line, with the exit code added."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": None, "metrics": {}}
        print(f"{checkout} seed {seed}: no result line; stderr: {proc.stderr[-2000:]}",
              file=sys.stderr)
    result["exit_code"] = proc.returncode
    return result


def iqr_share(values: list[float]) -> float:
    """The interquartile range (IQR) as a share of the median."""
    q1, median, q3 = quartiles(values)
    iqr = q3 - q1
    return iqr / abs(median) if median else (math.inf if iqr else 0.0)


def verdict(
    better: str, bound: float, parent: list[float], change: list[float], wins: int
) -> str:
    """The verdict on one metric."""
    q1, median, q3 = quartiles(parent)
    iqr = q3 - q1
    sign = 1 if better == "higher" else -1
    gain = sign * (statistics.median(change) - median)  # > 0: the change is better
    if gain < -bound * abs(median):
        return "regressed"
    if wins * 10 >= 9 * len(parent) and gain > iqr:
        return "gain"
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    if iqr_share(parent) > bound and not separated:
        return "unresolved"
    return "no_regression"


def summarize(specs: dict[str, dict], runs: dict[str, list[dict]], seeds: list[int]) -> dict:
    """Per end-to-end metric (``specs``: name -> its ``BENCHMARK.json``
    entry) that every run reports: values, quartiles, wins and verdict."""
    metrics = {}
    for name, spec in specs.items():
        values = {
            side: [run["metrics"].get(name, {}).get("value") for run in side_runs]
            for side, side_runs in runs.items()
        }
        if any(v is None for side_values in values.values() for v in side_values):
            continue  # the workload does not report this metric
        better = spec["better"]
        wins = sum(
            (change > parent) if better == "higher" else (change < parent)
            for parent, change in zip(values["parent"], values["change"])
        )
        outcome = verdict(better, spec["bound"], values["parent"], values["change"], wins)
        metrics[name] = {
            "better": better,
            "per_seed": {
                str(seed): [parent, change]
                for seed, parent, change in zip(seeds, values["parent"], values["change"])
            },
            **{
                side: dict(zip(("q1", "median", "q3"), quartiles(side_values)))
                for side, side_values in values.items()
            },
            "change_wins": wins,
            "pairs": len(seeds),
            "verdict": outcome,
            "parent_iqr_share": iqr_share(values["parent"]),
            "change_iqr_share": iqr_share(values["change"]),
            "bound": spec["bound"],
        }
    return metrics


def run_pairs(
    sides: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float
) -> dict[str, dict[str, list[dict]]]:
    """Every seed's runs of every workload, the two sides alternating which
    runs first; per workload, each side's results in seed order."""
    runs = {workload: {"parent": [], "change": []} for workload in workloads}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_bench(sides[side], workload, seed, seconds)
                runs[workload][side].append(result)
                print(f"{workload} seed {seed} {side}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}", file=sys.stderr)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma list of them, or 'all'")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 301-310")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (
        [workload["name"] for workload in benchmark["workloads"]]
        if args.workload == "all"
        else args.workload.split(",")
    )
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = run_pairs(sides, workloads, args.seeds, args.seconds)
    all_correct = all(
        run.get("correct") is True and run.get("failed") == 0 and run["exit_code"] == 0
        for workload_runs in runs.values()
        for side_runs in workload_runs.values()
        for run in side_runs
    )
    metrics = {
        f"{workload}/{name}": metric
        for workload, workload_runs in runs.items()
        for name, metric in summarize(specs, workload_runs, args.seeds).items()
    }
    for name, metric in metrics.items():
        print(f"{name}: {metric['verdict']} (parent IQR {metric['parent_iqr_share']:.1%} "
              f"of its median, change IQR {metric['change_iqr_share']:.1%}, bound "
              f"{metric['bound']:.0%}, change won {metric['change_wins']}/{metric['pairs']})",
              file=sys.stderr)
    print(json.dumps({
        "workloads": workloads,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "all_correct": all_correct,
        "metrics": metrics,
        **{
            outcome: [name for name, metric in metrics.items() if metric["verdict"] == outcome]
            for outcome in ("regressed", "unresolved")
        },
    }, sort_keys=True))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
