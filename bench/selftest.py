"""Self-test of the benchmark: tiny runs of every workload, traced and not.

Asserts that each run exits 0, that every output check passed, and that the
final line names exactly the metrics BENCHMARK.json lists, each with its
unit. It covers every workload run.py knows, including any that
BENCHMARK.json does not list. It also regenerates the data behind bench/shares.json and asserts the
recorded shares still hold, so that drift in the generator shows. It is not
part of the repository's test suite.

Usage (from the repository root): python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {set(got) ^ set(expected)}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
            print(f"ok  {workload:20s} trace={trace}  {len(got)} metrics")
    recorded = json.loads((BENCH_DIR / "shares.json").read_text())
    out = ROOT / ".bench_run" / "selftest-shares"
    try:
        shares = gen.generate(
            recorded["seed"], recorded["entities"], recorded["sentences"], str(out)
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass
    assert shares == recorded, "generator drifted from bench/shares.json"
    print("ok  generator shares match bench/shares.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
