"""The benchmark traces factgen by patching its names from outside
(``bench/tracer.py``). A renamed or deleted name does not fail a benchmark
run; it only makes that layer's metrics read as absent. This guard fails
instead."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

INSTALL_EVERY_WRAPPER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import decode_worker
from tracer import Tracer, install_cli

tracer = Tracer()
install_cli(tracer)
decode_worker.Calls().trace(tracer)
print(json.dumps(tracer.missing))
"""


def test_every_name_the_benchmark_patches_exists():
    # A subprocess: the wrappers replace attributes of factgen's modules.
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_EVERY_WRAPPER, str(BENCH_DIR)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
