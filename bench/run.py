"""Seeded end-to-end benchmark of factgen.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a factgen checkout; it uses the sources under
``src/`` and writes only under ``.bench_run/``, which it removes again.
Workloads (see bench/README.md for why each exists):

- ``dataset``: the CLI stages extract, filter (NLI stub over ``exec:``),
  negatives, split and targets (entity-prompt) as subprocesses, repeated
  for the given seconds; set-up is ``build-kb`` + ``build-trie``.
- ``decode-constrained``: constrained ``beam_search`` (beam 4, max_len
  256) with a per-instance oracle scorer over tries loaded from TRI1
  caches of a 20k-entity KB, then parse and score.
- ``decode-partial-wire``: ``partial``-mode ``beam_search`` on
  entity-prompt instances of a 1k-entity KB, scored by the LM stub over
  the ``exec:`` wire.

One closed-loop client; at most one factgen process and one scorer child
run at a time. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The lines above
it print the same metrics as a table, with sample counts and
``failed_share``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import stub_scorer  # noqa: E402
from tracer import SpanSummary, absent_spans  # noqa: E402

WORKLOADS = ("dataset", "decode-constrained", "decode-partial-wire")
# Per workload: KB entities, corpus sentences, instances decoded per
# pass of a traced run.
SIZES = {
    "full": {
        "dataset": (20000, 10000, 0),
        "decode-constrained": (20000, 1000, 40),
        "decode-partial-wire": (1000, 600, 6),
    },
    "tiny": {
        "dataset": (2000, 400, 0),
        "decode-constrained": (2000, 200, 4),
        "decode-partial-wire": (200, 150, 2),
    },
}
DEADLINE_S = 170.0
SETUP_REPEATS = 3
BEAM = 4
MAX_LEN = 256
NEG_FRACTION = "0.5"
THRESHOLD = stub_scorer.NLI_THRESHOLD  # the stub keeps its stated share above it
CHAIN_STAGES = ("extract", "filter", "negatives", "split", "targets")
SETUP_STAGES = ("build-kb", "build-trie")

# The end-to-end metrics of BENCHMARK.json, which the JSON line carries.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sentences_per_s": "sentences/s",
    "instances_per_s": "instances/s",
    "instance_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Printed in the table only: on a host whose speed shifts between states,
# the per-instance median jumps between two latency clusters and its
# run-to-run spread exceeds any bound the benchmark may set.
TABLE_ONLY_UNITS = {"instance_ms_p50": "ms"}
CLI_METRICS = {
    **{f"cli.stage_s.{s}": "s" for s in SETUP_STAGES + CHAIN_STAGES},
    **{f"cli.stage_rss_mb.{s}": "MB" for s in SETUP_STAGES + CHAIN_STAGES},
}


class BenchError(Exception):
    """The run cannot go on; no result is printed."""


class Child:
    """Runs one child process to completion, with its wall time and peak RSS."""

    def __init__(self, root: Path, run_dir: Path, deadline: float) -> None:
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.count = 0

    def run(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Return (wall seconds, peak RSS in MB, exit code, stderr tail)."""
        self.count += 1
        log_path = self.run_dir / f"child-{self.count}.log"
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[:3]))
        killed = []

        with open(log_path, "wb") as log:
            began = perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log,
            )

            def kill() -> None:
                killed.append(True)
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        if killed:
            tail += "\n(killed at the run deadline)"
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, tail


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Run:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.root = root
        self.run_dir = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.entities, self.sentences, self.trace_instances = SIZES[args.size][args.workload]
        self.child = Child(root, self.run_dir, perf_counter() + DEADLINE_S)
        self.python = sys.executable
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    # -- helpers ---------------------------------------------------------

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def data(self, name: str) -> str:
        return self.rel(self.run_dir / "data" / name)

    def kb_flags(self) -> list[str]:
        return [
            "--kb-entities", self.data("entities.tsv"),
            "--kb-relations", self.data("relations.tsv"),
            "--kb-triples", self.data("triples.tsv"),
        ]

    def stub_spec(self) -> str:
        return "exec:" + shlex.join([self.python, self.rel(BENCH_DIR / "stub_scorer.py")])

    def stage(self, args: list[str], spans: Path | None = None, measured: bool = True) -> tuple[float, float]:
        """Run one factgen CLI stage; a non-zero exit is a failure.

        Stages that only prepare a decode workload's inputs are not
        ``measured``: they do not count as attempted work.
        """
        if spans is None:
            argv = [self.python, "-m", "factgen", *args]
        else:
            argv = [self.python, self.rel(BENCH_DIR / "tracer.py"), "--spans",
                    self.rel(spans), "--", *args]
        wall, rss, code, tail = self.child.run(argv)
        self.attempted += measured
        if code != 0:
            self.failures.append(f"stage {args[0]} exited {code}: {tail.strip()[-500:]}")
            raise BenchError(self.failures[-1])
        return wall, rss

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def generate(self) -> None:
        wall, _, code, tail = self.child.run([
            self.python, self.rel(BENCH_DIR / "gen.py"), "--seed", str(self.args.seed),
            "--entities", str(self.entities), "--sentences", str(self.sentences),
            "--out", self.rel(self.run_dir / "data"),
        ])
        if code != 0:
            raise BenchError(f"generator failed: {tail}")
        shares = json.loads((self.run_dir / "data" / "shares.json").read_text())
        self.notes.append("generated: " + json.dumps(shares, sort_keys=True))

    def build_tries(
        self, out_dir: Path, spans_dir: Path | None = None, measured: bool = True
    ) -> tuple[float, float, float, float]:
        """build-kb then build-trie into out_dir; (wall, rss) of each."""
        out_dir.mkdir(parents=True, exist_ok=True)
        kb_wall, kb_rss = self.stage(
            ["build-kb", *self.kb_flags(), "--out", self.rel(out_dir / "kb-stats.json")],
            spans_dir / "build-kb.spans" if spans_dir else None,
            measured,
        )
        trie_wall, trie_rss = self.stage(
            ["build-trie", *self.kb_flags(),
             "--out-entity", self.rel(out_dir / "entity.trie"),
             "--out-relation", self.rel(out_dir / "relation.trie"),
             "--out-tail", self.rel(out_dir / "tail.trie")],
            spans_dir / "build-trie.spans" if spans_dir else None,
            measured,
        )
        return kb_wall, kb_rss, trie_wall, trie_rss

    # -- dataset ---------------------------------------------------------

    def chain(self, out: Path, spans_dir: Path | None = None) -> dict[str, tuple[float, float]]:
        """The five dataset stages into ``out``; (wall, rss) per stage."""
        out.mkdir(parents=True, exist_ok=True)
        seed = str(self.args.seed)
        o = lambda name: self.rel(out / name)  # noqa: E731
        commands = {
            "extract": ["extract", "--input", self.data("sentences.jsonl"), *self.kb_flags(),
                        "--out", o("extracted.jsonl")],
            "filter": ["filter", "--input", o("extracted.jsonl"), *self.kb_flags(),
                       "--templates", self.data("templates.jsonl"), "--threshold", str(THRESHOLD),
                       "--scorer", self.stub_spec(), "--out", o("filtered.jsonl")],
            "negatives": ["negatives", "--input", o("filtered.jsonl"), *self.kb_flags(),
                          "--neg-fraction", NEG_FRACTION, "--seed", seed,
                          "--out", o("dataset.jsonl")],
            "split": ["split", "--input", o("dataset.jsonl"), "--split", "90,5,5",
                      "--seed", seed, "--out-dir", o("splits")],
            "targets": ["targets", "--input", o("dataset.jsonl"), *self.kb_flags(),
                        "--mode", "entity-prompt", "--out", o("instances.jsonl")],
        }
        return {
            name: self.stage(args, spans_dir / f"{name}.spans" if spans_dir else None)
            for name, args in commands.items()
        }

    def check_dataset(self, out: Path) -> int:
        """Output checks on one chain; returns the number of instances."""
        data = self.run_dir / "data"
        gold = {row["id"]: row for row in _jsonl(data / "gold.jsonl")}
        extracted = _jsonl(out / "extracted.jsonl")
        self.check(
            [r["id"] for r in extracted] == [i for i, g in gold.items() if not g["dropped"]]
            and all(_triples(r) == {tuple(t) for t in gold[r["id"]]["triples"]} for r in extracted),
            "extract: DS triples differ from the generator's pair enumeration",
        )
        filtered = _jsonl(out / "filtered.jsonl")
        expected = _reference_filter(data, extracted)
        self.check(
            [_triples(r) for r in filtered] == expected,
            "filter: kept triples differ from the reference entailment filter",
        )
        dataset = _jsonl(out / "dataset.jsonl")
        positives = sum(1 for r in dataset if r["triples"])
        negatives = [r for r in dataset if r["is_negative"]]
        self.check(
            positives == sum(1 for t in expected if t)
            and len(negatives) == positives
            and not any(r["triples"] for r in negatives),
            "negatives: expected one triple-free negative per positive",
        )
        split_rows = sum(len(_jsonl(out / "splits" / f"{n}.jsonl"))
                         for n in ("train", "validation", "test"))
        self.check(split_rows == len(dataset), "split: parts do not partition the dataset")
        instances = _jsonl(out / "instances.jsonl")
        self.check(
            [i["id"] for i in instances] == [r["id"] for r in dataset]
            and all(("[TRIPLE] <sub>" in i["target"]) == bool(r["triples"])
                    for i, r in zip(instances, dataset)),
            "targets: entity-prompt instances do not match the dataset",
        )
        return len(instances)

    def dataset(self) -> dict:
        self.generate()
        if self.args.trace:
            return self.dataset_traced()
        setups = []
        for _ in range(SETUP_REPEATS):
            kb_wall, _, trie_wall, _ = self.build_tries(self.run_dir / "setup")
            setups.append(kb_wall + trie_wall)
        first = self.run_dir / "chain0"
        out = self.run_dir / "chain"
        walls: list[float] = []
        stage_total = 0.0
        rss = 0.0
        chains = 0
        instances = 0
        began = perf_counter()
        # At least two chains, so that every run checks byte-identical reruns.
        while chains < 2 or perf_counter() - began < self.args.seconds:
            stages = self.chain(out)
            wall = sum(w for w, _ in stages.values())
            walls.append(wall)
            stage_total += wall
            rss = max(rss, *(r for _, r in stages.values()))
            if chains == 0:
                instances = self.check_dataset(out)
                out.rename(first)
            else:
                self.check(_same_tree(first, out), f"chain {chains}: outputs differ from chain 0")
                shutil.rmtree(out)
            chains += 1
        self.notes.append(
            f"{chains} chains of {self.sentences} sentences -> {instances} instances; "
            f"instance latency = chain wall time, {chains} samples "
            f"({chains * instances} instances)"
        )
        return {
            "setup_s": statistics.median(setups),
            "sentences_per_s": chains * self.sentences / stage_total,
            "instances_per_s": chains * instances / stage_total,
            "instance_ms_p50": quantile(walls, 0.5) * 1e3,
            "instance_ms_p90": quantile(walls, 0.9) * 1e3,
            "peak_rss_mb": rss,
        }

    def dataset_traced(self) -> dict:
        plain_setup = self.build_tries(self.run_dir / "setup")
        plain = self.chain(self.run_dir / "chain")
        self.check_dataset(self.run_dir / "chain")
        (self.run_dir / "chain").rename(self.run_dir / "chain0")
        spans_dir = self.run_dir / "spans"
        spans_dir.mkdir()
        traced_setup = self.build_tries(self.run_dir / "setup-traced", spans_dir)
        traced = self.chain(self.run_dir / "chain", spans_dir)
        self.check(_same_tree(self.run_dir / "chain0", self.run_dir / "chain"),
                   "traced chain outputs differ from the untraced chain")
        metrics = {}
        stages = {"build-kb": plain_setup[0:2], "build-trie": plain_setup[2:4], **plain}
        for name, (wall, rss) in stages.items():
            metrics[f"cli.stage_s.{name}"] = wall
            metrics[f"cli.stage_rss_mb.{name}"] = rss
        untraced = plain_setup[0] + plain_setup[2] + sum(w for w, _ in plain.values())
        traced_wall = traced_setup[0] + traced_setup[2] + sum(w for w, _ in traced.values())
        return self.layer_metrics(sorted(spans_dir.glob("*.spans")), metrics,
                                  traced_wall / untraced)

    # -- decode workloads -----------------------------------------------

    def decode(self) -> dict:
        self.generate()
        partial = self.args.workload == "decode-partial-wire"
        prep = self.run_dir / "prep"
        self.build_tries(prep, measured=False)
        o = lambda name: self.rel(prep / name)  # noqa: E731
        self.stage(["extract", "--input", self.data("sentences.jsonl"), *self.kb_flags(),
                    "--out", o("extracted.jsonl")], measured=False)
        self.stage(["targets", "--input", o("extracted.jsonl"), *self.kb_flags(),
                    "--mode", "entity-prompt" if partial else "standard",
                    "--out", o("instances.jsonl")], measured=False)
        config = {
            "mode": "partial" if partial else "constrained",
            "scorer": self.stub_spec() if partial else "",
            "kb": [self.data("entities.tsv"), self.data("relations.tsv"), self.data("triples.tsv")],
            "tries": [o("entity.trie"), o("relation.trie"), o("tail.trie")],
            "instances": o("instances.jsonl"),
            "dataset": o("extracted.jsonl"),
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "beam": BEAM,
            "max_len": MAX_LEN,
            "trace": bool(self.args.trace),
            "trace_instances": self.trace_instances,
            "spans": self.rel(self.run_dir / "decode.spans"),
            "result": self.rel(self.run_dir / "worker.json"),
        }
        config_path = self.run_dir / "worker-config.json"
        config_path.write_text(json.dumps(config, indent=2))
        _, rss, code, tail = self.child.run(
            [self.python, self.rel(BENCH_DIR / "decode_worker.py"), self.rel(config_path)]
        )
        if code != 0:
            raise BenchError(f"decode worker exited {code}: {tail}")
        result = json.loads((self.run_dir / "worker.json").read_text())
        self.attempted += result["attempted"]
        self.failures.extend(result["failures"])
        if "report" in result:
            self.notes.append("score report: " + json.dumps(result["report"], sort_keys=True))
        latencies = result["latencies_s"]
        instances = result["instances"]
        if self.args.trace:
            metrics = {name: 0.0 for name in CLI_METRICS}
            return self.layer_metrics([self.run_dir / "decode.spans"], metrics,
                                      result["traced_s"] / result["untraced_s"])
        p90 = quantile(latencies, 0.9)
        beyond = sum(1 for v in latencies if v > p90)
        self.notes.append(
            f"{instances} instances decoded in {result['elapsed_s']:.2f} s; "
            f"instance_ms_p90 has {len(latencies)} samples, {beyond} beyond it; "
            f"{len(result['setup_s'])} set-ups"
        )
        rate = instances / result["elapsed_s"]
        return {
            "setup_s": statistics.median(result["setup_s"]),
            # Each decode instance is one sentence.
            "sentences_per_s": rate,
            "instances_per_s": rate,
            "instance_ms_p50": quantile(latencies, 0.5) * 1e3,
            "instance_ms_p90": p90 * 1e3,
            "peak_rss_mb": rss,
        }

    # -- traced metrics --------------------------------------------------

    def layer_metrics(self, span_files: list[Path], cli_metrics: dict, overhead: float) -> dict:
        summary = SpanSummary()
        for path in span_files:
            summary.add_file(str(path))
        metrics = {name: {"value": cli_metrics[name], "unit": unit}
                   for name, unit in CLI_METRICS.items()}
        metrics.update(summary.layer_metrics(absent_spans(summary.missing)))
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        if summary.missing:
            self.notes.append("absent (renamed or removed): " + ", ".join(sorted(summary.missing)))
        return metrics

    # -- entry -----------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        """(metrics for the JSON line, metrics for the table only)."""
        self.run_dir.mkdir(parents=True)
        values = self.dataset() if self.args.workload == "dataset" else self.decode()
        if self.args.trace:
            return values, {}
        return tuple(
            {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
            for units in (END_TO_END_UNITS, TABLE_ONLY_UNITS)
        )


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _triples(row: dict) -> set[tuple[str, str, str]]:
    return {(t["head"], t["pid"], t["tail"]) for t in row["triples"]}


def _reference_filter(data: Path, extracted: list[dict]) -> list[set]:
    """Kept triples per row, from the stub's NLI scores and README's templates."""
    labels = dict(line.split("\t") for line in (data / "entities.tsv").read_text().splitlines())
    relations = {p: label for p, label, _ in
                 (line.split("\t") for line in (data / "relations.tsv").read_text().splitlines())}
    templates = {row["pid"]: row["templates"] for row in _jsonl(data / "templates.jsonl")}
    kept = []
    for row in extracted:
        keep = set()
        for head, pid, tail in _triples(row):
            h, t = labels[head], labels.get(tail, tail)
            hypotheses = [x.format(head=h, tail=t) for x in templates.get(pid, ())] or [
                f"{h} {relations[pid]} {t}."
            ]
            if max(stub_scorer.nli_entail(row["text"], x) for x in hypotheses) > THRESHOLD:
                keep.add((head, pid, tail))
        kept.append(keep)
    return kept


def _same_tree(a: Path, b: Path) -> bool:
    """Byte-identical files under both directories, manifests included."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in files_a
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="factgen benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="'tiny' is for the self-test only")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error: the current child is killed and reaped
    # and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "factgen" / "__init__.py").is_file():
        print("bench: run from the root of a factgen checkout (no src/factgen here)",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        metrics, table_only = run.execute()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
        try:
            run.run_dir.parent.rmdir()
        except OSError:
            pass
    for note in run.notes:
        print(f"# {note}")
    for name, metric in {**metrics, **table_only}.items():
        value = metric["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload:20s} {name:40s} {shown:>14s} {metric['unit']}")
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    print(f"{args.workload:20s} {'failed_share':40s} {failed / attempted:>14.6g} failed/attempted")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
