"""Span tracing from outside factgen, and the per-layer metrics derived from it.

Spans are recorded by wrapping factgen's public names where they are
called (module attributes such as ``factgen.cli.extract_ds_triples``, or
methods such as ``GenStateMachine.advance``). Each span has a name, a start,
an end, a parent span and an instance id, plus up to three numbers the
wrapper reads from the call (a length, a byte count). Spans stay in memory
as flat arrays and are written once, when the traced process ends. A name
that no longer exists is skipped and reported, so its metrics read absent.

Run a CLI stage traced:

    python3 bench/tracer.py --spans OUT.spans -- extract --input ... --out ...
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import sys
from array import array
from time import perf_counter

_VALUES = 3


class Tracer:
    """In-memory span store with a stack for parents."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.instance = array("q")
        self.values = [array("d") for _ in range(_VALUES)]
        self.failures: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.instance_id = -1
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, func, name: str, values=None):
        """Return ``func`` recording one span per call under ``name``.

        ``values(args, kwargs, result)`` returns up to three numbers stored
        with the span; it runs after the span has ended.
        """
        name_id = self._name_id(name)
        stack = self._stack
        starts, ends, parents, names, instances = (
            self.start, self.end, self.parent, self.name, self.instance
        )
        value_arrays = self.values
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            names.append(name_id)
            instances.append(tracer.instance_id)
            starts.append(0.0)
            ends.append(0.0)
            for column in value_arrays:
                column.append(0.0)
            stack.append(index)
            began = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.failures[name] = tracer.failures.get(name, 0) + 1
                raise
            finally:
                ends[index] = perf_counter()
                starts[index] = began
                stack.pop()
            if values is not None:
                for column, value in zip(value_arrays, values(args, kwargs, result)):
                    column[index] = value
            return result

        traced.__wrapped__ = func
        return traced

    def patch(self, owner, attribute: str, name: str, values=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper, if it exists."""
        func = getattr(owner, attribute, None)
        if func is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        setattr(owner, attribute, self.wrap(func, name, values))

    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "spans": len(self.start),
            "failures": self.failures,
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.start, self.end, self.parent, self.name, self.instance, *self.values):
                column.tofile(handle)


def load_spans(path: str) -> dict:
    """Read a file written by :meth:`Tracer.dump` back into arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for code in ("d", "d", "q", "H", "q", *["d"] * _VALUES):
            column = array(code)
            column.fromfile(handle, count)
            columns.append(column)
    header["columns"] = columns
    return header


# -- wrapping factgen ------------------------------------------------------


def _size_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _request_values(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs["payload"]
    candidates = len(payload["candidates"]) if payload.get("type") == "lm" else -1
    # Both sides of the stub write json.dumps(obj) + "\n", so re-encoding the
    # parsed objects gives the bytes that crossed the wire.
    return candidates, len(json.dumps(payload)) + 1, len(json.dumps(result)) + 1


def install_common(tracer: Tracer) -> None:
    """Wrap the methods every workload reaches through factgen's own calls."""
    from factgen import decode, kb, pipeline, scorers, tokenizers, trie

    tracer.patch(kb.KbStore, "relations_between", "kb.relations_between")
    tracer.patch(
        pipeline.HypothesisTemplates, "hypotheses_for", "pipeline.hypotheses_for",
        lambda a, k, r: (len(r),),
    )
    tracer.patch(tokenizers.ByteTokenizer, "encode", "tokenizers.encode")
    tracer.patch(
        trie.ConstraintTrie, "allowed_continuations", "trie.allowed_continuations",
        lambda a, k, r: (len(a[1]) + 1,),
    )
    tracer.patch(
        trie.ConstraintTrie, "save", "trie.save", lambda a, k, r: (_size_of(a[1]),)
    )
    tracer.patch(decode.GenStateMachine, "advance", "decode.advance")
    tracer.patch(decode.GenStateMachine, "allowed_tokens", "decode.allowed_tokens")
    tracer.patch(scorers.ExternalScorerClient, "request", "scorers.request", _request_values)


class _BackfillCounter(logging.Handler):
    """Counts the backfill that ``sample_negatives`` reports only as a warning."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "backfilling" in record.msg and record.args:
            counters = self.tracer.counters
            counters["pipeline.negatives_backfill"] = (
                counters.get("pipeline.negatives_backfill", 0) + record.args[0]
            )


def install_cli(tracer: Tracer) -> None:
    """Wrap the names ``factgen.cli`` calls, in its own namespace."""
    from factgen import cli

    install_common(tracer)
    tracer.patch(cli, "load_kb", "kb.load")
    for attribute in ("load_input_sentences", "load_dataset", "load_predictions"):
        tracer.patch(cli, attribute, "records.read")
    read_jsonl = getattr(cli, "read_jsonl", None)
    if read_jsonl is None:
        tracer.missing.append("factgen.cli.read_jsonl")
    else:
        # A generator finishes its work only when consumed: consume it inside
        # the span. Both CLI callers build a list from it anyway.
        materialize = tracer.wrap(lambda *a, **k: list(read_jsonl(*a, **k)), "records.read")
        cli.read_jsonl = lambda *a, **k: iter(materialize(*a, **k))
    tracer.patch(cli, "write_jsonl", "records.write", lambda a, k, r: (_size_of(a[0]),))
    tracer.patch(cli, "extract_ds_triples", "pipeline.extract", lambda a, k, r: (len(r),))
    tracer.patch(
        cli, "entailment_filter", "pipeline.filter", lambda a, k, r: (len(a[1]), len(r))
    )
    tracer.patch(cli, "sample_negatives", "pipeline.negatives")
    tracer.patch(cli, "split_dataset", "pipeline.split")
    for attribute in (
        "order_triples",
        "linearize",
        "entity_linking_chain",
        "build_entity_prompt_target",
        "build_artificial_prompt_instances",
        "build_dual_target_instance",
    ):
        tracer.patch(cli, attribute, "linearize.targets")
    tracer.patch(cli, "build_trie", "trie.build", lambda a, k, r: (r.node_count,))
    logging.getLogger("factgen.pipeline").addHandler(_BackfillCounter(tracer))


# -- per-layer metrics -----------------------------------------------------

# name -> (unit, span name, statistic). Statistics: "time" (summed span
# time, inclusive), "self" (minus child spans), "calls", "v0"/"v1"/"v2"
# (summed span values), or a derived one computed in SpanSummary._statistic.
# The metric reads absent when its span's wrapped name is missing.
LAYER_SPANS = {
    "kb.load_s": ("s", "kb.load", "time"),
    "kb.load_calls": ("count", "kb.load", "calls"),
    "kb.pair_lookups": ("count", "kb.relations_between", "calls"),
    "records.read_s": ("s", "records.read", "time"),
    "records.write_s": ("s", "records.write", "time"),
    "records.bytes_written": ("bytes", "records.write", "v0"),
    "pipeline.extract_s": ("s", "pipeline.extract", "time"),
    "pipeline.filter_s": ("s", "pipeline.filter", "time"),
    "pipeline.negatives_s": ("s", "pipeline.negatives", "time"),
    "pipeline.split_s": ("s", "pipeline.split", "time"),
    "pipeline.ds_triples": ("count", "pipeline.extract", "v0"),
    "pipeline.hypotheses": ("count", "pipeline.hypotheses_for", "v0"),
    "pipeline.filter_kept_ratio": ("ratio", "pipeline.filter", "kept_ratio"),
    "linearize.targets_s": ("s", "linearize.targets", "time"),
    "linearize.parse_s": ("s", "linearize.parse", "time"),
    "tokenizers.encode_calls": ("count", "tokenizers.encode", "calls"),
    "tokenizers.encode_s": ("s", "tokenizers.encode", "time"),
    "trie.build_s": ("s", "trie.build", "time"),
    "trie.save_s": ("s", "trie.save", "time"),
    "trie.load_s": ("s", "trie.load", "time"),
    "trie.nodes": ("count", "trie.load", "nodes"),
    "trie.cache_bytes": ("bytes", "trie.load", "cache_bytes"),
    "trie.lookups": ("count", "trie.allowed_continuations", "calls"),
    "trie.node_visits": ("count", "trie.allowed_continuations", "v0"),
    "trie.lookup_s": ("s", "trie.allowed_continuations", "time"),
    "decode.beam_steps": ("count", "decode.beam_search", "steps"),
    "decode.wasted_step_ratio": ("ratio", "decode.beam_search", "wasted"),
    "decode.candidates": ("count", "bench.score", "v0"),
    "decode.advance_calls": ("count", "decode.advance", "calls"),
    "decode.advance_s": ("s", "decode.advance", "time"),
    "decode.allowed_tokens_calls": ("count", "decode.allowed_tokens", "calls"),
    "decode.allowed_tokens_s": ("s", "decode.allowed_tokens", "time"),
    "decode.search_self_s": ("s", "decode.beam_search", "self"),
    "scorers.lm_requests": ("count", "scorers.request", "lm_calls"),
    "scorers.candidates_per_lm_request": ("count", "scorers.request", "lm_candidates"),
    "scorers.request_us_p50": ("us", "scorers.request", "p50"),
    "scorers.request_us_p90": ("us", "scorers.request", "p90"),
    "scorers.bytes_sent": ("bytes", "scorers.request", "v1"),
    "scorers.bytes_received": ("bytes", "scorers.request", "v2"),
    "scorers.nli_requests": ("count", "scorers.request", "nli_calls"),
    "scorers.failed": ("count", "scorers.request", "failures"),
    "evaluation.score_s": ("s", "evaluation.score", "time"),
}


class SpanSummary:
    """Per-name sums over one or more span files."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.value_sums: dict[str, list[float]] = {}
        self.durations: dict[str, list[float]] = {}
        self.failures: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self.request_kinds = {"lm": 0, "nli": 0, "lm_candidates": 0}
        self.steps = 0
        self.wasted_steps = 0
        self.kept = [0, 0]

    def add_file(self, path: str) -> None:
        data = load_spans(path)
        names = data["names"]
        start, end, parent, name, instance, v0, v1, v2 = data["columns"]
        count = len(start)
        child_time = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        steps_by_instance: dict[int, int] = {}
        best_by_instance: dict[int, int] = {}
        for i in range(count):
            label = names[name[i]]
            duration = end[i] - start[i]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.time[label] = self.time.get(label, 0.0) + duration
            self.self_time[label] = self.self_time.get(label, 0.0) + duration - child_time[i]
            sums = self.value_sums.setdefault(label, [0.0, 0.0, 0.0])
            sums[0] += v0[i]
            sums[1] += v1[i]
            sums[2] += v2[i]
            if label == "scorers.request":
                self.durations.setdefault(label, []).append(duration)
                if v0[i] >= 0:
                    self.request_kinds["lm"] += 1
                    self.request_kinds["lm_candidates"] += v0[i]
                else:
                    self.request_kinds["nli"] += 1
            elif label == "bench.score":
                # v1 is the length of the generated prefix: step index.
                steps = int(v1[i]) + 1
                if steps > steps_by_instance.get(instance[i], 0):
                    steps_by_instance[instance[i]] = steps
            elif label == "decode.beam_search":
                best_by_instance[instance[i]] = int(v0[i])
            elif label == "pipeline.filter":
                self.kept[0] += int(v0[i])
                self.kept[1] += int(v1[i])
        for inst, steps in steps_by_instance.items():
            self.steps += steps
            best = best_by_instance.get(inst, steps)
            self.wasted_steps += max(0, steps - best)
        for label, failed in data["failures"].items():
            self.failures[label] = self.failures.get(label, 0) + failed
        for key, value in data["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.missing.update(data["missing"])

    def _statistic(self, span: str, statistic: str) -> float:
        if statistic == "time":
            return self.time.get(span, 0.0)
        if statistic == "self":
            return self.self_time.get(span, 0.0)
        if statistic == "calls":
            return self.calls.get(span, 0)
        if statistic in ("v0", "v1", "v2"):
            return self.value_sums.get(span, [0.0] * 3)[int(statistic[1])]
        if statistic == "nodes":
            # Built tries on the dataset workload, loaded ones on decode.
            return self._statistic("trie.build", "v0") + self._statistic("trie.load", "v0")
        if statistic == "cache_bytes":
            return self._statistic("trie.save", "v0") + self._statistic("trie.load", "v1")
        if statistic == "kept_ratio":
            return self.kept[1] / self.kept[0] if self.kept[0] else 0.0
        if statistic == "steps":
            return self.steps
        if statistic == "wasted":
            return self.wasted_steps / self.steps if self.steps else 0.0
        if statistic == "lm_calls":
            return self.request_kinds["lm"]
        if statistic == "nli_calls":
            return self.request_kinds["nli"]
        if statistic == "lm_candidates":
            lm = self.request_kinds["lm"]
            return self.request_kinds["lm_candidates"] / lm if lm else 0.0
        if statistic in ("p50", "p90"):
            durations = self.durations.get(span, [])
            if len(durations) < 2:
                return durations[0] * 1e6 if durations else 0.0
            cut = statistics.quantiles(durations, n=10)
            return (cut[4] if statistic == "p50" else cut[8]) * 1e6
        if statistic == "failures":
            return self.failures.get(span, 0)
        raise ValueError(statistic)

    def layer_metrics(self, absent_spans: set[str]) -> dict[str, dict]:
        """Every metric of LAYER_SPANS; value None when its span was absent."""
        metrics = {}
        for metric, (unit, span, statistic) in LAYER_SPANS.items():
            value = None if span in absent_spans else self._statistic(span, statistic)
            metrics[metric] = {"value": value, "unit": unit}
        backfill = self.counters.get("pipeline.negatives_backfill", 0)
        metrics["pipeline.negatives_backfill"] = {"value": backfill, "unit": "count"}
        return metrics


# The span each wrapped factgen attribute produces, for the ones factgen
# itself calls: when such a name is missing, its metrics read absent. Names
# the benchmark calls directly cannot go missing without the run failing.
_SPAN_OF_ATTRIBUTE = {
    "KbStore.relations_between": "kb.relations_between",
    "HypothesisTemplates.hypotheses_for": "pipeline.hypotheses_for",
    "ByteTokenizer.encode": "tokenizers.encode",
    "ConstraintTrie.allowed_continuations": "trie.allowed_continuations",
    "ConstraintTrie.save": "trie.save",
    "GenStateMachine.advance": "decode.advance",
    "GenStateMachine.allowed_tokens": "decode.allowed_tokens",
    "ExternalScorerClient.request": "scorers.request",
    "factgen.cli.load_kb": "kb.load",
    "factgen.cli.write_jsonl": "records.write",
    "factgen.cli.read_jsonl": "records.read",
    "factgen.cli.extract_ds_triples": "pipeline.extract",
    "factgen.cli.entailment_filter": "pipeline.filter",
    "factgen.cli.sample_negatives": "pipeline.negatives",
    "factgen.cli.split_dataset": "pipeline.split",
    "factgen.cli.build_trie": "trie.build",
}


def absent_spans(missing) -> set[str]:
    return {_SPAN_OF_ATTRIBUTE[m] for m in missing if m in _SPAN_OF_ATTRIBUTE}


def main(argv: list[str]) -> int:
    """Run one factgen CLI stage with every wrapper installed."""
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT -- <factgen stage args>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install_cli(tracer)
    from factgen import cli

    stage_main = tracer.wrap(cli.main, "cli.main")
    try:
        return stage_main(argv[3:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
