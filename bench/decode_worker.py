"""In-process decode workloads of the factgen benchmark, one per process.

Reads a JSON config (written by run.py), sets up (KB load, TRI1 trie
loads and, on the wire workload, scorer spawn) several times, then decodes
instances closed-loop for the given seconds with one client: for each
instance ``beam_search`` then ``parse_linearized``; on ``constrained`` the
predictions are then scored with ``score_predictions`` inside the timed
region. Outputs are checked after the clock stops and the result is written
as JSON to the config's ``result`` path.

With ``trace`` set, a fixed number of instances is decoded untraced and
then again with every wrapper installed; the spans go to ``spans``.

Usage: python3 bench/decode_worker.py CONFIG.json
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from time import perf_counter

import stub_scorer
from tracer import Tracer, install_common

from factgen import kb as kb_module
from factgen import decode, evaluation, records, scorers, trie
from factgen.linearize import (
    END_TRIPLE_TOKEN,
    ENTITY_MARKER,
    IE_PROMPT,
    OBJ_TOKEN,
    REL_TOKEN,
    SUB_TOKEN,
    TRIPLE_MARKER,
    parse_linearized,
)
from factgen.tokenizers import ByteTokenizer

# Tokens off the gold path score OFF_GOLD minus a jitter in [0, OFF_GOLD_SPREAD).
# Without the jitter, the off-gold hypotheses that fill the beam tie, and
# the tie rule sends them all to the same lexicographically smallest
# corner of the trie on every instance of a seed. That would make the cost
# of a run depend on one corner of the KB instead of on many instances.
OFF_GOLD = -10.0
OFF_GOLD_SPREAD = 10.0
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 2.0


class OracleScorer:
    """Log-prob 0 along one gold token sequence, below OFF_GOLD elsewhere.

    Each score depends only on the instance, the prefix and the candidate.
    """

    def __init__(self, gold: tuple[int, ...]) -> None:
        self.gold = gold
        self.key = hash(gold) & 0xFFFFFFFF

    def score(self, prefix, candidates):
        n = len(prefix)
        want = self.gold[n] if n < len(self.gold) and tuple(prefix) == self.gold[:n] else None
        step = (self.key + n * 40503 + (prefix[-1] if prefix else 0) * 977) % 65521
        unit = OFF_GOLD_SPREAD / 997
        return [
            0.0 if c == want else OFF_GOLD - ((c * 2654435761 + step) % 997) * unit
            for c in candidates
        ]


class SourcePrefixedScorer:
    """Puts the source bytes and a separator before every scored prefix.

    The ``lm`` request has no source field, so the source rides in the
    prefix, as a decoder-only model would read it.
    """

    def __init__(self, inner, source_ids: list[int]) -> None:
        self.inner = inner
        self.head = list(source_ids) + [stub_scorer.SOURCE_SEP]

    def score(self, prefix, candidates):
        return self.inner.score(self.head + list(prefix), candidates)


class LocalStubLm:
    """The stub's LM scoring function, called in process."""

    def score(self, prefix, candidates):
        return stub_scorer.lm_logprobs(prefix, candidates)


class Calls:
    """The factgen entry points this worker calls; traced ones replace them."""

    def __init__(self) -> None:
        self.load_kb = kb_module.load_kb
        self.beam_search = decode.beam_search
        self.parse_linearized = parse_linearized
        self.score_predictions = evaluation.score_predictions
        self.scorer_score = None  # set when traced

    def trace(self, tracer: Tracer) -> None:
        install_common(tracer)
        tracer.patch(
            trie.ConstraintTrie, "load", "trie.load",
            lambda a, k, r: (r.node_count, os.path.getsize(a[0] if a else k["path"])),
        )
        self.load_kb = tracer.wrap(self.load_kb, "kb.load")
        self.beam_search = tracer.wrap(
            self.beam_search, "decode.beam_search", lambda a, k, r: (len(r[0].tokens),)
        )
        self.parse_linearized = tracer.wrap(self.parse_linearized, "linearize.parse")
        self.score_predictions = tracer.wrap(self.score_predictions, "evaluation.score")
        self.scorer_score = lambda scorer: tracer.wrap(
            scorer.score, "bench.score", lambda a, k, r: (len(a[1]), len(a[0]))
        )


class Workload:
    def __init__(self, config: dict) -> None:
        self.config = config
        self.tokenizer = ByteTokenizer()
        self.calls = Calls()
        self.kb = None
        self.tries = None
        self.client = None
        self.tracer: Tracer | None = None

    def check_token_ids(self) -> None:
        tok = self.tokenizer
        expected = {
            SUB_TOKEN: stub_scorer.SUB,
            REL_TOKEN: stub_scorer.REL,
            OBJ_TOKEN: stub_scorer.OBJ,
            END_TRIPLE_TOKEN: stub_scorer.END_TRIPLE,
            ENTITY_MARKER: stub_scorer.ENTITY_MARKER,
            TRIPLE_MARKER: stub_scorer.TRIPLE_MARKER,
            IE_PROMPT: stub_scorer.SOURCE_SEP,
        }
        for token, token_id in expected.items():
            if tok.special_id(token) != token_id:
                raise SystemExit(f"stub token id for {token} is not {token_id}")
        if tok.eos_id != stub_scorer.EOS:
            raise SystemExit("stub EOS id does not match the tokenizer")

    # -- set-up ------------------------------------------------------------

    def close_scorer(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def setup(self) -> float:
        """Load KB and tries (and spawn the scorer); return the seconds taken."""
        self.close_scorer()
        self.kb = self.tries = None
        gc.collect()
        cfg = self.config
        began = perf_counter()
        self.kb = self.calls.load_kb(*cfg["kb"])
        self.tries = decode.DecodingTries(
            entity=trie.ConstraintTrie.load(cfg["tries"][0]),
            relation=trie.ConstraintTrie.load(cfg["tries"][1]),
            tail=trie.ConstraintTrie.load(cfg["tries"][2]),
        )
        if cfg["scorer"]:
            self.client = scorers.ExternalScorerClient.from_spec(cfg["scorer"])
            # The child is ready once it has answered one request.
            self.client.lm_logprobs([], [])
        return perf_counter() - began

    # -- instances ---------------------------------------------------------

    def load_instances(self) -> list[dict]:
        cfg = self.config
        rows = [row for _, row in records.read_jsonl(cfg["instances"])]
        random.Random(cfg["seed"]).shuffle(rows)
        tok = self.tokenizer
        gold_triples = {}
        if cfg["mode"] == "constrained":
            for sentence, triples in records.load_dataset(cfg["dataset"]):
                gold_triples[sentence.id] = triples
        instances = []
        for row in rows:
            instance = {"id": row["id"], "source": tok.encode(row["input"])}
            if cfg["mode"] == "constrained":
                instance["gold_ids"] = self.compact_gold(row["target"])
                instance["gold_triples"] = gold_triples[row["id"]]
            instances.append(instance)
        return instances

    def compact_gold(self, target: str) -> tuple[int, ...]:
        """``<sub>H<rel>R<obj>T<et>`` per triple, then EOS.

        The spaced ``linearize`` form cannot be generated under the trie
        constraints, whose labels carry no surrounding spaces.
        """
        tok = self.tokenizer
        ids: list[int] = []
        for raw in parse_linearized(target):
            ids.append(stub_scorer.SUB)
            ids.extend(tok.encode(raw.head_label))
            ids.append(stub_scorer.REL)
            ids.extend(tok.encode(raw.relation_label))
            ids.append(stub_scorer.OBJ)
            ids.extend(tok.encode(raw.tail_label))
            ids.append(stub_scorer.END_TRIPLE)
        ids.append(tok.eos_id)
        return tuple(ids)

    def scorer_for(self, instance: dict):
        if self.config["mode"] == "constrained":
            scorer = OracleScorer(instance["gold_ids"])
        else:
            scorer = SourcePrefixedScorer(
                scorers.ExternalLmScorer(self.client), instance["source"]
            )
        if self.calls.scorer_score is not None:
            scorer.score = self.calls.scorer_score(scorer)
        return scorer

    # -- the timed loop ----------------------------------------------------

    def run(self, instances: list[dict], stop) -> dict:
        """Decode instances in order until ``stop(done, elapsed)``."""
        cfg = self.config
        tok = self.tokenizer
        latencies = []
        outputs: dict[str, tuple[int, ...]] = {}
        parsed: dict[str, list] = {}
        errors: list[str] = []
        decoded = []
        began = perf_counter()
        index = 0
        while not stop(len(decoded), perf_counter() - began):
            instance = instances[index % len(instances)]
            if self.tracer is not None:
                self.tracer.instance_id = index
            index += 1
            scorer = self.scorer_for(instance)
            started = perf_counter()
            try:
                hypotheses = self.calls.beam_search(
                    scorer, tok, mode=cfg["mode"], tries=self.tries,
                    beam_size=cfg["beam"], max_len=cfg["max_len"],
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                latencies.append(perf_counter() - started)
                errors.append(f"{instance['id']}: {type(exc).__name__}: {exc}")
                decoded.append(instance)
                continue
            latencies.append(perf_counter() - started)
            tokens = hypotheses[0].tokens
            if outputs.setdefault(instance["id"], tokens) != tokens:
                errors.append(f"{instance['id']}: output changed on repeat")
            parsed[instance["id"]] = self.calls.parse_linearized(tok.decode(tokens))
            decoded.append(instance)
        if self.tracer is not None:
            self.tracer.instance_id = -1
        report = None
        if cfg["mode"] == "constrained" and parsed:
            gold = {i["id"]: i["gold_triples"] for i in decoded if i["id"] in parsed}
            report = self.calls.score_predictions(parsed, gold, self.kb)
        elapsed = perf_counter() - began
        return {
            "decoded": decoded,
            "latencies": latencies,
            "outputs": outputs,
            "errors": errors,
            "report": report,
            "elapsed": elapsed,
        }

    # -- output checks -----------------------------------------------------

    def check(self, result: dict) -> list[str]:
        """One message per failed instance check (plus the scoring check)."""
        failures = list(result["errors"])
        cfg = self.config
        unique = {i["id"]: i for i in result["decoded"]}
        if cfg["mode"] == "constrained":
            for instance_id, instance in unique.items():
                tokens = result["outputs"].get(instance_id)
                if tokens is not None and tokens != instance["gold_ids"]:
                    failures.append(f"{instance_id}: output is not the oracle's gold")
            report = result["report"]
            if report is None or report.f1 != 1.0 or (
                report.counts.n_neg and report.accuracy_negative != 1.0
            ):
                failures.append(f"scoring: expected F1 = accuracy_negative = 1.0, got {report}")
            return failures
        reference = LocalStubLm()
        eos = self.tokenizer.eos_id
        for instance_id, instance in unique.items():
            tokens = result["outputs"].get(instance_id)
            if tokens is None:
                continue
            local = decode.beam_search(
                SourcePrefixedScorer(reference, instance["source"]),
                self.tokenizer, mode=cfg["mode"], tries=self.tries,
                beam_size=cfg["beam"], max_len=cfg["max_len"],
            )[0].tokens
            if tokens != local:
                failures.append(f"{instance_id}: wire decode differs from in-process decode")
            elif tokens[-1] != eos or stub_scorer.END_TRIPLE not in tokens:
                failures.append(f"{instance_id}: stub decode emitted no triple or no EOS")
        return failures


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        cfg = json.load(handle)
    work = Workload(cfg)
    work.check_token_ids()
    instances = work.load_instances()
    out: dict = {"checks": 1 if cfg["mode"] == "constrained" else 0}
    try:
        if not cfg["trace"]:
            setups = []
            while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_SECONDS:
                setups.append(work.setup())
            seconds = cfg["seconds"]
            result = work.run(instances, lambda done, elapsed: elapsed >= seconds and done > 0)
            out["setup_s"] = setups
        else:
            count = cfg["trace_instances"]
            out["untraced_setup_s"] = work.setup()
            plain = work.run(instances, lambda done, elapsed: done >= count)
            work.tracer = tracer = Tracer()
            work.calls.trace(tracer)
            traced_began = perf_counter()
            out["traced_setup_s"] = work.setup()
            result = work.run(instances, lambda done, elapsed: done >= count)
            out["traced_s"] = perf_counter() - traced_began
            out["untraced_s"] = out["untraced_setup_s"] + plain["elapsed"]
            tracer.dump(cfg["spans"])
            if plain["outputs"] != result["outputs"]:
                result["errors"].append("traced outputs differ from untraced outputs")
        work.close_scorer()
        failures = work.check(result)
    finally:
        work.close_scorer()
    latencies = sorted(result["latencies"])
    out.update(
        attempted=len(result["decoded"]) + out["checks"],
        failures=failures,
        elapsed_s=result["elapsed"],
        instances=len(result["decoded"]),
        latencies_s=latencies,
    )
    if result["report"] is not None:
        out["report"] = result["report"].to_dict()
    with open(cfg["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
