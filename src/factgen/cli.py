"""Command-line surface: reproducible pipeline stages with run manifests.

Each stage reads JSONL (or TSV for the KB), writes its output plus a
``<output>.manifest.json`` recording the stage configuration, input/output
paths, seed, and record counts. Manifests contain nothing volatile, so
rerunning a stage with identical inputs and seed reproduces every output
byte for byte; wall-clock durations go to the log instead.

Exit codes: 0 on success, 1 on data errors (one machine-readable JSON line
on stderr naming the stage), 2 on bad flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .decode import DecodingTries, beam_search
from .evaluation import score_predictions
from .kb import KbStore, load_kb
from .linearize import (
    TrainingInstance,
    build_artificial_prompt_instances,
    build_dual_target_instance,
    build_entity_prompt_target,
    entity_linking_chain,
    linearize,
    order_triples,
    parse_linearized,
)
from .pipeline import (
    DEFAULT_ENTAIL_THRESHOLD,
    HypothesisTemplates,
    entailment_filter,
    extract_ds_triples,
    ingest_sentences,
    sample_negatives,
    split_dataset,
)
from .records import (
    dataset_record,
    instance_record,
    load_dataset,
    load_input_sentences,
    load_predictions,
    prediction_record,
    read_jsonl,
    write_jsonl,
)
from .scorers import (
    ExternalLmScorer,
    ExternalNliScorer,
    ExternalScorerClient,
    NgramScorer,
    TableNliScorer,
)
from .tokenizers import ByteTokenizer
from .trie import ConstraintTrie, build_trie, year_labels

logger = logging.getLogger(__name__)

TARGET_MODES = ("standard", "entity-prompt", "artificial-prompt", "dual-head")
DECODE_MODES = ("unconstrained", "constrained", "partial")


@dataclass
class RunManifest:
    """Deterministic record of one stage run.

    Nothing volatile goes in: manifests must be byte-identical across
    reruns with the same inputs (``main`` logs the stage duration).
    """

    stage: str
    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None
    record_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "seed": self.seed,
            "record_counts": self.record_counts,
        }

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, ensure_ascii=False, sort_keys=True, indent=2)
            handle.write("\n")


def _manifest_path(output: str) -> str:
    return output + ".manifest.json"


def _add_kb_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kb-entities", required=True)
    parser.add_argument("--kb-relations", required=True)
    parser.add_argument("--kb-triples", required=True)


def _load_kb_from_args(args: argparse.Namespace) -> KbStore:
    return load_kb(args.kb_entities, args.kb_relations, args.kb_triples)


def _kb_inputs(args: argparse.Namespace) -> list[str]:
    return [args.kb_entities, args.kb_relations, args.kb_triples]


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--split needs three comma-separated numbers, got {text!r}")
    total = sum(parts)
    if math.isclose(total, 100.0, abs_tol=1e-6):
        parts = [p / 100.0 for p in parts]
    elif not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"--split must sum to 1 or 100, got {text!r}")
    return parts[0], parts[1], parts[2]


def _make_nli_scorer(spec: str):
    if spec == "mock":
        # Keep-everything stub: deterministic and above any sane threshold.
        return TableNliScorer(default=1.0), None
    client = ExternalScorerClient.from_spec(spec)
    return ExternalNliScorer(client), client


def _make_lm_scorer(spec: str, targets: Sequence[Sequence[int]], tokenizer: ByteTokenizer, order: int):
    if spec == "mock":
        return NgramScorer(targets, tokenizer.vocab_size, tokenizer.eos_id, order=order), None
    client = ExternalScorerClient.from_spec(spec)
    return ExternalLmScorer(client), client


# -- stage commands ----------------------------------------------------------


def cmd_build_kb(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    stats = {
        "entities": kb.num_entities,
        "relations": kb.num_relations,
        "pairs": kb.num_pairs,
        "triples": kb.num_triples,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(stats, handle, sort_keys=True, indent=2)
        handle.write("\n")
    manifest = RunManifest(
        stage="build-kb",
        config={},
        inputs=_kb_inputs(args),
        outputs=[args.out],
        record_counts=stats,
    )
    manifest.write(_manifest_path(args.out))
    return 0


def cmd_build_trie(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    tokenizer = ByteTokenizer()
    outputs = []
    counts = {}
    if args.out_entity:
        trie = build_trie(kb.entity_titles(), tokenizer)
        trie.save(args.out_entity)
        outputs.append(args.out_entity)
        counts["entity_labels"] = trie.label_count
    if args.out_relation:
        trie = build_trie(kb.relation_labels(), tokenizer)
        trie.save(args.out_relation)
        outputs.append(args.out_relation)
        counts["relation_labels"] = trie.label_count
    if args.out_tail:
        labels = list(kb.entity_titles()) + year_labels(args.years_first, args.years_last)
        trie = build_trie(labels, tokenizer)
        trie.save(args.out_tail)
        outputs.append(args.out_tail)
        counts["tail_labels"] = trie.label_count
    if not outputs:
        raise ValueError("nothing to build: pass --out-entity/--out-relation/--out-tail")
    manifest = RunManifest(
        stage="build-trie",
        config={"years_first": args.years_first, "years_last": args.years_last},
        inputs=_kb_inputs(args),
        outputs=outputs,
        record_counts=counts,
    )
    manifest.write(_manifest_path(outputs[0]))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    sentences = ingest_sentences(load_input_sentences(args.input), args.min_words)
    rows = [dataset_record(s, extract_ds_triples(s, kb)) for s in sentences]
    count = write_jsonl(args.out, rows)
    manifest = RunManifest(
        stage="extract",
        config={"min_words": args.min_words},
        inputs=[args.input, *_kb_inputs(args)],
        outputs=[args.out],
        record_counts={"sentences": count},
    )
    manifest.write(_manifest_path(args.out))
    return 0


def cmd_filter(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    templates = (
        HypothesisTemplates.load(args.templates)
        if args.templates
        else HypothesisTemplates({})
    )
    scorer, client = _make_nli_scorer(args.scorer)
    kept_total = 0
    rows = []
    try:
        for sentence, triples in load_dataset(args.input):
            kept = entailment_filter(
                sentence, triples, templates, scorer, args.threshold, kb
            )
            kept_total += len(kept)
            rows.append(dataset_record(sentence, [k.triple for k in kept]))
    finally:
        if client is not None:
            client.close()
    count = write_jsonl(args.out, rows)
    manifest = RunManifest(
        stage="filter",
        config={"threshold": args.threshold, "scorer": args.scorer},
        inputs=[args.input, *_kb_inputs(args)],
        outputs=[args.out],
        record_counts={"sentences": count, "kept_triples": kept_total},
    )
    manifest.write(_manifest_path(args.out))
    return 0


def cmd_negatives(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    dataset = load_dataset(args.input)
    positives = [(s, t) for s, t in dataset if t]
    pool = [s for s, t in dataset if not t]
    triple_counts = {s.id: len(t) for s, t in dataset if s.id is not None}
    fraction = args.neg_fraction
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"--neg-fraction must lie in [0, 1), got {fraction}")
    count = round(len(positives) * fraction / (1.0 - fraction))
    negatives = sample_negatives(pool, kb, count, args.seed, triple_counts)
    rows = [dataset_record(s, t) for s, t in positives]
    rows.extend(dataset_record(s, []) for s in negatives)
    total = write_jsonl(args.out, rows)
    manifest = RunManifest(
        stage="negatives",
        config={"neg_fraction": fraction},
        inputs=[args.input, *_kb_inputs(args)],
        outputs=[args.out],
        seed=args.seed,
        record_counts={
            "instances": total,
            "positives": len(positives),
            "negatives": len(negatives),
        },
    )
    manifest.write(_manifest_path(args.out))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    ratios = _parse_split(args.split)
    rows = [row for _, row in read_jsonl(args.input)]
    train, val, test = split_dataset(rows, ratios, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, part in (("train", train), ("validation", val), ("test", test)):
        path = str(out_dir / f"{name}.jsonl")
        write_jsonl(path, part)
        outputs.append(path)
    manifest = RunManifest(
        stage="split",
        config={"ratios": list(ratios)},
        inputs=[args.input],
        outputs=outputs,
        seed=args.seed,
        record_counts={"train": len(train), "validation": len(val), "test": len(test)},
    )
    manifest.write(str(out_dir / "split.manifest.json"))
    return 0


def cmd_targets(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    rows = []
    for sentence, triples in load_dataset(args.input):
        ordered = order_triples(triples, sentence)
        triple_target = linearize(ordered, kb).target_text
        sid = sentence.id or ""
        if args.mode == "standard":
            rows.append(
                instance_record(sid, TrainingInstance(sentence.text, triple_target))
            )
            continue
        el_chain = entity_linking_chain(sentence, ordered, kb)
        if args.mode == "entity-prompt":
            target = build_entity_prompt_target(sentence, ordered, kb)
            rows.append(
                instance_record(sid, TrainingInstance(sentence.text, target.target_text))
            )
        elif args.mode == "artificial-prompt":
            el_inst, tri_inst = build_artificial_prompt_instances(
                sentence, el_chain, triple_target
            )
            rows.append(instance_record(f"{sid}#el", el_inst))
            rows.append(instance_record(f"{sid}#tri", tri_inst))
        else:  # dual-head
            rows.append(
                instance_record(
                    sid, build_dual_target_instance(sentence, el_chain, triple_target)
                )
            )
    count = write_jsonl(args.out, rows)
    manifest = RunManifest(
        stage="targets",
        config={"mode": args.mode},
        inputs=[args.input, *_kb_inputs(args)],
        outputs=[args.out],
        record_counts={"instances": count},
    )
    manifest.write(_manifest_path(args.out))
    return 0


def _load_tries(args: argparse.Namespace, kb: KbStore, tokenizer: ByteTokenizer) -> DecodingTries:
    if args.entity_trie:
        entity = ConstraintTrie.load(args.entity_trie)
    else:
        entity = build_trie(kb.entity_titles(), tokenizer)
    if args.relation_trie:
        relation = ConstraintTrie.load(args.relation_trie)
    else:
        relation = build_trie(kb.relation_labels(), tokenizer)
    if args.tail_trie:
        tail = ConstraintTrie.load(args.tail_trie)
    else:
        tail = build_trie(list(kb.entity_titles()) + year_labels(), tokenizer)
    return DecodingTries(entity=entity, relation=relation, tail=tail)


def cmd_decode(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    tokenizer = ByteTokenizer()
    instances = [row for _, row in read_jsonl(args.input)]
    gold_targets = [
        tokenizer.encode(row.get("target", row.get("target_ie", "")))
        for row in instances
    ]
    scorer, client = _make_lm_scorer(args.scorer, gold_targets, tokenizer, args.ngram_order)
    tries = None
    if args.mode in ("constrained", "partial"):
        tries = _load_tries(args, kb, tokenizer)
    rows = []
    try:
        for row in instances:
            hypotheses = beam_search(
                scorer,
                tokenizer,
                mode=args.mode,
                tries=tries,
                beam_size=args.beam,
                max_len=args.max_len,
            )
            output = tokenizer.decode(hypotheses[0].tokens)
            rows.append(prediction_record(str(row.get("id", "")), output))
    finally:
        if client is not None:
            client.close()
    count = write_jsonl(args.out, rows)
    manifest = RunManifest(
        stage="decode",
        config={
            "mode": args.mode,
            "scorer": args.scorer,
            "beam": args.beam,
            "max_len": args.max_len,
            "ngram_order": args.ngram_order,
        },
        inputs=[args.input, *_kb_inputs(args)],
        outputs=[args.out],
        record_counts={"predictions": count},
    )
    manifest.write(_manifest_path(args.out))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    kb = _load_kb_from_args(args)
    predictions = {
        instance_id: parse_linearized(output)
        for instance_id, output in load_predictions(args.pred).items()
    }
    gold = {}
    for sentence, triples in load_dataset(args.gold):
        gold[sentence.id] = triples
    report = score_predictions(predictions, gold, kb)
    print(report.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        manifest = RunManifest(
            stage="score",
            config={},
            inputs=[args.pred, args.gold, *_kb_inputs(args)],
            outputs=[args.out],
            record_counts={"instances": len(gold)},
        )
        manifest.write(_manifest_path(args.out))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factgen",
        description="Dataset construction, constrained decoding, and scoring "
        "for KB-grounded generative information extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-kb", help="validate KB files and report stats")
    _add_kb_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("build-trie", help="build and cache constraint tries")
    _add_kb_flags(p)
    p.add_argument("--out-entity")
    p.add_argument("--out-relation")
    p.add_argument("--out-tail")
    p.add_argument("--years-first", type=int, default=1)
    p.add_argument("--years-last", type=int, default=2100)
    p.set_defaults(func=cmd_build_trie)

    p = sub.add_parser("extract", help="distant-supervision triple extraction")
    p.add_argument("--input", required=True)
    _add_kb_flags(p)
    p.add_argument("--min-words", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("filter", help="entailment-filter extracted triples")
    p.add_argument("--input", required=True)
    _add_kb_flags(p)
    p.add_argument("--templates")
    p.add_argument("--threshold", type=float, default=DEFAULT_ENTAIL_THRESHOLD)
    p.add_argument("--scorer", default="mock")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("negatives", help="balance the dataset with sampled negatives")
    p.add_argument("--input", required=True)
    _add_kb_flags(p)
    p.add_argument("--neg-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("split", help="train/validation/test split")
    p.add_argument("--input", required=True)
    p.add_argument("--split", default="90,5,5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("targets", help="build training-instance targets")
    p.add_argument("--input", required=True)
    _add_kb_flags(p)
    p.add_argument("--mode", choices=TARGET_MODES, default="standard")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("decode", help="beam-search decode with optional constraints")
    p.add_argument("--input", required=True)
    _add_kb_flags(p)
    p.add_argument("--mode", choices=DECODE_MODES, default="constrained")
    p.add_argument("--scorer", default="mock")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--ngram-order", type=int, default=2)
    p.add_argument("--entity-trie")
    p.add_argument("--relation-trie")
    p.add_argument("--tail-trie")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    _add_kb_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except Exception as exc:  # noqa: BLE001 - map data errors to exit 1
        line = json.dumps(
            {"stage": args.command, "error": f"{type(exc).__name__}: {exc}"},
            ensure_ascii=False,
        )
        print(line, file=sys.stderr)
        return 1
    logger.info("stage %s finished in %.3fs", args.command, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
