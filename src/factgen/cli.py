"""Command-line surface: reproducible pipeline stages with run manifests.

Each stage reads JSONL (or TSV for the KB), writes its output plus a
``<output>.manifest.json`` recording the stage configuration, input/output
paths, seed, and record counts. Every file is first written in full under a
temporary name in its own directory and then moved into place with
``os.replace``, the manifest last, so a stage that fails leaves the previous
outputs and manifest as they were. Manifests contain nothing volatile, so
rerunning a stage with identical inputs and seed reproduces every output
byte for byte; wall-clock durations go to the log instead.

Exit codes: 0 on success, 1 on data errors (one machine-readable JSON line
on stderr naming the stage), 2 on bad flags.

:func:`main` pauses the cyclic garbage collector while a stage runs and
restores its previous state afterwards. A stage allocates hundreds of
thousands of records, sentences and triples, none of them in a reference
cycle, so reference counting frees them as before; with the collector on,
those allocations only trigger collections that scan the live records and
find nothing, over a tenth of the benchmark's dataset chain. Library
functions leave the collector as their caller set it.

Every stage runs in its own process, so the decoder, the evaluation and the
scorers are imported inside the commands that use them: a stage that does
not run them does not pay for compiling and importing them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .kb import KbStore, load_kb
from .linearize import (
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
    load_dataset,
    load_gold,
    load_input_sentences,
    load_predictions,
    prediction_record,
    read_jsonl,
    unique_instances,
    unique_records,
    write_jsonl,
)
from .tokenizers import ByteTokenizer
from .trie import ConstraintTrie, TrieCacheError, build_trie, year_labels

if TYPE_CHECKING:
    from .decode import DecodingTries

logger = logging.getLogger(__name__)

TARGET_MODES = ("standard", "entity-prompt", "artificial-prompt", "dual-head")
DECODE_MODES = ("unconstrained", "constrained", "partial")
TRIE_KINDS = ("entity", "relation", "tail")
# The flags naming a stage's input files, in the order its manifest lists them.
KB_FLAGS = ("kb_entities", "kb_relations", "kb_triples")
INPUT_FLAGS = (
    "input", "pred", "gold", *KB_FLAGS, "templates", "entity_trie", "relation_trie", "tail_trie",
)


def _write_temp(path: str, content, index: int) -> str:
    """Write ``content`` beside ``path`` under a temporary name and return it.

    A trie is written as its cache, a dict as indented JSON and anything
    else as JSONL rows. A failed write removes its temporary file. The
    ``index`` keeps temporary names apart when two outputs share a path.
    """
    temp = f"{path}.{os.getpid()}-{index}.tmp"
    try:
        if isinstance(content, ConstraintTrie):
            content.save(temp)
        elif isinstance(content, dict):
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(content, handle, ensure_ascii=False, sort_keys=True, indent=2)
                handle.write("\n")
        else:
            write_jsonl(temp, content)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
    return temp


def _finish_stage(
    args: argparse.Namespace,
    outputs: list[tuple[str, object]],
    config: dict,
    record_counts: dict[str, int],
    seed: int | None = None,
) -> None:
    """Write a stage's ``(path, content)`` outputs, then its manifest.

    Nothing is moved into place before every file, the manifest included,
    has been written in full; the manifest moves last. It sits beside the
    first output, or in ``--out-dir`` for ``split``.
    """
    out_dir = getattr(args, "out_dir", None)
    if out_dir:
        manifest_path = str(Path(out_dir) / f"{args.command}.manifest.json")
    else:
        manifest_path = outputs[0][0] + ".manifest.json"
    manifest = {
        "stage": args.command,
        "config": config,
        "inputs": [getattr(args, f) for f in INPUT_FLAGS if getattr(args, f, None) is not None],
        "outputs": [path for path, _ in outputs],
        "seed": seed,
        "record_counts": record_counts,
    }
    staged = []
    try:
        for index, (path, content) in enumerate([*outputs, (manifest_path, manifest)]):
            staged.append((_write_temp(path, content, index), path))
    except BaseException:
        for temp, _ in staged:
            os.remove(temp)
        raise
    for temp, path in staged:
        os.replace(temp, path)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_kb_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    for dest in KB_FLAGS:
        parser.add_argument(_flag(dest), required=required)


# The stages that look up entity pairs (extract) or count them (build-kb):
# every other stage reads only the entity and relation maps, and leaves the
# triples file it names in --kb-triples unopened.
PAIR_STAGES = ("extract", "build-kb")


def _load_kb_from_args(args: argparse.Namespace) -> KbStore:
    triples = args.kb_triples if args.command in PAIR_STAGES else None
    return load_kb(args.kb_entities, args.kb_relations, triples)


def _parse_split(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise ValueError(f"--split needs three comma-separated numbers, got {text!r}")
    if min(parts) < 0:
        raise ValueError(f"--split parts must not be negative, got {text!r}")
    total = sum(parts)
    if math.isclose(total, 100.0, abs_tol=1e-6):
        parts = [p / 100.0 for p in parts]
    elif not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"--split must sum to 1 or 100, got {text!r}")
    return parts[0], parts[1], parts[2]


@contextlib.contextmanager
def _open_scorer(spec: str, mock, external):
    """Yield ``mock()`` for ``--scorer mock``, else ``external(client)`` over
    an ``exec:``/``tcp:`` client that is closed however the block exits."""
    if spec == "mock":
        yield mock()
    else:
        from .scorers import ExternalScorerClient

        with ExternalScorerClient.from_spec(spec) as client:
            yield external(client)


def _build_trie(kb: KbStore, kind: str, tokenizer: ByteTokenizer, years: list) -> ConstraintTrie:
    """The ``kind`` trie; the tail one also holds the ``years`` labels."""
    if kind == "entity":
        labels = kb.entity_titles()
    elif kind == "relation":
        labels = kb.relation_labels()
    else:
        labels = list(kb.entity_titles()) + years
    return build_trie(labels, tokenizer)


# -- stage commands ----------------------------------------------------------


def cmd_build_kb(args: argparse.Namespace) -> None:
    kb = _load_kb_from_args(args)
    stats = {
        "entities": kb.num_entities,
        "relations": kb.num_relations,
        "pairs": kb.num_pairs,
        "triples": kb.num_triples,
    }
    _finish_stage(args, [(args.out, stats)], {}, stats)


def cmd_build_trie(args: argparse.Namespace) -> None:
    years = year_labels(args.years_first, args.years_last)
    kb = _load_kb_from_args(args)
    tokenizer = ByteTokenizer()
    outputs = []
    counts = {}
    for kind in TRIE_KINDS:
        path = getattr(args, f"out_{kind}")
        if path:
            trie = _build_trie(kb, kind, tokenizer, years)
            outputs.append((path, trie))
            counts[f"{kind}_labels"] = trie.label_count
    if not outputs:
        raise ValueError("nothing to build: pass --out-entity/--out-relation/--out-tail")
    config = {"years_first": args.years_first, "years_last": args.years_last}
    _finish_stage(args, outputs, config, counts)


def cmd_extract(args: argparse.Namespace) -> None:
    kb = _load_kb_from_args(args)
    sentences = ingest_sentences(load_input_sentences(args.input), args.min_words)
    rows = [dataset_record(s, extract_ds_triples(s, kb)) for s in sentences]
    _finish_stage(args, [(args.out, rows)], {"min_words": args.min_words}, {"sentences": len(rows)})


def cmd_filter(args: argparse.Namespace) -> None:
    if not 0.0 <= args.threshold <= 1.0:
        raise ValueError(f"--threshold must lie in [0, 1], got {args.threshold}")
    from .scorers import ExternalNliScorer, TableNliScorer

    # The mock keeps everything: deterministic and above any sane threshold.
    mock = functools.partial(TableNliScorer, default=1.0)
    # The scorer starts first, so that its start-up overlaps the loading.
    with _open_scorer(args.scorer, mock, ExternalNliScorer) as scorer:
        kb = _load_kb_from_args(args)
        templates = (
            HypothesisTemplates.load(args.templates)
            if args.templates
            else HypothesisTemplates({})
        )
        dataset = load_dataset(args.input)
        sentences = [sentence for sentence, _ in dataset]
        kept = entailment_filter(
            sentences, [triples for _, triples in dataset], templates, scorer,
            args.threshold, kb,
        )
    rows = [
        dataset_record(sentence, [k.triple for k in row])
        for sentence, row in zip(sentences, kept)
    ]
    kept_total = sum(map(len, kept))
    config = {"threshold": args.threshold, "scorer": args.scorer}
    counts = {"sentences": len(rows), "kept_triples": kept_total}
    _finish_stage(args, [(args.out, rows)], config, counts)


def cmd_negatives(args: argparse.Namespace) -> None:
    fraction = args.neg_fraction
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"--neg-fraction must lie in [0, 1), got {fraction}")
    dataset = load_dataset(args.input)
    positives = [(s, t) for s, t in dataset if t]
    count = round(len(positives) * fraction / (1.0 - fraction))
    # A record's own triples decide whether it is a candidate: the KB is
    # never read, and the optional --kb-* flags only enter the manifest.
    negatives = sample_negatives(dataset, count, args.seed)
    rows = [dataset_record(s, t) for s, t in positives]
    rows.extend(dataset_record(s, []) for s in negatives)
    counts = {"instances": len(rows), "positives": len(positives), "negatives": len(negatives)}
    _finish_stage(args, [(args.out, rows)], {"neg_fraction": fraction}, counts, args.seed)


def cmd_split(args: argparse.Namespace) -> None:
    ratios = _parse_split(args.split)
    rows = unique_records(args.input, read_jsonl(args.input))
    parts = dict(zip(("train", "validation", "test"), split_dataset(rows, ratios, args.seed)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [(str(out_dir / f"{name}.jsonl"), part) for name, part in parts.items()]
    counts = {name: len(part) for name, part in parts.items()}
    _finish_stage(args, outputs, {"ratios": list(ratios)}, counts, args.seed)


def cmd_targets(args: argparse.Namespace) -> None:
    kb = _load_kb_from_args(args)
    rows = []
    for sentence, triples in load_dataset(args.input):
        ordered = order_triples(triples, sentence)
        if args.mode == "entity-prompt":
            target = build_entity_prompt_target(sentence, ordered, kb)
        else:
            target = linearize(ordered, kb)
        if args.mode in ("standard", "entity-prompt"):
            rows.append({"id": sentence.id, "input": sentence.text, "target": target})
            continue
        el_chain = entity_linking_chain(sentence, ordered, kb)
        if args.mode == "artificial-prompt":
            rows.extend(build_artificial_prompt_instances(sentence, el_chain, target))
        else:  # dual-head
            rows.append(build_dual_target_instance(sentence, el_chain, target))
    _finish_stage(args, [(args.out, rows)], {"mode": args.mode}, {"instances": len(rows)})


def _load_tries(args: argparse.Namespace, tokenizer: ByteTokenizer) -> DecodingTries:
    """Each trie from its ``--<kind>-trie`` cache when given, else built from
    the KB, which is read only when some cache is missing. A cache that
    holds a reserved symbol was built from a label the KB now rejects."""
    from .decode import DecodingTries

    kb = None
    tries = {}
    for kind in TRIE_KINDS:
        cache = getattr(args, f"{kind}_trie")
        if cache:
            tries[kind] = ConstraintTrie.load(cache)
            held = tries[kind].reserved_symbol(tokenizer)
            if held:
                raise TrieCacheError(
                    f"{cache}: a label holds {held}: rerun build-trie to rewrite it"
                )
        else:
            if kb is None:
                missing = [_flag(dest) for dest in KB_FLAGS if getattr(args, dest) is None]
                if missing:
                    raise ValueError(
                        f"building the {kind} trie needs the KB: pass {', '.join(missing)} "
                        f"or --{kind}-trie"
                    )
                kb = _load_kb_from_args(args)
            tries[kind] = _build_trie(kb, kind, tokenizer, year_labels())
    return DecodingTries(**tries)


def cmd_decode(args: argparse.Namespace) -> None:
    from .decode import beam_search
    from .scorers import ExternalLmScorer, NgramScorer

    tokenizer = ByteTokenizer()
    instances = unique_instances(args.input, read_jsonl(args.input))
    tries = None
    if args.mode in ("constrained", "partial"):
        tries = _load_tries(args, tokenizer)

    def mock() -> NgramScorer:
        gold = [tokenizer.encode(target) for _, target in instances]
        return NgramScorer(gold, tokenizer.vocab_size, tokenizer.eos_id, order=args.ngram_order)

    rows = []
    with _open_scorer(args.scorer, mock, ExternalLmScorer) as scorer:
        for instance_id, _ in instances:
            hypotheses = beam_search(
                scorer,
                tokenizer,
                mode=args.mode,
                tries=tries,
                beam_size=args.beam,
                max_len=args.max_len,
            )
            output = tokenizer.decode(hypotheses[0].tokens)
            rows.append(prediction_record(instance_id, output))
    config = {
        "mode": args.mode,
        "scorer": args.scorer,
        "beam": args.beam,
        "max_len": args.max_len,
        "ngram_order": args.ngram_order,
    }
    _finish_stage(args, [(args.out, rows)], config, {"predictions": len(rows)})


def cmd_score(args: argparse.Namespace) -> None:
    from .evaluation import score_predictions

    kb = _load_kb_from_args(args)
    predictions = {
        instance_id: parse_linearized(output)
        for instance_id, output in load_predictions(args.pred).items()
    }
    gold = load_gold(args.gold)
    report = score_predictions(predictions, gold, kb)
    print(report.format_table())
    if args.out:
        _finish_stage(args, [(args.out, report.to_dict())], {}, {"instances": len(gold)})


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
    _add_kb_flags(p, required=False)  # the stage reads no KB
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
    _add_kb_flags(p, required=False)  # read only to build a trie whose cache is not given
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
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - map data errors to exit 1
        line = json.dumps(
            {"stage": args.command, "error": f"{type(exc).__name__}: {exc}"},
            ensure_ascii=False,
        )
        print(line, file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    logger.info("stage %s finished in %.3fs", args.command, time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
