"""Deterministic micro-corpus and KB fixtures for CLI and end-to-end tests."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ENTITIES = [
    ("Q145", "United Kingdom"),
    ("Q84", "London"),
    ("Q38", "Italy"),
    ("Q220", "Rome"),
    ("Q142", "France"),
    ("Q90", "Paris"),
    ("Q183", "Germany"),
    ("Q64", "Berlin"),
    ("Q17", "Japan"),
    ("Q1490", "Tokyo"),
    ("Q30", "United States"),
    ("Q62", "San Francisco"),
]

RELATIONS = [
    ("P36", "capital", "seat of government"),
    ("P17", "country", "sovereign state of this item"),
    ("P571", "inception", "time when an entity begins to exist"),
]

TRIPLES = [
    ("Q145", "P36", "Q84"),
    ("Q38", "P36", "Q220"),
    ("Q142", "P36", "Q90"),
    ("Q183", "P36", "Q64"),
    ("Q17", "P36", "Q1490"),
    ("Q84", "P17", "Q145"),
    ("Q220", "P17", "Q38"),
    ("Q90", "P17", "Q142"),
    ("Q64", "P17", "Q183"),
    ("Q1490", "P17", "Q17"),
    ("Q62", "P17", "Q30"),
    ("Q62", "P571", "1776"),
]

TITLES = dict(ENTITIES)

FILLER = "according to a report published on the site earlier this week"


def _sentence(sid: str, mentions: list[tuple[str, str | None]]) -> dict:
    """Build a record from (surface, link-or-date) mentions plus filler."""
    text = ""
    spans = []
    for surface, link in mentions:
        start = len(text)
        text += surface
        span: dict = {"start": start, "end": len(text), "surface": surface}
        if link is None:
            pass
        elif link.startswith("date:"):
            span["date"] = link[len("date:") :]
        else:
            span["link"] = link
        spans.append(span)
        text += " "
    text += FILLER + "."
    return {"id": sid, "text": text, "spans": spans, "url_domain": "example.org"}


def micro_corpus_records() -> list[dict]:
    """Twenty sentences: eight with KB facts, twelve negative candidates."""
    records = []
    # Positives: entity pairs related in the KB.
    positive_pairs = [
        ("Q145", "Q84"),
        ("Q38", "Q220"),
        ("Q142", "Q90"),
        ("Q183", "Q64"),
        ("Q17", "Q1490"),
        ("Q62", "Q30"),
    ]
    for i, (head, tail) in enumerate(positive_pairs):
        records.append(
            _sentence(f"pos-{i}", [(TITLES[head], head), (TITLES[tail], tail)])
        )
    records.append(
        _sentence("pos-6", [("San Francisco", "Q62"), ("July 4, 1776", "date:July 4, 1776")])
    )
    records.append(
        _sentence("pos-7", [("the UK", None), ("London", "Q84"), ("United Kingdom", "Q145")])
    )
    # Category (i) candidates: one or zero linked mentions.
    for i in range(6):
        mentions = [("Rome", "Q220")] if i % 2 else [("something", None)]
        records.append(_sentence(f"neg1-{i}", mentions))
    # Category (ii) candidates: two linked mentions, no KB relation.
    unrelated_pairs = [
        ("Q145", "Q38"),
        ("Q142", "Q183"),
        ("Q17", "Q30"),
        ("Q84", "Q220"),
        ("Q90", "Q64"),
        ("Q1490", "Q62"),
    ]
    for i, (a, b) in enumerate(unrelated_pairs):
        records.append(_sentence(f"neg2-{i}", [(TITLES[a], a), (TITLES[b], b)]))
    return records


def write_kb_fixture(directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "entities": directory / "entities.tsv",
        "relations": directory / "relations.tsv",
        "triples": directory / "triples.tsv",
    }
    paths["entities"].write_text(
        "".join(f"{q}\t{t}\n" for q, t in ENTITIES), encoding="utf-8"
    )
    paths["relations"].write_text(
        "".join(f"{p}\t{l}\t{d}\n" for p, l, d in RELATIONS), encoding="utf-8"
    )
    paths["triples"].write_text(
        "".join(f"{h}\t{p}\t{t}\n" for h, p, t in TRIPLES), encoding="utf-8"
    )
    return {name: str(path) for name, path in paths.items()}


def write_micro_corpus(directory: Path) -> str:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "sentences.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in micro_corpus_records():
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return str(path)


def kb_flags(paths: dict[str, str]) -> list[str]:
    return [
        "--kb-entities", paths["entities"],
        "--kb-relations", paths["relations"],
        "--kb-triples", paths["triples"],
    ]


CLI = [sys.executable, "-m", "factgen.cli"]


def run_cli(*args, expect: int = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [*CLI, *map(str, args)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def build_tries(kb_paths: dict[str, str], directory: Path) -> list[str]:
    """Run ``build-trie`` into ``directory``; return ``decode``'s flags
    naming the three caches it wrote."""
    outputs, flags = [], []
    for kind in ("entity", "relation", "tail"):
        cache = str(directory / f"{kind}.trie")
        outputs += [f"--out-{kind}", cache]
        flags += [f"--{kind}-trie", cache]
    run_cli("build-trie", *kb_flags(kb_paths), *outputs)
    return flags


def read_jsonl_file(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def run_pipeline(kb_paths: dict[str, str], workdir: Path, seed: int = 7) -> dict[str, Path]:
    """extract -> filter -> negatives -> split -> targets -> build-trie ->
    decode -> score."""
    workdir.mkdir(parents=True, exist_ok=True)
    sentences = write_micro_corpus(workdir)
    paths = {
        "extracted": workdir / "extracted.jsonl",
        "filtered": workdir / "filtered.jsonl",
        "dataset": workdir / "dataset.jsonl",
        "splits": workdir / "splits",
        "targets": workdir / "targets.jsonl",
        "predictions": workdir / "predictions.jsonl",
        "report": workdir / "report.json",
    }
    run_cli("extract", "--input", sentences, *kb_flags(kb_paths),
            "--out", paths["extracted"])
    run_cli("filter", "--input", paths["extracted"], *kb_flags(kb_paths),
            "--threshold", "0.7", "--scorer", "mock", "--out", paths["filtered"])
    run_cli("negatives", "--input", paths["filtered"], *kb_flags(kb_paths),
            "--neg-fraction", "0.5", "--seed", str(seed), "--out", paths["dataset"])
    run_cli("split", "--input", paths["dataset"], "--split", "90,5,5",
            "--seed", str(seed), "--out-dir", paths["splits"])
    run_cli("targets", "--input", paths["dataset"], *kb_flags(kb_paths),
            "--mode", "standard", "--out", paths["targets"])
    tries = build_tries(kb_paths, workdir)
    run_cli("decode", "--input", paths["targets"], *tries,
            "--mode", "constrained", "--scorer", "mock", "--beam", "4",
            "--max-len", "96", "--out", paths["predictions"])
    run_cli("score", "--pred", paths["predictions"], "--gold", paths["dataset"],
            *kb_flags(kb_paths), "--out", paths["report"])
    return paths


def pipeline_output_files(paths: dict[str, Path]) -> list[Path]:
    """Every artifact the pipeline writes, manifests included."""
    files = []
    for key in ("extracted", "filtered", "dataset", "targets", "predictions", "report"):
        files.append(paths[key])
        files.append(Path(str(paths[key]) + ".manifest.json"))
    for name in ("train.jsonl", "validation.jsonl", "test.jsonl", "split.manifest.json"):
        files.append(paths["splits"] / name)
    workdir = paths["predictions"].parent
    for name in ("entity.trie", "relation.trie", "tail.trie", "entity.trie.manifest.json"):
        files.append(workdir / name)
    return files
