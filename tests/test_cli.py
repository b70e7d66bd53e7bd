from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from .corpus import (
    CLI,
    kb_flags,
    read_jsonl_file as read_jsonl,
    run_cli,
    run_pipeline,
    write_kb_fixture,
)


@pytest.fixture(scope="module")
def kb_paths(tmp_path_factory):
    return write_kb_fixture(tmp_path_factory.mktemp("kb"))


def test_build_kb_reports_stats(kb_paths, tmp_path):
    out = tmp_path / "stats.json"
    run_cli("build-kb", *kb_flags(kb_paths), "--out", out)
    stats = json.loads(out.read_text())
    assert stats == {"entities": 12, "relations": 3, "pairs": 12, "triples": 12}
    manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
    assert manifest["stage"] == "build-kb"
    assert str(out) in manifest["outputs"]


def test_build_trie_writes_loadable_caches(kb_paths, tmp_path):
    ent, rel = tmp_path / "ent.trie", tmp_path / "rel.trie"
    run_cli(
        "build-trie", *kb_flags(kb_paths),
        "--out-entity", ent, "--out-relation", rel,
    )
    from factgen.trie import ConstraintTrie

    assert ConstraintTrie.load(str(ent)).label_count == 12
    assert ConstraintTrie.load(str(rel)).label_count == 3


def test_bad_flags_exit_2(kb_paths):
    proc = subprocess.run(
        [*CLI, "extract", "--no-such-flag"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_data_error_exits_1_with_stage_line(tmp_path, kb_paths):
    proc = subprocess.run(
        [
            *CLI, "extract",
            "--input", str(tmp_path / "missing.jsonl"),
            *kb_flags(kb_paths),
            "--out", str(tmp_path / "out.jsonl"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["stage"] == "extract"
    assert "missing.jsonl" in error["error"]


def test_score_prints_hand_fixture_numbers(kb_paths, tmp_path):
    # Reuse the evaluation hand-count fixture through the file interface.
    gold_rows = [
        {
            "id": "i1",
            "text": "one",
            "spans": [],
            "triples": [
                {"head": "Q145", "pid": "P36", "tail": "Q84"},
                {"head": "Q84", "pid": "P17", "tail": "Q145"},
            ],
            "is_negative": False,
        },
        {
            "id": "i2",
            "text": "two",
            "spans": [],
            "triples": [
                {"head": "Q38", "pid": "P36", "tail": "Q220"},
                {"head": "Q62", "pid": "P571", "tail": "1776"},
            ],
            "is_negative": False,
        },
        {"id": "i3", "text": "three", "spans": [], "triples": [], "is_negative": True},
        {"id": "i4", "text": "four", "spans": [], "triples": [], "is_negative": True},
    ]
    pred_rows = [
        {
            "id": "i1",
            "output": "<sub> United Kingdom <rel> capital <obj> London <et> "
            "<sub> London <rel> country <obj> United Kingdom <et> "
            "<sub> Italy <rel> country <obj> Rome <et>",
        },
        {
            "id": "i2",
            "output": "<sub> Italy <rel> capital <obj> Rome <et> "
            "<sub> Ghidorah <rel> capital <obj> Tokyo <et>",
        },
        {"id": "i3", "output": ""},
        {"id": "i4", "output": ""},
    ]
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text("".join(json.dumps(r) + "\n" for r in gold_rows))
    pred.write_text("".join(json.dumps(r) + "\n" for r in pred_rows))
    report_path = tmp_path / "report.json"
    proc = run_cli(
        "score", "--pred", pred, "--gold", gold, *kb_flags(kb_paths),
        "--out", report_path,
    )
    assert "0.6000" in proc.stdout
    assert "0.7500" in proc.stdout
    report = json.loads(report_path.read_text())
    assert report["precision"] == pytest.approx(0.6)
    assert report["recall"] == pytest.approx(0.75)
    assert report["counts"] == {"tp": 3, "fp": 2, "fn": 1, "n_pos": 2, "n_neg": 2}


def test_split_is_byte_identical_across_reruns(tmp_path):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(40)))
    out = tmp_path / "splits"
    names = ("train.jsonl", "validation.jsonl", "test.jsonl", "split.manifest.json")
    run_cli("split", "--input", data, "--split", "90,5,5", "--seed", "7",
            "--out-dir", out)
    first = {name: (out / name).read_bytes() for name in names}
    run_cli("split", "--input", data, "--split", "90,5,5", "--seed", "7",
            "--out-dir", out)
    for name in names:
        assert (out / name).read_bytes() == first[name]
    assert len(read_jsonl(out / "train.jsonl")) == 36
    assert len(read_jsonl(out / "validation.jsonl")) == 2
    assert len(read_jsonl(out / "test.jsonl")) == 2


def test_targets_entity_prompt_matches_worked_fixture(kb_paths, tmp_path):
    row = {
        "id": "uk",
        "text": "The UK named London its capital centuries ago.",
        "spans": [
            {"start": 4, "end": 6, "surface": "UK", "link": "Q145"},
            {"start": 13, "end": 19, "surface": "London", "link": "Q84"},
        ],
        "triples": [{"head": "Q145", "pid": "P36", "tail": "Q84"}],
        "is_negative": False,
    }
    data = tmp_path / "dataset.jsonl"
    data.write_text(json.dumps(row) + "\n")
    out = tmp_path / "targets.jsonl"
    run_cli(
        "targets", "--input", data, *kb_flags(kb_paths),
        "--mode", "entity-prompt", "--out", out,
    )
    (instance,) = read_jsonl(out)
    assert instance["target"] == (
        "[ENTITY] UK # United Kingdom | London # London "
        "[TRIPLE] <sub> United Kingdom <rel> capital <obj> London <et>"
    )


def test_targets_artificial_prompt_and_dual_head(kb_paths, tmp_path):
    row = {
        "id": "uk",
        "text": "The UK named London its capital centuries ago.",
        "spans": [
            {"start": 4, "end": 6, "surface": "UK", "link": "Q145"},
            {"start": 13, "end": 19, "surface": "London", "link": "Q84"},
        ],
        "triples": [{"head": "Q145", "pid": "P36", "tail": "Q84"}],
        "is_negative": False,
    }
    data = tmp_path / "dataset.jsonl"
    data.write_text(json.dumps(row) + "\n")

    out = tmp_path / "ap.jsonl"
    run_cli("targets", "--input", data, *kb_flags(kb_paths),
            "--mode", "artificial-prompt", "--out", out)
    el, tri = read_jsonl(out)
    assert el["input"].startswith("<#el#> The UK")
    assert el["target"] == "UK # United Kingdom | London # London"
    assert tri["input"].startswith("<#tri#> The UK")
    assert tri["target"] == "<sub> United Kingdom <rel> capital <obj> London <et>"

    out2 = tmp_path / "dual.jsonl"
    run_cli("targets", "--input", data, *kb_flags(kb_paths),
            "--mode", "dual-head", "--out", out2)
    (dual,) = read_jsonl(out2)
    assert dual["target_ie"] == "<sub> United Kingdom <rel> capital <obj> London <et>"
    assert dual["target_el"] == "UK # United Kingdom | London # London"


def test_micro_pipeline_flow(kb_paths, tmp_path):
    paths = run_pipeline(kb_paths, tmp_path / "run")
    dataset = read_jsonl(paths["dataset"])
    positives = [r for r in dataset if not r["is_negative"]]
    negatives = [r for r in dataset if r["is_negative"]]
    assert len(positives) == 8
    assert len(negatives) == 8
    report = json.loads(paths["report"].read_text())
    # The EOS-preferring mock empties every output: negatives all correct.
    assert report["accuracy_negative"] == 1.0
    assert report["empty_positive_rate"] == 1.0
    predictions = read_jsonl(paths["predictions"])
    assert all(p["output"] == "" for p in predictions)


def test_filter_with_exec_scorer(kb_paths, tmp_path):
    stub = Path(__file__).parent / "stub_scorer.py"
    row = {
        "id": "sf",
        "text": "San Francisco entered United States records in 1776.",
        "spans": [
            {"start": 0, "end": 13, "surface": "San Francisco", "link": "Q62"},
            {"start": 22, "end": 35, "surface": "United States", "link": "Q30"},
            {"start": 47, "end": 51, "surface": "1776", "link": "1776"},
        ],
        "triples": [
            {"head": "Q62", "pid": "P17", "tail": "Q30"},
            {"head": "Q62", "pid": "P571", "tail": "1776"},
        ],
        "is_negative": False,
    }
    data = tmp_path / "extracted.jsonl"
    data.write_text(json.dumps(row) + "\n")
    out = tmp_path / "filtered.jsonl"
    run_cli(
        "filter", "--input", data, *kb_flags(kb_paths),
        "--threshold", "0.7",
        "--scorer", f"exec:{sys.executable} {stub}",
        "--out", out,
    )

    # Oracle: the stub scores (len(premise)+len(hypothesis)) % 10 / 10, so
    # the country triple scores 0.8 (kept) and inception 0.1 (dropped).
    def stub_score(hypothesis):
        return ((len(row["text"]) + len(hypothesis)) % 10) / 10

    expected = []
    for triple, hypothesis in (
        (row["triples"][0], "San Francisco country United States."),
        (row["triples"][1], "San Francisco inception 1776."),
    ):
        if stub_score(hypothesis) > 0.7:
            expected.append(triple)
    assert len(expected) == 1
    (filtered,) = read_jsonl(out)
    assert filtered["triples"] == expected
    assert filtered["is_negative"] is False


def test_filter_rejects_bad_entail_value_from_exec_scorer(kb_paths, tmp_path):
    stub = Path(__file__).parent / "bad_stub_scorer.py"
    row = {
        "id": "sf",
        "text": "San Francisco entered United States records.",
        "spans": [
            {"start": 0, "end": 13, "surface": "San Francisco", "link": "Q62"},
            {"start": 22, "end": 35, "surface": "United States", "link": "Q30"},
        ],
        "triples": [{"head": "Q62", "pid": "P17", "tail": "Q30"}],
        "is_negative": False,
    }
    data = tmp_path / "extracted.jsonl"
    data.write_text(json.dumps(row) + "\n")
    proc = subprocess.run(
        [
            *CLI, "filter", "--input", str(data), *kb_flags(kb_paths),
            "--scorer", f"exec:{sys.executable} {stub} nli-nan",
            "--out", str(tmp_path / "filtered.jsonl"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["stage"] == "filter"
    assert error["error"].startswith("ScorerProtocolError: nli response 'entail'")
    assert "nan" in error["error"].lower()


def test_decode_with_exec_scorer(kb_paths, tmp_path):
    stub = Path(__file__).parent / "stub_scorer.py"
    data = tmp_path / "instances.jsonl"
    data.write_text(json.dumps({"id": "x", "input": "text", "target": ""}) + "\n")
    out = tmp_path / "pred.jsonl"
    run_cli(
        "decode", "--input", data, *kb_flags(kb_paths),
        "--mode", "constrained",
        "--scorer", f"exec:{sys.executable} {stub}",
        "--beam", "2", "--max-len", "8", "--out", out,
    )
    (row,) = read_jsonl(out)
    # The stub prefers lower token ids, so EOS (256) beats <sub> (257).
    assert row == {"id": "x", "output": ""}


def test_decode_rejects_nan_from_exec_scorer(kb_paths, tmp_path):
    nan_scorer = tmp_path / "nan_scorer.py"
    nan_scorer.write_text(
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    n = len(json.loads(line)['candidates'])\n"
        "    sys.stdout.write(json.dumps({'logprobs': [float('nan')] * n}) + '\\n')\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    data = tmp_path / "instances.jsonl"
    data.write_text(json.dumps({"id": "x", "input": "text", "target": ""}) + "\n")
    proc = subprocess.run(
        [
            *CLI, "decode", "--input", str(data), *kb_flags(kb_paths),
            "--mode", "constrained",
            "--scorer", f"exec:{sys.executable} {nan_scorer}",
            "--out", str(tmp_path / "pred.jsonl"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    error = json.loads(proc.stderr.strip().splitlines()[-1])
    assert error["stage"] == "decode"
    assert error["error"].startswith("DecodeError: ")
    assert "nan" in error["error"]
