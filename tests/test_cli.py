from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from factgen import cli
from factgen.kb import Triple, load_kb
from factgen.pipeline import HypothesisTemplates
from factgen.records import load_dataset, write_jsonl
from factgen.scorers import ExternalScorerClient
from factgen.tokenizers import ByteTokenizer
from factgen.trie import ConstraintTrie

from .corpus import (
    CLI,
    kb_flags,
    micro_corpus_records,
    read_jsonl_file as read_jsonl,
    run_cli,
    run_pipeline,
    write_kb_fixture,
    write_micro_corpus,
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


def stage_error(capsys) -> dict:
    """The stage JSON line an in-process ``cli.main`` printed last on stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("input_exists", [True, False], ids=["empty-input", "no-input"])
@pytest.mark.parametrize(
    "stage, flags, message",
    [
        ("filter", ["--threshold", "nan"], "--threshold must lie in [0, 1], got nan"),
        ("filter", ["--threshold", "5"], "--threshold must lie in [0, 1], got 5.0"),
        ("negatives", ["--neg-fraction", "1"], "--neg-fraction must lie in [0, 1), got 1.0"),
        ("split", ["--split=-10,60,50"], "--split parts must not be negative, got '-10,60,50'"),
    ],
    ids=["threshold-nan", "threshold-5", "neg-fraction-1", "split-negative"],
)
def test_bad_bound_fails_before_input_is_read(
    kb_paths, tmp_path, capsys, stage, flags, message, input_exists
):
    data = tmp_path / "empty.jsonl"
    if input_exists:
        data.write_text("")
    if stage == "split":  # no KB, and a directory for its three outputs
        outputs = ["--out-dir", str(tmp_path / "splits")]
    else:
        outputs = [*kb_flags(kb_paths), "--out", str(tmp_path / "out.jsonl")]
    code = cli.main([stage, "--input", str(data), *flags, *outputs])
    assert code == 1
    assert stage_error(capsys) == {"stage": stage, "error": f"ValueError: {message}"}
    assert sorted(tmp_path.iterdir()) == ([data] if input_exists else [])


@pytest.mark.parametrize("kb_exists", [True, False], ids=["kb", "no-kb"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--years-last", "10003"], "year bounds must lie in 0..9999, got 1..10003"),
        (["--years-first", "-3"], "year bounds must lie in 0..9999, got -3..2100"),
        (["--years-first", "2000", "--years-last", "1000"],
         "first year must not exceed last year, got 2000..1000"),
    ],
    ids=["years-last-10003", "years-first-minus-3", "years-reversed"],
)
def test_bad_year_bound_fails_before_the_kb_is_read(
    kb_paths, tmp_path, capsys, flags, message, kb_exists
):
    # A year outside 0..9999 is no year literal: the tail trie would accept
    # a value the KB cannot resolve. Reversed bounds would admit no year.
    kb = kb_paths if kb_exists else {kind: str(tmp_path / kind) for kind in kb_paths}
    out = tmp_path / "tail.trie"
    code = cli.main(["build-trie", *kb_flags(kb), *flags, "--out-tail", str(out)])
    assert code == 1
    assert stage_error(capsys) == {"stage": "build-trie", "error": f"ValueError: {message}"}
    assert list(tmp_path.iterdir()) == []


def test_non_numeric_split_names_the_flag(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"id": 1}) + "\n")
    code = cli.main(
        ["split", "--input", str(data), "--split", "a,b,c", "--out-dir", str(tmp_path / "s")]
    )
    assert code == 1
    assert stage_error(capsys) == {
        "stage": "split",
        "error": "ValueError: --split needs three comma-separated numbers, got 'a,b,c'",
    }


@pytest.mark.parametrize("duplicated", ["gold", "pred"])
def test_score_rejects_duplicate_ids(kb_paths, tmp_path, capsys, duplicated):
    triple = {"head": "Q145", "pid": "P36", "tail": "Q84"}
    second = "i1" if duplicated == "gold" else "i2"
    gold_rows = [
        {"id": "i1", "text": "one", "spans": [], "triples": [triple], "is_negative": False},
        {"id": second, "text": "two", "spans": [], "triples": [], "is_negative": True},
    ]
    second = "i1" if duplicated == "pred" else "i2"
    pred_rows = [{"id": "i1", "output": ""}, {"id": second, "output": ""}]
    files = {"gold": tmp_path / "gold.jsonl", "pred": tmp_path / "pred.jsonl"}
    files["gold"].write_text("".join(json.dumps(r) + "\n" for r in gold_rows))
    files["pred"].write_text("".join(json.dumps(r) + "\n" for r in pred_rows))
    report = tmp_path / "report.json"
    code = cli.main(
        ["score", "--pred", str(files["pred"]), "--gold", str(files["gold"]),
         *kb_flags(kb_paths), "--out", str(report)]
    )
    assert code == 1
    assert stage_error(capsys) == {
        "stage": "score",
        "error": f"RecordError: {files[duplicated]}:2: duplicate id 'i1'",
    }
    assert not report.exists()


@pytest.mark.parametrize("stage", ["extract", "negatives", "decode", "split"])
def test_repeated_input_id_is_rejected(kb_paths, tmp_path, capsys, stage):
    # A later positive repeating a pool sentence's id once made negatives
    # count that sentence's triples from the wrong record, and decode wrote
    # predictions that score then rejected.
    triple = {"head": "Q145", "pid": "P36", "tail": "Q84"}
    rows = [
        {"id": "s1", "text": "one", "spans": [], "triples": []},
        {"id": "s2", "text": "two", "spans": [], "triples": [triple]},
        {"id": "s1", "text": "three", "spans": [], "triples": [triple]},
    ]
    data = tmp_path / "data.jsonl"
    write_jsonl(str(data), rows)
    out = tmp_path / "out.jsonl"
    if stage == "split":
        flags = ["--out-dir", str(out)]
    else:
        flags = [*kb_flags(kb_paths), "--out", str(out)]
    code = cli.main([stage, "--input", str(data), *flags])
    assert code == 1
    assert stage_error(capsys) == {
        "stage": stage,
        "error": f"RecordError: {data}:3: duplicate id 's1'",
    }
    assert not out.exists()


@pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
def test_decode_reads_the_kb_only_to_build_a_missing_trie(tmp_path, mode):
    kb = write_kb_fixture(tmp_path / "kb")
    tries = []
    if mode == "constrained":
        build = ["build-trie", *kb_flags(kb)]
        for kind in ("entity", "relation", "tail"):
            cache = str(tmp_path / f"{kind}.trie")
            build += [f"--out-{kind}", cache]
            tries += [f"--{kind}-trie", cache]
        assert cli.main(build) == 0
    data = tmp_path / "instances.jsonl"
    write_jsonl(str(data), [
        {"id": "a", "input": "x", "target": "<sub>United Kingdom<rel>capital<obj>London<et>"},
        {"id": "b", "input": "y", "target": "<sub>Italy<rel>capital<obj>Rome<et>"},
    ])
    out = tmp_path / "pred.jsonl"
    manifest = tmp_path / "pred.jsonl.manifest.json"
    argv = ["decode", "--input", str(data), *kb_flags(kb), "--mode", mode, *tries,
            "--beam", "2", "--max-len", "64", "--out", str(out)]
    assert cli.main(argv) == 0
    with_kb = out.read_bytes(), manifest.read_bytes()
    for path in kb.values():
        Path(path).unlink()
    assert cli.main(argv) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == with_kb
    # The --kb-* flags are optional; the manifest lists only the inputs given,
    # the trie caches after the instances.
    argv = ["decode", "--input", str(data), "--mode", mode, *tries,
            "--beam", "2", "--max-len", "64", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == with_kb[0]
    assert json.loads(manifest.read_bytes())["inputs"] == [str(data), *tries[1::2]]


def test_decode_rejects_a_trie_cache_that_holds_eos(tmp_path, capsys):
    # The caches build-trie wrote for the titles "A</s>B" and "A <rel> B"
    # before the KB rejected such titles: the chains A, EOS (id 256), B and
    # A, space, <rel> (id 258), space, B.
    cache = tmp_path / "entity.trie"
    data = tmp_path / "instances.jsonl"
    write_jsonl(str(data), [{"id": "a", "input": "x", "target": ""}])
    out = tmp_path / "pred.jsonl"
    argv = ["decode", "--input", str(data), "--entity-trie", str(cache),
            "--relation-trie", str(cache), "--tail-trie", str(cache), "--out", str(out)]
    for ids, held in [
        ([65, 256, 66], "reserved symbol '</s>' (id 256)"),
        ([65, 32, 258, 32, 66], "reserved symbol '<rel>' (id 258)"),
    ]:
        chain = ConstraintTrie(  # one node per token after the root
            array("I", [*range(len(ids) + 1), len(ids)]), array("I", ids),
            bytearray([0] * len(ids) + [1]),
        )
        chain.save(str(cache))
        assert cli.main(argv) == 1
        assert stage_error(capsys) == {
            "stage": "decode",
            "error": f"TrieCacheError: {cache}: a label holds {held}: "
            "rerun build-trie to rewrite it",
        }
        assert not out.exists()


def test_decode_names_the_kb_flags_a_trie_build_lacks(kb_paths, tmp_path, capsys):
    data = tmp_path / "instances.jsonl"
    write_jsonl(str(data), [{"id": "a", "input": "x", "target": ""}])
    out = tmp_path / "pred.jsonl"
    argv = ["decode", "--input", str(data), "--kb-relations", kb_paths["relations"],
            "--mode", "constrained", "--out", str(out)]
    assert cli.main(argv) == 1
    assert stage_error(capsys) == {
        "stage": "decode",
        "error": "ValueError: building the entity trie needs the KB: "
        "pass --kb-entities, --kb-triples or --entity-trie",
    }
    assert not out.exists()


@pytest.fixture()
def scorer_clients(monkeypatch):
    """``(opened, closed)``: every scorer client made, and every one closed."""
    opened, closed = [], []
    from_spec, close = ExternalScorerClient.from_spec, ExternalScorerClient.close

    def recording_from_spec(spec):
        opened.append(from_spec(spec))
        return opened[-1]

    def recording_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(ExternalScorerClient, "from_spec", staticmethod(recording_from_spec))
    monkeypatch.setattr(ExternalScorerClient, "close", recording_close)
    return opened, closed


@pytest.mark.parametrize(
    "stage, cache",
    [
        ("decode", b"not a trie cache"),
        # A cache in the older TRI1 layout: the label "a".
        ("decode", b"TRI1\x02\x00\x01\x00\x61\x00\x01"),
        ("filter", None),
    ],
    ids=["decode", "decode-TRI1", "filter"],
)
def test_exec_scorer_is_closed_when_the_stage_fails(
    kb_paths, tmp_path, capsys, scorer_clients, stage, cache
):
    opened, closed = scorer_clients
    stub = Path(__file__).parent / "stub_scorer.py"
    data = tmp_path / "data.jsonl"
    if stage == "decode":
        data.write_text(json.dumps({"id": "x", "input": "text", "target": ""}) + "\n")
        corrupt = tmp_path / "entity.trie"
        corrupt.write_bytes(cache)
        flags = ["--entity-trie", str(corrupt)]
        expected = "TrieCacheError: bad magic bytes"
    else:
        # P99 is not in the KB, so rendering its hypothesis fails mid-stage.
        row = {
            "id": "sf",
            "text": "San Francisco entered United States records.",
            "spans": [],
            "triples": [{"head": "Q62", "pid": "P99", "tail": "Q30"}],
            "is_negative": False,
        }
        data.write_text(json.dumps(row) + "\n")
        flags = []
        expected = "TemplateError: unknown relation 'P99'"
    out = tmp_path / "out.jsonl"
    code = cli.main(
        [stage, "--input", str(data), *kb_flags(kb_paths), *flags,
         "--scorer", f"exec:{sys.executable} {stub}", "--out", str(out)]
    )
    assert code == 1
    error = stage_error(capsys)
    assert error["stage"] == stage
    assert error["error"].startswith(expected)
    if stage == "decode":
        assert "rerun build-trie" in error["error"]
    assert closed == opened
    assert all(
        client._proc.returncode == 0 and client._sock.fileno() == -1
        for client in opened
    )
    assert not out.exists()


def test_failed_write_leaves_previous_outputs_untouched(tmp_path, monkeypatch):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(40)))
    out = tmp_path / "splits"

    def split(seed: str) -> int:
        return cli.main(
            ["split", "--input", str(data), "--seed", seed, "--out-dir", str(out)]
        )

    assert split("7") == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    written = []

    def write_half_then_fail(path, rows):
        # The first output is written in full, the second one only in part.
        written.append(path)
        if len(written) == 1:
            return write_jsonl(path, rows)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"id": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_jsonl", write_half_then_fail)
    assert split("8") == 1
    assert len(written) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# Every manifest of the micro pipeline plus build-kb and build-trie, as the
# stage runner wrote them before it became one helper; <run> and <kb> stand
# for the run and KB directories.
KB_INPUTS = ["<kb>/entities.tsv", "<kb>/relations.tsv", "<kb>/triples.tsv"]
PINNED_MANIFESTS = {
    "kb-stats.json.manifest.json": {
        "stage": "build-kb", "config": {}, "inputs": KB_INPUTS,
        "outputs": ["<run>/kb-stats.json"], "seed": None,
        "record_counts": {"entities": 12, "pairs": 12, "relations": 3, "triples": 12},
    },
    "entity.trie.manifest.json": {
        "stage": "build-trie", "config": {"years_first": 1, "years_last": 2100},
        "inputs": KB_INPUTS,
        "outputs": ["<run>/entity.trie", "<run>/relation.trie", "<run>/tail.trie"],
        "seed": None,
        "record_counts": {"entity_labels": 12, "relation_labels": 3, "tail_labels": 2112},
    },
    "extracted.jsonl.manifest.json": {
        "stage": "extract", "config": {"min_words": 10},
        "inputs": ["<run>/sentences.jsonl", *KB_INPUTS],
        "outputs": ["<run>/extracted.jsonl"], "seed": None,
        "record_counts": {"sentences": 20},
    },
    "filtered.jsonl.manifest.json": {
        "stage": "filter", "config": {"scorer": "mock", "threshold": 0.7},
        "inputs": ["<run>/extracted.jsonl", *KB_INPUTS],
        "outputs": ["<run>/filtered.jsonl"], "seed": None,
        "record_counts": {"kept_triples": 14, "sentences": 20},
    },
    "dataset.jsonl.manifest.json": {
        "stage": "negatives", "config": {"neg_fraction": 0.5},
        "inputs": ["<run>/filtered.jsonl", *KB_INPUTS],
        "outputs": ["<run>/dataset.jsonl"], "seed": 7,
        "record_counts": {"instances": 16, "negatives": 8, "positives": 8},
    },
    "splits/split.manifest.json": {
        "stage": "split", "config": {"ratios": [0.9, 0.05, 0.05]},
        "inputs": ["<run>/dataset.jsonl"],
        "outputs": [
            "<run>/splits/train.jsonl",
            "<run>/splits/validation.jsonl",
            "<run>/splits/test.jsonl",
        ],
        "seed": 7,
        "record_counts": {"test": 0, "train": 16, "validation": 0},
    },
    "targets.jsonl.manifest.json": {
        "stage": "targets", "config": {"mode": "standard"},
        "inputs": ["<run>/dataset.jsonl", *KB_INPUTS],
        "outputs": ["<run>/targets.jsonl"], "seed": None,
        "record_counts": {"instances": 16},
    },
    "predictions.jsonl.manifest.json": {
        "stage": "decode",
        "config": {
            "beam": 4, "max_len": 96, "mode": "constrained", "ngram_order": 2,
            "scorer": "mock",
        },
        "inputs": ["<run>/targets.jsonl", *KB_INPUTS],
        "outputs": ["<run>/predictions.jsonl"], "seed": None,
        "record_counts": {"predictions": 16},
    },
    "filtered-templated.jsonl.manifest.json": {
        "stage": "filter", "config": {"scorer": "mock", "threshold": 0.7},
        "inputs": ["<run>/extracted.jsonl", *KB_INPUTS, "<run>/templates.jsonl"],
        "outputs": ["<run>/filtered-templated.jsonl"], "seed": None,
        "record_counts": {"kept_triples": 14, "sentences": 20},
    },
    "predictions-cached.jsonl.manifest.json": {
        "stage": "decode",
        "config": {
            "beam": 4, "max_len": 96, "mode": "constrained", "ngram_order": 2,
            "scorer": "mock",
        },
        "inputs": [
            "<run>/targets.jsonl", "<run>/entity.trie", "<run>/relation.trie",
            "<run>/tail.trie",
        ],
        "outputs": ["<run>/predictions-cached.jsonl"], "seed": None,
        "record_counts": {"predictions": 16},
    },
    "report.json.manifest.json": {
        "stage": "score", "config": {},
        "inputs": ["<run>/predictions.jsonl", "<run>/dataset.jsonl", *KB_INPUTS],
        "outputs": ["<run>/report.json"], "seed": None,
        "record_counts": {"instances": 16},
    },
}


@pytest.fixture(scope="module")
def manifest_run(kb_paths, tmp_path_factory) -> Path:
    run = tmp_path_factory.mktemp("manifests")
    run_pipeline(kb_paths, run)
    run_cli("build-kb", *kb_flags(kb_paths), "--out", run / "kb-stats.json")
    run_cli(
        "build-trie", *kb_flags(kb_paths), "--out-entity", run / "entity.trie",
        "--out-relation", run / "relation.trie", "--out-tail", run / "tail.trie",
    )
    # The files a stage reads beyond its input and the KB: templates, caches.
    write_jsonl(str(run / "templates.jsonl"), [{"pid": "P36", "templates": ["{head}: {tail}"]}])
    run_cli(
        "filter", "--input", run / "extracted.jsonl", *kb_flags(kb_paths),
        "--templates", run / "templates.jsonl", "--out", run / "filtered-templated.jsonl",
    )
    run_cli(
        "decode", "--input", run / "targets.jsonl", "--entity-trie", run / "entity.trie",
        "--relation-trie", run / "relation.trie", "--tail-trie", run / "tail.trie",
        "--max-len", "96", "--out", run / "predictions-cached.jsonl",
    )
    return run


@pytest.mark.parametrize("name", sorted(PINNED_MANIFESTS))
def test_manifest_contents_are_pinned(kb_paths, manifest_run, name):
    kb_dir = str(Path(kb_paths["entities"]).parent)
    text = (manifest_run / name).read_text(encoding="utf-8")
    text = text.replace(str(manifest_run), "<run>").replace(kb_dir, "<kb>")
    assert json.loads(text) == PINNED_MANIFESTS[name]


# SHA-256 of the micro pipeline's dataset and of its targets in each mode,
# as the stages wrote them when negatives still re-ran distant supervision
# and targets built carrier objects before the rows.
PINNED_DIGESTS = {
    "dataset": "6b39e6d4f0d676343b7ea13d8c863d684284ff8a6ad32c89ef49e41a8d445994",
    "standard": "a593328cff6da5f0d76a7987d6a8360b47798937ae13cd9487fe4b88db4e9f6b",
    "entity-prompt": "f12a0a8199d270d00745376c1be53779b6b22025e6bb3eb9407a89925d370fa1",
    "artificial-prompt": "b973300f2bde20674cd0ceff8194797bdcb29b18928c058cd545db103aa61795",
    "dual-head": "476eed1ca9ead41cb6e7460efa1c49aa052b1a2bc860ae86348b63a172b8fce6",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_dataset_and_target_bytes_are_pinned(kb_paths, manifest_run, tmp_path, name):
    dataset = manifest_run / "dataset.jsonl"
    out = dataset
    if name != "dataset":
        out = tmp_path / "targets.jsonl"
        argv = ["targets", "--input", str(dataset), *kb_flags(kb_paths), "--mode", name,
                "--out", str(out)]
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS[name]


# -- the collector pause, pipelined filter, KB-free negatives ----------------


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("fails", [False, True], ids=["exit-0", "exit-1"])
def test_main_pauses_the_collector_and_restores_it(
    tmp_path, monkeypatch, capsys, collecting, fails
):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(4)))
    seen = []
    split_dataset = cli.split_dataset

    def recording_split(*args, **kwargs):
        seen.append(gc.isenabled())
        if fails:
            raise ValueError("boom")
        return split_dataset(*args, **kwargs)

    monkeypatch.setattr(cli, "split_dataset", recording_split)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code = cli.main(["split", "--input", str(data), "--out-dir", str(tmp_path / "s")])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (1 if fails else 0)
    assert seen == [False]
    assert after is collecting
    if fails:
        assert stage_error(capsys) == {"stage": "split", "error": "ValueError: boom"}


def scaled_corpus(path: Path, copies: int) -> str:
    """The micro corpus repeated ``copies`` times under fresh ids."""
    write_jsonl(str(path), [
        dict(record, id=f"{record['id']}-{copy}")
        for copy in range(copies)
        for record in micro_corpus_records()
    ])
    return str(path)


def test_cyclic_garbage_after_a_stage_does_not_grow_with_input(kb_paths, tmp_path):
    # The stages build no reference cycles per record: what the collector
    # finds after a stage is the same for 20 and for 160 input sentences.
    def cyclic_garbage(argv) -> int:
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()

    found = {}
    for copies in (1, 8):
        run = tmp_path / f"x{copies}"
        run.mkdir()
        sentences = scaled_corpus(run / "sentences.jsonl", copies)
        o = lambda name: str(run / name)  # noqa: E731
        stages = {
            "extract": ["--input", sentences, *kb_flags(kb_paths), "--out", o("ex.jsonl")],
            "filter": ["--input", o("ex.jsonl"), *kb_flags(kb_paths), "--out", o("fi.jsonl")],
            "negatives": ["--input", o("fi.jsonl"), *kb_flags(kb_paths), "--out", o("ds.jsonl")],
            "split": ["--input", o("ds.jsonl"), "--out-dir", o("splits")],
            "targets": ["--input", o("ds.jsonl"), *kb_flags(kb_paths), "--mode", "dual-head",
                        "--out", o("targets.jsonl")],
        }
        found[copies] = {
            stage: cyclic_garbage([stage, *argv]) for stage, argv in stages.items()
        }
        assert len(read_jsonl(o("ds.jsonl"))) == 16 * copies
    assert found[8] == found[1]


RECORDING_STUB = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from stub_scorer import handle\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as log:\n"
    "    for line in sys.stdin:\n"
    "        log.write(line)\n"
    "        log.flush()\n"
    "        sys.stdout.write(json.dumps(handle(line)) + '\\n')\n"
    "        sys.stdout.flush()\n"
)


def test_filter_sends_the_per_triple_request_lines_in_order(kb_paths, tmp_path):
    # More than a hundred hypotheses, two templates for P36: the stub must
    # read exactly the lines a loop over sentences, triples and templates
    # sends one round trip at a time.
    templates = tmp_path / "templates.jsonl"
    write_jsonl(str(templates), [
        {"pid": "P36", "templates": ["{tail} is the capital of {head}.", "{head}: {tail}"]}
    ])
    extracted = tmp_path / "extracted.jsonl"
    sentences = scaled_corpus(tmp_path / "sentences.jsonl", 8)
    run_cli("extract", "--input", sentences, *kb_flags(kb_paths), "--out", extracted)
    log = tmp_path / "requests.log"
    recorder = tmp_path / "recording_scorer.py"
    recorder.write_text(RECORDING_STUB, encoding="utf-8")
    scorer = f"exec:{sys.executable} {recorder} {log} {Path(__file__).parent}"
    out = tmp_path / "filtered.jsonl"
    assert cli.main(
        ["filter", "--input", str(extracted), *kb_flags(kb_paths), "--templates",
         str(templates), "--threshold", "0.5", "--scorer", scorer, "--out", str(out)]
    ) == 0

    kb = load_kb(kb_paths["entities"], kb_paths["relations"], kb_paths["triples"])
    rendering = HypothesisTemplates.load(str(templates))
    dataset = load_dataset(str(extracted))
    expected = [
        json.dumps({"type": "nli", "premise": sentence.text, "hypothesis": hypothesis})
        for sentence, triples in dataset
        for triple in triples
        for hypothesis in rendering.hypotheses_for(triple, kb)
    ]
    assert len(expected) > 128
    assert log.read_text(encoding="utf-8").splitlines() == expected
    # Each score went back to its own triple: the stub scores
    # (len(premise) + len(hypothesis)) % 10 / 10.
    kept = [
        [t for t in triples if max(
            (len(sentence.text) + len(h)) % 10 / 10 for h in rendering.hypotheses_for(t, kb)
        ) > 0.5]
        for sentence, triples in dataset
    ]
    assert [
        [Triple(t["head"], t["pid"], t["tail"]) for t in row["triples"]]
        for row in read_jsonl(out)
    ] == kept
    assert 0 < sum(map(len, kept)) < sum(len(t) for _, t in dataset)


def test_bad_entail_in_mid_window_fails_filter_and_closes_the_client(
    kb_paths, tmp_path, capsys, scorer_clients
):
    opened, closed = scorer_clients
    extracted = tmp_path / "extracted.jsonl"
    sentences = scaled_corpus(tmp_path / "sentences.jsonl", 12)
    run_cli("extract", "--input", sentences, *kb_flags(kb_paths), "--out", extracted)
    stub = Path(__file__).parent / "bad_stub_scorer.py"
    out = tmp_path / "filtered.jsonl"
    # The first 70 responses are good, so the bad one is mid-way through
    # the batch.
    code = cli.main(
        ["filter", "--input", str(extracted), *kb_flags(kb_paths),
         "--scorer", f"exec:{sys.executable} {stub} nli-nan 70", "--out", str(out)]
    )
    assert code == 1
    error = stage_error(capsys)
    assert error["stage"] == "filter"
    assert error["error"] == (
        "ScorerProtocolError: nli response 'entail' must be a number in [0, 1], got nan"
    )
    assert len(opened) == 1 and closed == opened
    assert opened[0]._proc.returncode == 0
    assert opened[0]._sock.fileno() == -1
    assert not out.exists()


@pytest.mark.parametrize(
    "row, error, message",
    [
        (["P36", ["{head} x {tail}"]], "RecordError", "record is not an object"),
        ({"pid": "P36", "templates": "{head} x {tail}"}, "TemplateError",
         "templates must be a list of str, got '{head} x {tail}'"),
        ({"pid": "P36", "templates": ["{head} x {tail}", 7]}, "TemplateError",
         "templates must be a list of str, got ['{head} x {tail}', 7]"),
        ({"pid": 36, "templates": ["{head} x {tail}"]}, "TemplateError",
         "pid must be str, got 36"),
        ({"templates": ["{head} x {tail}"]}, "TemplateError", "template row lacks 'pid'"),
        ({"pid": "P36", "templates": []}, "TemplateError",
         "relation P36 has an empty template list"),
        ({"pid": "P36", "templates": ["{head} only"]}, "TemplateError",
         "template for P36 must contain {head} and {tail}: '{head} only'"),
        ({"pid": "P17", "templates": ["{head} lies in {tail}."]}, "TemplateError",
         "duplicate pid 'P17'"),
    ],
    ids=["array-row", "string-templates", "int-template", "int-pid", "no-pid",
         "empty-templates", "no-tail-placeholder", "repeated-pid"],
)
def test_bad_template_row_fails_filter_with_its_line(
    kb_paths, tmp_path, capsys, row, error, message
):
    templates = tmp_path / "templates.jsonl"
    good = {"pid": "P17", "templates": ["{head} is in {tail}."]}
    templates.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    data = tmp_path / "extracted.jsonl"
    data.write_text("")
    out = tmp_path / "filtered.jsonl"
    code = cli.main(
        ["filter", "--input", str(data), *kb_flags(kb_paths), "--templates", str(templates),
         "--out", str(out)]
    )
    assert code == 1
    assert stage_error(capsys) == {
        "stage": "filter", "error": f"{error}: {templates}:2: {message}",
    }
    assert not out.exists()


# Runs the given stages through cli.main in one fresh process and prints the
# factgen modules, and dataclasses if it was imported, after each.
STAGE_IMPORTS = """
import json, sys
from factgen import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    print(json.dumps(sorted(
        m for m in sys.modules if m.startswith("factgen.") or m == "dataclasses"
    )))
"""


def test_dataset_stages_import_no_decoder_evaluation_or_scorers(kb_paths, tmp_path):
    sentences = scaled_corpus(tmp_path / "sentences.jsonl", 1)
    o = lambda name: str(tmp_path / name)  # noqa: E731
    stages = [
        ["extract", "--input", sentences, *kb_flags(kb_paths), "--out", o("ex.jsonl")],
        ["negatives", "--input", o("ex.jsonl"), "--out", o("ds.jsonl")],
        ["split", "--input", o("ds.jsonl"), "--out-dir", o("splits")],
        ["targets", "--input", o("ds.jsonl"), *kb_flags(kb_paths), "--out", o("t.jsonl")],
        ["filter", "--input", o("ex.jsonl"), *kb_flags(kb_paths), "--out", o("fi.jsonl")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", STAGE_IMPORTS, json.dumps(stages)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    *dataset_stages, after_filter = map(json.loads, proc.stdout.splitlines())
    unused = {"factgen.decode", "factgen.evaluation", "factgen.scorers"}
    assert len(dataset_stages) == 4
    assert all(unused.isdisjoint(modules) for modules in dataset_stages)
    # filter imports the scorers, and nothing more of the three.
    assert unused & set(after_filter) == {"factgen.scorers"}
    # The value types are tuples: no stage pays for importing dataclasses.
    assert all("dataclasses" not in modules for modules in [*dataset_stages, after_filter])


# Imports the package in a fresh process, then prints the factgen modules it
# loaded and what the two import forms of ``linearize`` give.
PACKAGE_IMPORTS = """
import json, sys
import factgen
loaded = sorted(m for m in sys.modules if m.startswith("factgen."))
import factgen.linearize as imported
from factgen import linearize as from_package
print(json.dumps([loaded, repr(imported), repr(from_package)]))
"""


def test_the_package_imports_no_module_and_shadows_none():
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_IMPORTS],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded, imported, from_package = json.loads(proc.stdout)
    assert loaded == []
    assert imported == from_package
    assert imported.startswith("<module 'factgen.linearize' from ")


def test_negatives_never_reads_the_kb(tmp_path):
    kb = write_kb_fixture(tmp_path / "kb")
    paths = run_pipeline(kb, tmp_path / "run")
    out = tmp_path / "dataset.jsonl"
    manifest = tmp_path / "dataset.jsonl.manifest.json"
    flags = ["--neg-fraction", "0.5", "--seed", "7", "--out", str(out)]
    argv = ["negatives", "--input", str(paths["filtered"]), *kb_flags(kb), *flags]
    assert cli.main(argv) == 0
    with_kb = out.read_bytes(), manifest.read_bytes()
    assert with_kb[0] == paths["dataset"].read_bytes()
    for path in kb.values():
        Path(path).unlink()
    assert cli.main(argv) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == with_kb
    # The --kb-* flags are optional; the manifest lists only the inputs given.
    assert cli.main(["negatives", "--input", str(paths["filtered"]), *flags]) == 0
    assert out.read_bytes() == with_kb[0]
    assert json.loads(manifest.read_bytes())["inputs"] == [str(paths["filtered"])]


# Two ways to corrupt triples.tsv, each with the loader error it must give.
BAD_TRIPLES = {
    "short-row": ("Q145\tP36\tQ84\nQ38\tP36\n", "KbLoadError: {path}:2: "
                  "expected 3 tab-separated fields, got 2"),
    "long-row": ("Q145\tP36\tQ84\tQ1\n", "KbLoadError: {path}:1: "
                 "expected 3 tab-separated fields, got 4"),
}


@pytest.mark.parametrize("corruption", sorted(BAD_TRIPLES))
def test_only_extract_and_build_kb_read_the_triples(tmp_path, capsys, corruption):
    kb = write_kb_fixture(tmp_path / "kb")
    run = tmp_path / "run"
    sentences = write_micro_corpus(run)
    o = lambda name: str(run / name)  # noqa: E731
    assert cli.main(["extract", "--input", sentences, *kb_flags(kb), "--out", o("ex.jsonl")]) == 0
    assert cli.main(["negatives", "--input", o("ex.jsonl"), "--seed", "7",
                     "--out", o("ds.jsonl")]) == 0
    stages = [
        ["filter", "--input", o("ex.jsonl"), *kb_flags(kb), "--out", o("fi.jsonl")],
        *(["targets", "--input", o("ds.jsonl"), *kb_flags(kb), "--mode", mode,
           "--out", o(f"{mode}.jsonl")] for mode in cli.TARGET_MODES),
        ["build-trie", *kb_flags(kb), "--out-entity", o("entity.trie"),
         "--out-relation", o("relation.trie"), "--out-tail", o("tail.trie")],
        # No trie cache is given, so decode builds its tries from the KB.
        ["decode", "--input", o("standard.jsonl"), *kb_flags(kb), "--max-len", "64",
         "--out", o("pred.jsonl")],
        ["score", "--pred", o("pred.jsonl"), "--gold", o("ds.jsonl"), *kb_flags(kb),
         "--out", o("report.json")],
    ]

    def outputs() -> dict[str, bytes]:
        for argv in stages:
            assert cli.main(argv) == 0, argv
        return {path.name: path.read_bytes() for path in sorted(run.iterdir())}

    with_good_triples = outputs()
    assert {"fi.jsonl", "dual-head.jsonl.manifest.json", "tail.trie", "report.json"} <= set(
        with_good_triples
    )
    text, message = BAD_TRIPLES[corruption]
    Path(kb["triples"]).write_text(text, encoding="utf-8")
    assert outputs() == with_good_triples
    for argv in (["extract", "--input", sentences, *kb_flags(kb), "--out", o("ex2.jsonl")],
                 ["build-kb", *kb_flags(kb), "--out", o("kb.json")]):
        assert cli.main(argv) == 1
        assert stage_error(capsys) == {
            "stage": argv[0], "error": message.format(path=kb["triples"]),
        }
    assert not Path(o("ex2.jsonl")).exists() and not Path(o("kb.json")).exists()


@pytest.mark.parametrize(
    "mode, calls",
    [
        ("standard", {"linearize": 2, "entity_linking_chain": 0}),
        ("entity-prompt", {"linearize": 0, "entity_linking_chain": 0}),
        ("artificial-prompt", {"linearize": 2, "entity_linking_chain": 2}),
        ("dual-head", {"linearize": 2, "entity_linking_chain": 2}),
    ],
)
def test_targets_computes_only_what_its_mode_reads(kb_paths, tmp_path, monkeypatch, mode, calls):
    made = dict.fromkeys(calls, 0)
    for name in calls:
        def counted(*args, _name=name, _func=getattr(cli, name)):
            made[_name] += 1
            return _func(*args)

        monkeypatch.setattr(cli, name, counted)
    triple = {"head": "Q145", "pid": "P36", "tail": "Q84"}
    spans = [
        {"start": 4, "end": 6, "surface": "UK", "link": "Q145"},
        {"start": 13, "end": 19, "surface": "London", "link": "Q84"},
    ]
    text = "The UK named London its capital centuries ago."
    data = tmp_path / "dataset.jsonl"
    write_jsonl(str(data), [
        {"id": "a", "text": text, "spans": spans, "triples": [triple]},
        {"id": "b", "text": text, "spans": spans, "triples": []},
    ])
    out = tmp_path / "targets.jsonl"
    argv = ["targets", "--input", str(data), *kb_flags(kb_paths), "--mode", mode,
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert made == calls


@pytest.mark.parametrize("stage", ["decode", "split"])
def test_decode_and_split_reject_a_record_without_id(kb_paths, tmp_path, capsys, stage):
    data = tmp_path / "data.jsonl"
    write_jsonl(str(data), [{"id": "x", "input": "one"}, {"input": "two"}])
    if stage == "decode":
        argv = ["decode", "--input", str(data), *kb_flags(kb_paths), "--mode",
                "unconstrained", "--out", str(tmp_path / "pred.jsonl")]
    else:
        argv = ["split", "--input", str(data), "--out-dir", str(tmp_path / "splits")]
    assert cli.main(argv) == 1
    assert stage_error(capsys) == {
        "stage": stage,
        "error": f"RecordError: {data}:2: record lacks 'id'",
    }


def test_decode_encodes_gold_targets_only_for_the_mock_scorer(tmp_path, monkeypatch):
    encoded = []
    encode = ByteTokenizer.encode
    monkeypatch.setattr(
        ByteTokenizer, "encode", lambda self, text: encoded.append(text) or encode(self, text)
    )
    data = tmp_path / "instances.jsonl"
    write_jsonl(str(data), [{"id": "x", "input": "text", "target": "gold"}])
    argv = ["decode", "--input", str(data), "--mode", "unconstrained",
            "--max-len", "8", "--out", str(tmp_path / "pred.jsonl")]
    stub = Path(__file__).parent / "stub_scorer.py"
    assert cli.main([*argv, "--scorer", f"exec:{sys.executable} {stub}"]) == 0
    assert "gold" not in encoded
    assert cli.main(argv) == 0
    assert "gold" in encoded
