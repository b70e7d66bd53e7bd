from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from factgen import cli
from factgen.records import write_jsonl
from factgen.scorers import ExternalScorerClient

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
    ],
    ids=["threshold-nan", "threshold-5", "neg-fraction-1"],
)
def test_bad_bound_fails_before_input_is_read(
    kb_paths, tmp_path, capsys, stage, flags, message, input_exists
):
    data = tmp_path / "empty.jsonl"
    if input_exists:
        data.write_text("")
    out = tmp_path / "out.jsonl"
    code = cli.main(
        [stage, "--input", str(data), *kb_flags(kb_paths), *flags, "--out", str(out)]
    )
    assert code == 1
    assert stage_error(capsys) == {"stage": stage, "error": f"ValueError: {message}"}
    assert sorted(tmp_path.iterdir()) == ([data] if input_exists else [])


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


@pytest.mark.parametrize("stage", ["extract", "negatives"])
def test_repeated_input_id_is_rejected(kb_paths, tmp_path, capsys, stage):
    # A later positive repeating a pool sentence's id once made negatives
    # count that sentence's triples from the wrong record.
    triple = {"head": "Q145", "pid": "P36", "tail": "Q84"}
    rows = [
        {"id": "s1", "text": "one", "spans": [], "triples": []},
        {"id": "s2", "text": "two", "spans": [], "triples": [triple]},
        {"id": "s1", "text": "three", "spans": [], "triples": [triple]},
    ]
    data = tmp_path / "data.jsonl"
    write_jsonl(str(data), rows)
    out = tmp_path / "out.jsonl"
    code = cli.main([stage, "--input", str(data), *kb_flags(kb_paths), "--out", str(out)])
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
    kb_paths, tmp_path, capsys, monkeypatch, stage, cache
):
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
    assert all(client._transport.proc.stdout.closed for client in opened)
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
    return run


@pytest.mark.parametrize("name", sorted(PINNED_MANIFESTS))
def test_manifest_contents_are_pinned(kb_paths, manifest_run, name):
    kb_dir = str(Path(kb_paths["entities"]).parent)
    text = (manifest_run / name).read_text(encoding="utf-8")
    text = text.replace(str(manifest_run), "<run>").replace(kb_dir, "<kb>")
    assert json.loads(text) == PINNED_MANIFESTS[name]
