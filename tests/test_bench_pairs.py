"""The verdicts of ``tools/bench_pairs.py`` on fixed run values."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SEEDS = list(range(301, 311))
STEADY = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def _runs(name, parent, change):
    return {
        side: [{"metrics": {name: {"value": value}}} for value in values]
        for side, values in (("parent", parent), ("change", change))
    }


@pytest.mark.parametrize(
    "better, parent, change, expected, wins, iqr_share, change_share",
    [
        # 27% slower throughput: worse than the 25% bound.
        ("higher", STEADY, [v * 0.73 for v in STEADY], "regressed", 0, 0.0431, 0.0431),
        # 27% longer setup: lower is better, so this is worse too.
        ("lower", STEADY, [v * 1.27 for v in STEADY], "regressed", 0, 0.0431, 0.0431),
        # Won 10/10 by 15, against a parent IQR of 4.5.
        ("higher", STEADY, [v + 15 for v in STEADY], "gain", 10, 0.0431, 0.0377),
        # Won 9/10 with a lower value (lower is better) by more than the IQR.
        ("lower", STEADY, [v - 10 for v in STEADY[:9]] + [200.0], "gain", 9, 0.0431, 0.0476),
        # Won 8/10 by 15: not enough pairs for a gain, and no regression.
        ("higher", STEADY, [v + 15 for v in STEADY[:8]] + [90.0, 90.0], "no_regression", 8,
         0.0431, 0.0383),
        # The parent's IQR is 35% of its median, wider than the bound, and
        # the runs overlap.
        ("higher", [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0],
         [95.0, 105.0] * 5, "unresolved", 5, 0.35, 0.1),
        # As wide, but every change run beats every parent run, by less than
        # the IQR.
        ("higher", [20.0, 30.0, 40.0, 50.0] + [100.0] * 6, [101.0] * 10, "no_regression", 10,
         0.575, 0.0),
        # A steady parent and a change 1 slower: inside the bound.
        ("higher", STEADY, [v - 1 for v in STEADY], "no_regression", 0, 0.0431, 0.0435),
    ],
)
def test_summarize_gives_one_verdict_per_metric(
    better, parent, change, expected, wins, iqr_share, change_share
):
    specs = {"m": {"name": "m", "better": better, "bound": 0.25}}
    summary = bench_pairs.summarize(specs, _runs("m", parent, change), SEEDS)["m"]
    assert summary["verdict"] == expected
    assert summary["change_wins"] == wins
    assert summary["parent_iqr_share"] == pytest.approx(iqr_share, abs=1e-4)
    # The change's own spread, reported beside the parent's; no rule reads it.
    assert summary["change_iqr_share"] == pytest.approx(change_share, abs=1e-4)


def test_a_metric_that_a_run_lacks_gets_no_verdict():
    runs = _runs("m", STEADY, STEADY)
    del runs["change"][3]["metrics"]["m"]
    specs = {"m": {"name": "m", "better": "higher", "bound": 0.25}}
    assert bench_pairs.summarize(specs, runs, SEEDS) == {}


WIDE = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A parent checkout with two workloads of one metric ``m`` (higher is
    better), a change checkout, and the runs that a fake benchmark made: in
    ``slow`` the change is 27% slower, in ``wide`` the parent spreads wider
    than the bound and the two sides overlap."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    benchmark = {
        "workloads": [{"name": "slow"}, {"name": "wide"}],
        "end_to_end": [{"name": "m", "better": "higher", "bound": 0.25}],
    }
    (parent / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    values = {
        ("slow", parent): STEADY, ("slow", change): [v * 0.73 for v in STEADY],
        ("wide", parent): WIDE, ("wide", change): [95.0, 105.0] * 5,
    }
    calls = []

    def fake_run_bench(checkout, workload, seed, seconds):
        calls.append((workload, seed, "parent" if checkout == parent else "change"))
        value = values[workload, checkout][SEEDS.index(seed)]
        return {"correct": True, "failed": 0, "exit_code": 0, "metrics": {"m": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    return parent, change, calls


def _main(capsys, parent, change, workload):
    code = bench_pairs.main([str(parent), str(change), "--workload", workload,
                             "--seeds", "301-310", "--seconds", "1"])
    return code, json.loads(capsys.readouterr().out)


def test_all_runs_every_workload_and_lists_each_regressed_and_unresolved_metric(
    checkouts, capsys
):
    parent, change, calls = checkouts
    code, result = _main(capsys, parent, change, "all")
    assert code == 0 and result["all_correct"] is True
    assert result["workloads"] == ["slow", "wide"]
    assert {name: m["verdict"] for name, m in result["metrics"].items()} == {
        "slow/m": "regressed", "wide/m": "unresolved",
    }
    assert result["regressed"] == ["slow/m"]
    assert result["unresolved"] == ["wide/m"]
    # Each seed runs every workload, the sides alternating which goes first.
    assert calls[:8] == [
        ("slow", 301, "parent"), ("slow", 301, "change"),
        ("wide", 301, "parent"), ("wide", 301, "change"),
        ("slow", 302, "change"), ("slow", 302, "parent"),
        ("wide", 302, "change"), ("wide", 302, "parent"),
    ]
    assert len(calls) == 40


def test_a_comma_list_runs_the_named_workloads_only(checkouts, capsys):
    parent, change, calls = checkouts
    _code, result = _main(capsys, parent, change, "wide")
    assert {workload for workload, _, _ in calls} == {"wide"}
    assert (result["regressed"], result["unresolved"]) == ([], ["wide/m"])
    _code, result = _main(capsys, parent, change, "wide,slow")
    assert result["workloads"] == ["wide", "slow"]
    assert sorted(result["metrics"]) == ["slow/m", "wide/m"]



@pytest.mark.parametrize(
    "stdout, code, clean",
    [
        ('{"correct": true, "failed": 0}\n', 0, True),
        ('{"correct": false, "failed": 0}\n', 0, False),
        ('{"correct": true, "failed": 2}\n', 0, False),
        ('{"correct": true, "failed": 0}\n', 1, False),
        ("", 1, False),
    ],
    ids=["clean", "incorrect", "failed", "exit-1", "no-result-line"],
)
def test_a_run_that_is_not_clean_prints_its_stderr(monkeypatch, capsys, stdout, code, clean):
    stderr = "".join(f"log line {i}\n" for i in range(500)) + "FAILED: s7: wrong triples\n"

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, code, stdout, stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_bench(Path("change"), "dataset", 301, 1.0)
    assert result["exit_code"] == code
    printed = capsys.readouterr().err
    if clean:
        assert printed == ""
    else:
        assert printed.startswith("change dataset seed 301: ")
        assert printed.endswith(stderr[-2000:] + "\n")
        assert "FAILED: s7: wrong triples" in printed
