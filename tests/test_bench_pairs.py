"""The verdicts of ``tools/bench_pairs.py`` on fixed run values."""

from __future__ import annotations

import importlib.util
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
