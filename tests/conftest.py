from __future__ import annotations

import pytest

from factgen.kb import KbStore
from factgen.linearize import LinkedSentence, MentionSpan
from factgen.tokenizers import ByteTokenizer


@pytest.fixture(scope="session")
def tok() -> ByteTokenizer:
    return ByteTokenizer()


@pytest.fixture()
def small_kb() -> KbStore:
    """Hand-sized store used across modules: UK/London plus friends."""
    return KbStore.from_records(
        entities=[
            ("Q145", "United Kingdom"),
            ("Q84", "London"),
            ("Q38", "Italy"),
            ("Q220", "Rome"),
            ("Q30", "United States"),
            ("Q62", "San Francisco"),
        ],
        relations=[
            ("P36", "capital", "seat of government"),
            ("P17", "country", "sovereign state of this item"),
            ("P571", "inception", "time when an entity begins to exist"),
        ],
        triples=[
            ("Q145", "P36", "Q84"),
            ("Q38", "P36", "Q220"),
            ("Q84", "P17", "Q145"),
            ("Q220", "P17", "Q38"),
            ("Q62", "P17", "Q30"),
            ("Q62", "P571", "1776"),
        ],
    )


@pytest.fixture()
def uk_sentence() -> LinkedSentence:
    """Two linked spans, UK before London; one KB triple between them."""
    text = "The UK named London its capital centuries ago."
    return LinkedSentence(
        text=text,
        spans=(
            MentionSpan(4, 6, "UK", "Q145"),
            MentionSpan(13, 19, "London", "Q84"),
        ),
        id="uk-1",
    )


class OracleScorer:
    """Probability 1 along one gold token sequence, finite floor elsewhere."""

    def __init__(self, gold, floor=-1e9):
        self.gold = tuple(gold)
        self.floor = floor

    def score(self, prefix, candidates):
        prefix = tuple(prefix)
        on_gold = prefix == self.gold[: len(prefix)] and len(prefix) < len(self.gold)
        want = self.gold[len(prefix)] if on_gold else None
        return [0.0 if c == want else self.floor for c in candidates]


@pytest.fixture(scope="session")
def oracle_scorer_cls():
    return OracleScorer
