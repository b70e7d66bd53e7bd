"""The value types: fields, repr, validation messages and tuple semantics.

Error messages embed these reprs (``head of Triple(...) has no linked
span``), so they are pinned here as text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.decode import DecodingTries, GenState, Hypothesis, Phase
from factgen.evaluation import Counts, EvalReport
from factgen.kb import Triple
from factgen.linearize import LinkedSentence, MentionSpan, RawTriple
from factgen.pipeline import HypothesisTemplates, ScoredTriple
from factgen.trie import Continuations

SPAN = MentionSpan(4, 6, "UK", "Q145")
COUNTS = Counts(1, 2, 3, 4, 5)

# (value, its fields in order, its repr)
VALUES = {
    "Triple": (
        Triple("Q145", "P36", "Q84"),
        ("head", "relation", "tail"),
        "Triple(head='Q145', relation='P36', tail='Q84')",
    ),
    "MentionSpan": (
        SPAN,
        ("start", "end", "surface", "link"),
        "MentionSpan(start=4, end=6, surface='UK', link='Q145')",
    ),
    "LinkedSentence": (
        LinkedSentence("The UK.", (SPAN,), "uk-1"),
        ("text", "spans", "id"),
        "LinkedSentence(text='The UK.', spans=(MentionSpan(start=4, end=6, surface='UK', "
        "link='Q145'),), id='uk-1')",
    ),
    "RawTriple": (
        RawTriple("United Kingdom", "capital", "London"),
        ("head_label", "relation_label", "tail_label"),
        "RawTriple(head_label='United Kingdom', relation_label='capital', "
        "tail_label='London')",
    ),
    "ScoredTriple": (
        ScoredTriple(Triple("Q145", "P36", "Q84"), 0.5),
        ("triple", "score"),
        "ScoredTriple(triple=Triple(head='Q145', relation='P36', tail='Q84'), score=0.5)",
    ),
    "GenState": (
        GenState(Phase.IN_OBJECT, 7),
        ("phase", "node"),
        "GenState(phase=<Phase.IN_OBJECT: 3>, node=7)",
    ),
    "Hypothesis": (
        Hypothesis((1, 2), -0.25, GenState()),
        ("tokens", "score", "state"),
        "Hypothesis(tokens=(1, 2), score=-0.25, state=GenState(phase=<Phase.START: 0>, "
        "node=0))",
    ),
    "DecodingTries": (
        DecodingTries("entity trie", "relation trie", "tail trie"),
        ("entity", "relation", "tail"),
        "DecodingTries(entity='entity trie', relation='relation trie', tail='tail trie')",
    ),
    "EvalReport": (
        EvalReport(0.5, 0.25, 0.125, 1.0, 0.0, COUNTS),
        ("precision", "recall", "f1", "accuracy_negative", "empty_positive_rate", "counts"),
        "EvalReport(precision=0.5, recall=0.25, f1=0.125, accuracy_negative=1.0, "
        "empty_positive_rate=0.0, counts=Counts(tp=1, fp=2, fn=3, n_pos=4, n_neg=5))",
    ),
    "Counts": (COUNTS, ("tp", "fp", "fn", "n_pos", "n_neg"),
               "Counts(tp=1, fp=2, fn=3, n_pos=4, n_neg=5)"),
    "Continuations": (Continuations((3, 5), True), ("tokens", "complete"),
                      "Continuations(tokens=(3, 5), complete=True)"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_keep_their_fields_and_repr(name):
    value, fields, text = VALUES[name]
    assert type(value).__name__ == name
    assert type(value)._fields == fields
    assert repr(value) == str(value) == text
    assert tuple(value) == tuple(getattr(value, field) for field in fields)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):  # no instance dict: __slots__ = ()
        value.extra = None


def test_templates_keep_their_repr():
    templates = HypothesisTemplates({"P36": ["{head} / {tail}"]})
    assert repr(templates) == "HypothesisTemplates(by_pid={'P36': ['{head} / {tail}']})"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MentionSpan(-1, 4, "Rome"), "bad span offsets [-1, 4)"),
        (lambda: MentionSpan(3, 3, ""), "bad span offsets [3, 3)"),
        (lambda: MentionSpan(start=5, end=2, surface="x"), "bad span offsets [5, 2)"),
        (lambda: LinkedSentence("ab cd", (MentionSpan(3, 5, "cd"), MentionSpan(0, 2, "ab"))),
         "span [0, 2) overlaps or is out of order"),
        (lambda: LinkedSentence("ab", (MentionSpan(0, 3, "ab "),)), "span [0, 3) outside text"),
        (lambda: LinkedSentence(text="ab", spans=(MentionSpan(0, 2, "AB"),)),
         "span surface 'AB' does not match text slice 'ab'"),
        (lambda: RawTriple("a", "", "c"), "RawTriple fields must be non-empty"),
    ],
    ids=["span-negative", "span-empty", "span-keywords", "sentence-order", "sentence-outside",
         "sentence-surface", "raw-empty"],
)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_defaults_and_keywords_build_the_same_value():
    assert MentionSpan(0, 2, "ab") == MentionSpan(start=0, end=2, surface="ab", link=None)
    assert LinkedSentence("ab") == LinkedSentence(text="ab", spans=(), id=None)
    assert GenState() == GenState(phase=Phase.START, node=0)
    assert DecodingTries._field_defaults == {}  # every trie is required


def test_values_compare_as_plain_tuples():
    # Tuples compare by value: a Triple equals the plain tuple, and a
    # RawTriple with the same fields, of its fields.
    assert Triple("a", "b", "c") == ("a", "b", "c") == RawTriple("a", "b", "c")
    assert hash(Triple("a", "b", "c")) == hash(("a", "b", "c"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3), st.text(max_size=3))))
def test_triples_sort_like_their_field_tuples(rows):
    assert [tuple(t) for t in sorted(Triple(*row) for row in rows)] == sorted(rows)
