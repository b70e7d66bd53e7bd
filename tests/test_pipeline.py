from __future__ import annotations

import re
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.kb import Triple, year_labels
from factgen.linearize import LinkedSentence, MentionSpan
from factgen.pipeline import (
    HypothesisTemplates,
    PipelineError,
    SamplingError,
    SplitError,
    TemplateError,
    entailment_filter,
    extract_ds_triples,
    ingest_sentences,
    negative_category,
    sample_negatives,
    split_dataset,
)
from factgen.records import map_date_to_year
from factgen.scorers import TableNliScorer

YEARS = frozenset(year_labels())


def sentence_with_links(links: list[str | None], sid: str = "s") -> LinkedSentence:
    text = ""
    spans = []
    for i, link in enumerate(links):
        start = len(text)
        surface = f"w{i}"
        text += surface + " "
        spans.append(MentionSpan(start, start + len(surface), surface, link))
    text += "and some filler words to pass the ten word ingestion floor."
    return LinkedSentence(text=text, spans=tuple(spans), id=sid)


# -- date mapping -------------------------------------------------------------


@pytest.mark.parametrize(
    "surface, year",
    [
        ("October 10, 2018", "2018"),
        ("January 1, 950", "950"),
        ("10 October 2018", "2018"),
        ("3 may 1066", "1066"),
        ("2018-10-10", "2018"),
        ("2018", "2018"),
        ("7", "7"),
        (" 2018 ", "2018"),
        # A year has one spelling: no leading zeros.
        ("0012-05-05", "12"),
        ("January 1, 0950", "950"),
        ("0012", "12"),
        ("2100-12-31", "2100"),
    ],
)
def test_recognized_date_forms(surface, year):
    assert map_date_to_year(surface) == year


@pytest.mark.parametrize(
    "surface", ["0000", "0", "3000-01-01", "October 10, 9999", "10 October 2101", "2101"]
)
def test_dates_outside_the_year_set_stay_unlinked(surface):
    # Only a year the KB admits, "1".."2100", is a link.
    assert map_date_to_year(surface) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(),
        st.from_regex(
            r"\s?(?:(?:October|may) [0-9]{1,2}, |[0-9]{1,2} October )?"
            r"[0-9]{1,5}(?:-[0-9]{2}-[0-9]{2})?\s?",
            fullmatch=True,
        ),
    )
)
def test_a_mapped_date_is_a_year_literal(surface):
    year = map_date_to_year(surface)
    assert year is None or year in YEARS


@pytest.mark.parametrize(
    "surface",
    ["next Tuesday", "October 2018 10", "20181", "12/31/2018", "", "year 2018"],
)
def test_unrecognized_date_forms(surface):
    assert map_date_to_year(surface) is None


# -- distant supervision --------------------------------------------------------


def test_zero_or_one_linked_span_extracts_nothing(small_kb):
    assert extract_ds_triples(sentence_with_links([]), small_kb) == []
    assert extract_ds_triples(sentence_with_links(["Q145"]), small_kb) == []
    assert extract_ds_triples(sentence_with_links([None, "Q145", None]), small_kb) == []


def test_two_span_pair_with_one_relation(small_kb):
    # Q62 -> Q30 holds P17; the reverse direction holds nothing.
    sentence = sentence_with_links(["Q62", "Q30"])
    assert extract_ds_triples(sentence, small_kb) == [Triple("Q62", "P17", "Q30")]


def test_both_directions_of_a_pair_are_considered(small_kb):
    sentence = sentence_with_links(["Q145", "Q84"])
    assert extract_ds_triples(sentence, small_kb) == [
        Triple("Q145", "P36", "Q84"),
        Triple("Q84", "P17", "Q145"),
    ]


def test_entity_to_year_pair_extracts(small_kb):
    sentence = sentence_with_links(["Q62", "1776"])
    assert extract_ds_triples(sentence, small_kb) == [Triple("Q62", "P571", "1776")]


def test_year_never_heads_a_triple(small_kb):
    # Span order is irrelevant; the year may only ever be the tail.
    sentence = sentence_with_links(["1776", "Q62"])
    result = extract_ds_triples(sentence, small_kb)
    assert result == [Triple("Q62", "P571", "1776")]
    assert all(not t.head.isdigit() for t in result)


def test_four_span_fixture_matches_bruteforce_oracle(small_kb):
    sentence = sentence_with_links(["Q145", "Q84", "Q38", "Q220"])
    result = extract_ds_triples(sentence, small_kb)

    # Oracle: double loop over span pairs against the raw triple rows.
    raw_rows = [
        ("Q145", "P36", "Q84"),
        ("Q38", "P36", "Q220"),
        ("Q84", "P17", "Q145"),
        ("Q220", "P17", "Q38"),
        ("Q62", "P17", "Q30"),
        ("Q62", "P571", "1776"),
    ]
    expected = set()
    linked = [s for s in sentence.spans if s.link]
    for a in linked:
        for b in linked:
            if a is b or a.link.isdigit():  # a year never heads a triple
                continue
            for head, pid, tail in raw_rows:
                if head == a.link and tail == b.link:
                    expected.add(Triple(head, pid, tail))
    assert set(result) == expected
    assert len(result) == len(expected) == 4


def test_extraction_deduplicates_repeated_mentions(small_kb):
    # Two mentions of the same entity: each directed pair yields its triple
    # once, not once per mention pairing.
    sentence = sentence_with_links(["Q145", "Q145", "Q84"])
    assert extract_ds_triples(sentence, small_kb) == [
        Triple("Q145", "P36", "Q84"),
        Triple("Q84", "P17", "Q145"),
    ]


# -- entailment filtering ----------------------------------------------------------


@pytest.fixture()
def capital_sentence(small_kb):
    return sentence_with_links(["Q145", "Q84"], sid="cap")


def default_hypothesis(kb, triple):
    head = kb.entity_label(triple.head) or triple.head
    tail = kb.entity_label(triple.tail) or triple.tail
    return f"{head} {kb.relation_label(triple.relation)} {tail}."


def test_constant_scorers(small_kb, capital_sentence):
    triples = [Triple("Q145", "P36", "Q84")]
    templates = HypothesisTemplates({})
    keep_all = entailment_filter(
        [capital_sentence], [triples], templates, TableNliScorer(default=1.0), 0.7, small_kb
    )
    assert [[k.triple for k in row] for row in keep_all] == [triples]
    keep_none = entailment_filter(
        [capital_sentence], [triples], templates, TableNliScorer(default=0.0), 0.7, small_kb
    )
    assert keep_none == [[]]


def test_max_over_hypotheses_beats_threshold(small_kb, capital_sentence):
    triple = Triple("Q145", "P36", "Q84")
    templates = HypothesisTemplates(
        {"P36": ["{head} has capital {tail}.", "{tail} is the capital of {head}."]}
    )
    scorer = TableNliScorer(
        {
            (capital_sentence.text, "United Kingdom has capital London."): 0.4,
            (capital_sentence.text, "London is the capital of United Kingdom."): 0.9,
        }
    )
    (kept,) = entailment_filter(
        [capital_sentence], [[triple]], templates, scorer, 0.7, small_kb
    )
    assert len(kept) == 1
    assert kept[0].score == 0.9


def test_threshold_is_strictly_above(small_kb, capital_sentence):
    triple = Triple("Q145", "P36", "Q84")
    templates = HypothesisTemplates({})
    hypothesis = default_hypothesis(small_kb, triple)
    scorer = TableNliScorer({(capital_sentence.text, hypothesis): 0.7})
    assert entailment_filter(
        [capital_sentence], [[triple]], templates, scorer, 0.7, small_kb
    ) == [[]]


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_threshold_outside_unit_interval_is_rejected(small_kb, capital_sentence, threshold):
    with pytest.raises(ValueError, match="threshold must lie in"):
        entailment_filter(
            [capital_sentence], [[]], HypothesisTemplates({}), TableNliScorer(), threshold,
            small_kb,
        )


def test_stub_table_matches_hand_filter(small_kb):
    # Ten triples over the same sentence with a hand-built score table.
    sentence = sentence_with_links(["Q145", "Q84", "Q38", "Q220", "Q62", "Q30", "1776"])
    pairs = [
        ("Q145", "P36", "Q84"),
        ("Q84", "P17", "Q145"),
        ("Q38", "P36", "Q220"),
        ("Q220", "P17", "Q38"),
        ("Q62", "P17", "Q30"),
        ("Q62", "P571", "1776"),
        ("Q145", "P17", "Q38"),
        ("Q84", "P36", "Q220"),
        ("Q30", "P17", "Q62"),
        ("Q220", "P36", "Q145"),
    ]
    triples = [Triple(*p) for p in pairs]
    templates = HypothesisTemplates({})
    scores = [0.95, 0.71, 0.7, 0.69, 0.0, 1.0, 0.5, 0.75, 0.2, 0.85]
    table = {
        (sentence.text, default_hypothesis(small_kb, t)): s
        for t, s in zip(triples, scores)
    }
    scorer = TableNliScorer(table)
    kept = entailment_filter([sentence], [triples], templates, scorer, 0.7, small_kb)[0]
    expected = [t for t, s in zip(triples, scores) if s > 0.7]
    assert [k.triple for k in kept] == expected


def test_filter_monotone_in_threshold(small_kb, capital_sentence):
    triples = [Triple("Q145", "P36", "Q84"), Triple("Q84", "P17", "Q145")]
    templates = HypothesisTemplates({})
    scorer = TableNliScorer(
        {
            (capital_sentence.text, default_hypothesis(small_kb, triples[0])): 0.8,
            (capital_sentence.text, default_hypothesis(small_kb, triples[1])): 0.3,
        }
    )
    previous = None
    for step in range(0, 101, 5):
        threshold = step / 100
        kept = {
            k.triple
            for k in entailment_filter(
                [capital_sentence], [triples], templates, scorer, threshold, small_kb
            )[0]
        }
        if previous is not None:
            assert kept <= previous
        previous = kept


class RecordingNliScorer(TableNliScorer):
    """A table scorer that keeps the pairs of every batch it is asked."""

    def __init__(self, table, **kwargs):
        super().__init__(table, **kwargs)
        self.batches = []

    def entail_batch(self, pairs):
        self.batches.append(list(pairs))
        return super().entail_batch(pairs)


def test_filter_scores_every_sentence_in_one_batch(small_kb):
    # Three sentences, one without triples, two templates for P36: the one
    # batch holds every hypothesis in sentence, triple and template order,
    # and each sentence keeps only its own triples above the threshold.
    first = sentence_with_links(["Q145", "Q84"], sid="a")
    empty = sentence_with_links([None], sid="b")
    last = sentence_with_links(["Q38", "Q220"], sid="c")
    templates = HypothesisTemplates({"P36": ["{head} / {tail}", "{tail} of {head}"]})
    triples = [
        [Triple("Q145", "P36", "Q84"), Triple("Q84", "P17", "Q145")],
        [],
        [Triple("Q38", "P36", "Q220")],
    ]
    table = {
        (first.text, "London of United Kingdom"): 0.9,
        (first.text, "London country United Kingdom."): 0.6,
        (last.text, "Italy / Rome"): 0.8,
    }
    scorer = RecordingNliScorer(table)
    kept = entailment_filter(
        [first, empty, last], triples, templates, scorer, 0.7, small_kb
    )
    assert scorer.batches == [[
        (first.text, "United Kingdom / London"),
        (first.text, "London of United Kingdom"),
        (first.text, "London country United Kingdom."),
        (last.text, "Italy / Rome"),
        (last.text, "Rome of Italy"),
    ]]
    assert [[(k.triple, k.score) for k in row] for row in kept] == [
        [(triples[0][0], 0.9)], [], [(triples[2][0], 0.8)]
    ]


def test_filter_rejects_mismatched_inputs_and_short_score_lists(small_kb, capital_sentence):
    triple = Triple("Q145", "P36", "Q84")
    templates = HypothesisTemplates({})
    with pytest.raises(ValueError, match="2 sentences but 1 triple lists"):
        entailment_filter(
            [capital_sentence, capital_sentence], [[triple]], templates,
            TableNliScorer(), 0.7, small_kb,
        )

    class ShortScorer:
        def entail_batch(self, pairs):
            return [1.0] * (len(pairs) - 1)

    with pytest.raises(PipelineError, match="gave 1 scores for 2 hypotheses"):
        entailment_filter(
            [capital_sentence], [[triple, triple]], templates, ShortScorer(), 0.7, small_kb
        )


def test_template_placeholders_are_validated():
    message = "^template for P36 must contain {head} and {tail}: 'no placeholders here'$"
    with pytest.raises(TemplateError, match=message):
        HypothesisTemplates({"P36": ["no placeholders here"]})
    with pytest.raises(TemplateError, match="^relation P36 has an empty template list$"):
        HypothesisTemplates({"P36": []})
    # Any field but {head} and {tail} fails here, before a scorer starts;
    # doubled braces are literal text.
    message = "template for P36 may hold no field but {head} and {tail}: '{head} {tail} {0}'"
    with pytest.raises(TemplateError, match=f"^{re.escape(message)}$"):
        HypothesisTemplates({"P36": ["{head} {tail} {0}"]})
    message = "template for P36 must contain {head} and {tail}: '{head} {{tail}}'"
    with pytest.raises(TemplateError, match=f"^{re.escape(message)}$"):
        HypothesisTemplates({"P36": ["{head} {{tail}}"]})
    assert HypothesisTemplates({"P36": ["{{{head}}} {tail}"]}).by_pid


def test_templates_load_jsonl(tmp_path, small_kb, capital_sentence, monkeypatch):
    path = tmp_path / "templates.jsonl"
    path.write_text(
        '{"pid": "P36", "templates": ["{tail} is the capital of {head}."]}\n',
        encoding="utf-8",
    )
    checked = []
    check = HypothesisTemplates._check
    monkeypatch.setattr(
        HypothesisTemplates, "_check",
        staticmethod(lambda pid, templates: checked.append(pid) or check(pid, templates)),
    )
    templates = HypothesisTemplates.load(str(path))
    assert checked == ["P36"]  # each list is checked once, where its line is known
    rendered = templates.hypotheses_for(Triple("Q145", "P36", "Q84"), small_kb)
    assert rendered == ["London is the capital of United Kingdom."]


@pytest.mark.parametrize(
    "triple",
    [Triple("Q404", "P36", "Q84"), Triple("Q145", "P36", "9999"), Triple("Q145", "P9", "Q84")],
)
def test_rendering_an_unresolvable_value_is_a_template_error(small_kb, triple):
    if triple.relation == "P9":  # no KB relation, and a template does not stand in for one
        message = "^unknown relation 'P9'$"
    else:
        unknown = triple.head if triple.head == "Q404" else triple.tail
        message = f"^cannot resolve {unknown!r} for hypothesis rendering$"
    for by_pid in ({}, {triple.relation: ["{head} x {tail}."]}):
        with pytest.raises(TemplateError, match=message):
            HypothesisTemplates(by_pid).hypotheses_for(triple, small_kb)


# -- negative sampling ---------------------------------------------------------------


def build_negative_corpus(kb, n_one: int, n_two: int, n_pos: int):
    corpus = []
    for i in range(n_one):
        corpus.append(sentence_with_links(["Q145"] if i % 2 else [], sid=f"one-{i}"))
    for i in range(n_two):
        # Q145 and Q38 share no KB relation: category (ii).
        corpus.append(sentence_with_links(["Q145", "Q38"], sid=f"two-{i}"))
    for i in range(n_pos):
        corpus.append(sentence_with_links(["Q145", "Q84"], sid=f"pos-{i}"))
    return [(sentence, extract_ds_triples(sentence, kb)) for sentence in corpus]


def test_count_zero_returns_empty(small_kb):
    assert sample_negatives([], 0, seed=1) == []


def test_even_categories_and_seed_reproducibility(small_kb):
    corpus = build_negative_corpus(small_kb, 10, 10, 5)
    first = sample_negatives(corpus, 10, seed=42)
    second = sample_negatives(corpus, 10, seed=42)
    assert [s.id for s in first] == [s.id for s in second]
    triples_by_id = {s.id: triples for s, triples in corpus}
    assert all(not triples_by_id[s.id] for s in first)

    # Oracle: category membership recomputed from the sentences.
    by_category = defaultdict(int)
    for sentence in first:
        by_category[negative_category(sentence, extract_ds_triples(sentence, small_kb))] += 1
    assert by_category[1] == 5
    assert by_category[2] == 5

    different = sample_negatives(corpus, 10, seed=43)
    assert {s.id for s in different} != {s.id for s in first} or True
    for sentence in different:
        assert negative_category(sentence, extract_ds_triples(sentence, small_kb)) in (1, 2)


def test_odd_count_gives_ceiling_to_category_one(small_kb):
    corpus = build_negative_corpus(small_kb, 10, 10, 0)
    picked = sample_negatives(corpus, 7, seed=0)
    categories = [negative_category(s, []) for s in picked]
    assert categories.count(1) == 4
    assert categories.count(2) == 3


def test_positive_sentences_are_never_sampled(small_kb):
    corpus = build_negative_corpus(small_kb, 4, 4, 20)
    picked = sample_negatives(corpus, 8, seed=9)
    assert all(not s.id.startswith("pos-") for s in picked)


def test_backfill_from_other_category(small_kb, caplog):
    # Either category may be short: (category sizes, category-1 picks, shortfall).
    for n_one, n_two, picked_one, shortfall in [(2, 10, 2, 2), (10, 1, 7, 3)]:
        corpus = build_negative_corpus(small_kb, n_one, n_two, 0)
        caplog.clear()
        with caplog.at_level("WARNING"):
            picked = sample_negatives(corpus, 8, seed=3)
        categories = [negative_category(s, []) for s in picked]
        assert categories.count(1) == picked_one
        assert categories.count(2) == 8 - picked_one
        short, other = (1, 2) if n_one < n_two else (2, 1)
        (record,) = caplog.records
        assert record.getMessage() == (
            f"category {short} is short by {shortfall} negatives; "
            f"backfilling from category {other}"
        )
        assert record.args[0] == shortfall


def test_shortfall_is_an_error(small_kb):
    corpus = build_negative_corpus(small_kb, 2, 2, 0)
    with pytest.raises(SamplingError, match="4 candidates"):
        sample_negatives(corpus, 5, seed=0)


def test_negative_count_is_an_error(small_kb):
    corpus = build_negative_corpus(small_kb, 2, 2, 0)
    with pytest.raises(ValueError, match="^count must be >= 0$"):
        sample_negatives(corpus, -1, seed=0)


def test_post_filter_counts_override_ds_extraction(small_kb):
    # DS finds a triple for this pair, but filtering rejected it: the record
    # left with no triples is a category-2 candidate.
    sentence = sentence_with_links(["Q145", "Q84"], sid="rejected")
    assert negative_category(sentence, extract_ds_triples(sentence, small_kb)) is None
    assert negative_category(sentence, []) == 2
    picked = sample_negatives([(sentence, [])], 1, seed=0)
    assert picked[0].id == "rejected"


# -- splitting --------------------------------------------------------------------


def test_hundred_instances_split_90_5_5():
    train, val, test = split_dataset(list(range(100)), seed=1)
    assert (len(train), len(val), len(test)) == (90, 5, 5)


def test_single_instance_goes_to_train():
    train, val, test = split_dataset([42], seed=1)
    assert train == [42]
    assert val == [] and test == []


def test_split_rejects_bad_ratios():
    with pytest.raises(SplitError, match="^ratios must sum to 1"):
        split_dataset([1, 2, 3], ratios=(0.5, 0.3, 0.3))
    for ratios in ((0.5, 0.5), (1.2, -0.1, -0.1)):
        with pytest.raises(SplitError, match="^need three nonnegative ratios"):
            split_dataset([1, 2, 3], ratios=ratios)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**31))
def test_split_is_a_partition(n, seed):
    items = list(range(n))
    train, val, test = split_dataset(items, seed=seed)
    assert sorted(train + val + test) == items
    assert len(train) + len(val) + len(test) == n
    assert set(train).isdisjoint(val)
    assert set(train).isdisjoint(test)
    assert set(val).isdisjoint(test)


def test_split_deterministic_per_seed():
    items = list(range(57))
    assert split_dataset(items, seed=7) == split_dataset(items, seed=7)
    assert split_dataset(items, seed=7) != split_dataset(items, seed=8)


# -- ingestion ---------------------------------------------------------------------


def test_ingestion_drops_short_sentences():
    short = LinkedSentence(text="Too short to keep.", spans=())
    long = LinkedSentence(
        text="This sentence has exactly ten whitespace separated words total here.",
        spans=(),
    )
    assert ingest_sentences([short, long]) == [long]
