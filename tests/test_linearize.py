from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.kb import Triple
from factgen.linearize import (
    LinearizeError,
    LinkedSentence,
    MentionSpan,
    RawTriple,
    build_artificial_prompt_instances,
    build_dual_target_instance,
    build_entity_prompt_target,
    combine_losses,
    entity_linking_chain,
    linearize,
    linearize_labels,
    order_triples,
    parse_linearized,
)

LABEL_ALPHABET = "abcdefgh XYZ0123'-."


def random_label(rng: random.Random) -> str:
    while True:
        label = "".join(rng.choice(LABEL_ALPHABET) for _ in range(rng.randint(1, 12)))
        label = label.strip()
        if label:
            return label


def random_raw_triples(rng: random.Random, n: int) -> list[RawTriple]:
    return [
        RawTriple(random_label(rng), random_label(rng), random_label(rng))
        for _ in range(n)
    ]


# -- ordering ----------------------------------------------------------------


def make_sentence_with_offsets(links: list[str]) -> LinkedSentence:
    """One span per link, in the given order, separated by filler."""
    text = ""
    spans = []
    for link in links:
        start = len(text)
        surface = f"m{link}"
        text += surface + " "
        spans.append(MentionSpan(start, start + len(surface), surface, link))
    return LinkedSentence(text=text.rstrip() + ".", spans=tuple(spans))


def test_single_triple_orders_to_itself(uk_sentence):
    triples = [Triple("Q145", "P36", "Q84")]
    assert order_triples(triples, uk_sentence) == triples


def test_shared_head_orders_by_tail_offset():
    sentence = make_sentence_with_offsets(["Q1", "Q3", "Q2"])
    early_tail = Triple("Q1", "P1", "Q3")
    late_tail = Triple("Q1", "P1", "Q2")
    assert order_triples([late_tail, early_tail], sentence) == [early_tail, late_tail]


def test_ordering_invariant_under_permutation():
    sentence = make_sentence_with_offsets(["Q5", "Q1", "Q4", "Q2", "Q3"])
    triples = [
        Triple("Q5", "P1", "Q1"),
        Triple("Q1", "P1", "Q4"),
        Triple("Q1", "P2", "Q4"),
        Triple("Q4", "P1", "Q2"),
        Triple("Q3", "P1", "Q5"),
    ]

    def oracle(ts):
        offsets = {link: i for i, link in enumerate(["Q5", "Q1", "Q4", "Q2", "Q3"])}
        return sorted(ts, key=lambda t: (offsets[t.head], offsets[t.tail], t.relation))

    rng = random.Random(11)
    expected = oracle(triples)
    for _ in range(30):
        shuffled = triples[:]
        rng.shuffle(shuffled)
        assert order_triples(shuffled, sentence) == expected


def test_triple_without_span_is_an_error(uk_sentence):
    with pytest.raises(LinearizeError, match="Q999"):
        order_triples([Triple("Q999", "P36", "Q84")], uk_sentence)
    # The head is checked before the tail, and the triples in input order.
    no_tail = Triple("Q145", "P36", "Q998")
    with pytest.raises(LinearizeError, match=r"^tail of .*'Q998'.* has no linked span"):
        order_triples([no_tail, Triple("Q999", "P36", "Q998")], uk_sentence)
    with pytest.raises(LinearizeError, match=r"^head of .*'Q999'.* has no linked span"):
        order_triples([Triple("Q999", "P36", "Q998"), no_tail], uk_sentence)


SPAN_LINKS = ["Q1", "Q2", "Q3", "1990", None]


@st.composite
def sentences_and_triples(draw):
    links = draw(st.lists(st.sampled_from(SPAN_LINKS), max_size=6))
    sentence = LinkedSentence(
        text="".join(f"m{i} " for i in range(len(links))),
        spans=tuple(
            MentionSpan(3 * i, 3 * i + 2, f"m{i}", link) for i, link in enumerate(links)
        ),
    )
    value = st.sampled_from(SPAN_LINKS[:-1])
    triple = st.builds(Triple, value, st.sampled_from(["P1", "P2"]), value)
    return sentence, draw(st.lists(triple, max_size=5))


@settings(max_examples=300, deadline=None)
@given(sentences_and_triples())
def test_order_triples_matches_a_minimum_offset_oracle(case):
    sentence, triples = case

    def offset(link):
        return min((s.start for s in sentence.spans if s.link == link), default=None)

    expected = None
    for triple in triples:  # the first triple lacking a span names its head, then its tail
        for role, link in (("head", triple.head), ("tail", triple.tail)):
            if expected is None and offset(link) is None:
                expected = f"{role} of {triple} has no linked span in sentence"
    if expected is not None:
        with pytest.raises(LinearizeError) as raised:
            order_triples(triples, sentence)
        assert str(raised.value) == expected
        return
    expected_order = sorted(triples, key=lambda t: (offset(t.head), offset(t.tail), t.relation))
    assert order_triples(triples, sentence) == expected_order


# -- linearize / parse ---------------------------------------------------------


def test_empty_triple_list_linearizes_to_empty_string(small_kb):
    assert linearize([], small_kb) == ""


def test_linearize_uses_kb_labels(small_kb):
    target = linearize([Triple("Q145", "P36", "Q84")], small_kb)
    assert target == "<sub> United Kingdom <rel> capital <obj> London <et>"
    assert len(parse_linearized(target)) == 1


def test_linearize_year_tail_passes_verbatim(small_kb):
    target = linearize([Triple("Q62", "P571", "1776")], small_kb)
    assert target == "<sub> San Francisco <rel> inception <obj> 1776 <et>"


def test_linearize_unresolvable_is_an_error(small_kb):
    with pytest.raises(LinearizeError):
        linearize([Triple("Q404", "P36", "Q84")], small_kb)
    with pytest.raises(LinearizeError):
        linearize([Triple("Q145", "P404", "Q84")], small_kb)
    with pytest.raises(LinearizeError):
        linearize([Triple("Q145", "P36", "not-a-year")], small_kb)


def test_parse_of_empty_string():
    assert parse_linearized("") == []


def test_parse_drops_truncated_block():
    assert parse_linearized("<sub> A <rel> r <obj>") == []


def test_parse_drops_blocks_with_empty_fields():
    assert parse_linearized("<sub> <rel> r <obj> o <et>") == []
    assert parse_linearized("<sub> A <rel> <obj> o <et>") == []


def test_parse_restarts_on_out_of_order_delimiter():
    text = "<sub> A <rel> r <sub> B <rel> s <obj> o <et>"
    assert parse_linearized(text) == [RawTriple("B", "s", "o")]


def test_parse_preserves_duplicates():
    block = "<sub> A <rel> r <obj> o <et>"
    assert parse_linearized(f"{block} {block}") == [RawTriple("A", "r", "o")] * 2


def test_parse_handles_unspaced_decoder_output():
    text = "<sub>United Kingdom<rel>capital<obj>London<et>"
    assert parse_linearized(text) == [RawTriple("United Kingdom", "capital", "London")]


def test_label_level_roundtrip_on_kb_fixture(small_kb):
    triples = [
        Triple("Q145", "P36", "Q84"),
        Triple("Q84", "P17", "Q145"),
        Triple("Q62", "P571", "1776"),
    ]
    sentence = make_sentence_with_offsets(["Q145", "Q84", "Q62", "1776"])
    ordered = order_triples(triples, sentence)
    parsed = parse_linearized(linearize(ordered, small_kb))
    expected = [
        RawTriple(
            small_kb.entity_label(t.head),
            small_kb.relation_label(t.relation),
            small_kb.entity_label(t.tail) or t.tail,
        )
        for t in ordered
    ]
    assert parsed == expected


def test_randomized_label_roundtrip():
    rng = random.Random(1234)
    for _ in range(500):
        triples = random_raw_triples(rng, rng.randint(0, 5))
        assert parse_linearized(linearize_labels(triples)) == triples


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_parse_is_total_on_arbitrary_text(text):
    result = parse_linearized(text)
    for raw in result:
        assert raw.head_label and raw.relation_label and raw.tail_label


DELIMITERS = ("<sub>", "<rel>", "<obj>", "<et>")


def parse_oracle(text: str) -> list[RawTriple]:
    """Every ``<sub>`` whose next three delimiters are ``<rel>``, ``<obj>``
    and ``<et>`` opens a block; its fields are the text between them."""
    found = []  # (offset, delimiter) of every delimiter in the text
    for delimiter in DELIMITERS:
        at = text.find(delimiter)
        while at != -1:
            found.append((at, delimiter))
            at = text.find(delimiter, at + 1)
    found.sort()
    triples = []
    for i in range(len(found) - 3):
        window = found[i : i + 4]
        if tuple(delimiter for _, delimiter in window) != DELIMITERS:
            continue
        fields = [
            text[at + len(delimiter) : end].strip()
            for (at, delimiter), (end, _) in zip(window, window[1:])
        ]
        if all(fields):
            triples.append(RawTriple(*fields))
    return triples


FILLER = st.lists(
    st.sampled_from(["<", ">", "<su", "b>", "<et", " ", "\t", "\n", "A", "b c", "é", "日本", "#"])
    | st.text(max_size=3),
    max_size=4,
).map("".join)


@st.composite
def linearized_texts(draw) -> str:
    """Blocks of the four delimiters between fillers; about one delimiter
    in ten is dropped or replaced by another."""
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        for delimiter in DELIMITERS:
            parts.append(draw(FILLER))
            if not draw(st.integers(0, 9)):
                delimiter = draw(st.sampled_from(("", *DELIMITERS)))
            parts.append(delimiter)
    return "".join(parts) + draw(FILLER)


@settings(max_examples=500, deadline=None)
@given(linearized_texts())
def test_parse_matches_a_delimiter_window_oracle(text):
    assert parse_linearized(text) == parse_oracle(text)


# -- auxiliary targets ---------------------------------------------------------


def test_entity_prompt_matches_worked_fixture(small_kb, uk_sentence):
    ordered = [Triple("Q145", "P36", "Q84")]
    target = build_entity_prompt_target(uk_sentence, ordered, small_kb)
    assert target == (
        "[ENTITY] UK # United Kingdom | London # London "
        "[TRIPLE] <sub> United Kingdom <rel> capital <obj> London <et>"
    )


def test_entity_prompt_empty_case(small_kb):
    sentence = LinkedSentence(text="Nothing to see here.", spans=())
    target = build_entity_prompt_target(sentence, [], small_kb)
    assert target == "[ENTITY] [TRIPLE]"
    assert parse_linearized(target) == []


def test_entity_prompt_omits_noncontributing_spans(small_kb):
    sentence = make_sentence_with_offsets(["Q145", "Q38", "Q84"])
    ordered = [Triple("Q145", "P36", "Q84")]
    chain = entity_linking_chain(sentence, ordered, small_kb)

    # Oracle: set difference between span links and triple links.
    contributing = {"Q145", "Q84"}
    expected_labels = [
        small_kb.entity_label(s.link)
        for s in sentence.spans
        if s.link in contributing
    ]
    assert [part.split(" # ")[1] for part in chain.split(" | ")] == expected_labels
    assert "Italy" not in chain


def test_entity_prompt_has_one_marker_pair(small_kb, uk_sentence):
    text = build_entity_prompt_target(uk_sentence, [Triple("Q145", "P36", "Q84")], small_kb)
    assert text.count("[ENTITY]") == 1
    assert text.count("[TRIPLE]") == 1
    assert text.index("[ENTITY]") < text.index("[TRIPLE]")


def test_chain_span_link_that_resolves_to_nothing_is_an_error(small_kb):
    sentence = make_sentence_with_offsets(["Q145", "Q404"])
    ordered = [Triple("Q145", "P36", "Q404")]
    with pytest.raises(LinearizeError, match="^cannot resolve span link 'Q404'$"):
        entity_linking_chain(sentence, ordered, small_kb)


def test_year_span_appears_in_chain(small_kb):
    sentence = make_sentence_with_offsets(["Q62", "1776"])
    ordered = [Triple("Q62", "P571", "1776")]
    chain = entity_linking_chain(sentence, ordered, small_kb)
    assert chain == "mQ62 # San Francisco | m1776 # 1776"


def test_artificial_prompt_instances():
    sentence = LinkedSentence(text="Some text.", spans=())
    el, tri = build_artificial_prompt_instances(sentence, "EL-TARGET", "TRI-TARGET")
    assert el["input"] == "<#el#> Some text."
    assert el["target"] == "EL-TARGET"
    assert tri["input"] == "<#tri#> Some text."
    assert tri["target"] == "TRI-TARGET"


def test_artificial_prompt_on_empty_text():
    sentence = LinkedSentence(text="", spans=())
    el, tri = build_artificial_prompt_instances(sentence, "", "")
    assert el["input"] == "<#el#> "
    assert tri["input"] == "<#tri#> "


def row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def test_artificial_prompt_multiset_preserved_under_shuffle():
    rng = random.Random(3)
    sentences = [LinkedSentence(text=f"Sentence number {i}.", spans=()) for i in range(40)]
    pairs = []
    for i, sentence in enumerate(sentences):
        pairs.extend(build_artificial_prompt_instances(sentence, f"el{i}", f"tri{i}"))
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert Counter(map(row_key, shuffled)) == Counter(map(row_key, pairs))


def test_dual_target_instance():
    sentence = LinkedSentence(text="Dual output text.", spans=())
    instance = build_dual_target_instance(sentence, "EL", "IE")
    assert instance["input"] == "Dual output text."
    assert instance["target_ie"] == "IE"
    assert instance["target_el"] == "EL"


def test_dual_target_multiset_preserved_under_shuffle():
    rng = random.Random(4)
    instances = [
        build_dual_target_instance(
            LinkedSentence(text=f"t{i}", spans=()), f"el{i}", f"ie{i}"
        )
        for i in range(40)
    ]
    shuffled = instances[:]
    rng.shuffle(shuffled)
    assert Counter(map(row_key, shuffled)) == Counter(map(row_key, instances))


# -- losses --------------------------------------------------------------------


def test_combine_losses_midpoint():
    assert combine_losses(2.0, 4.0, 0.5) == 3.0


def test_combine_losses_degenerate_weights():
    assert combine_losses(1.5, 9.0, 1.0) == 1.5
    assert combine_losses(1.5, 9.0, 0.0) == 9.0


def test_combine_losses_supports_point_seven_five():
    assert combine_losses(4.0, 8.0, 0.75) == pytest.approx(5.0)


def test_combine_losses_rejects_out_of_range_alpha():
    with pytest.raises(ValueError):
        combine_losses(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        combine_losses(1.0, 1.0, -0.1)


@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
)
def test_combine_losses_is_convex_combination(l_ie, l_el, alpha):
    value = combine_losses(l_ie, l_el, alpha)
    assert min(l_ie, l_el) - 1e-9 <= value <= max(l_ie, l_el) + 1e-9
    assert value == pytest.approx(alpha * l_ie + (1 - alpha) * l_el)
