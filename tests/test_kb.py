from __future__ import annotations

import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factgen.evaluation import resolve_raw_triple, score_predictions
from factgen.kb import (
    KbError,
    KbIntegrityError,
    KbLoadError,
    KbStore,
    Triple,
    is_label,
    is_year_literal,
    load_kb,
    year_labels,
)
from factgen.linearize import RawTriple, linearize, linearize_labels, parse_linearized
from factgen.tokenizers import SPECIAL_TOKENS, ByteTokenizer


def write_kb_files(tmp_path, entities, relations, triples):
    paths = []
    for name, rows in (("entities", entities), ("relations", relations), ("triples", triples)):
        path = tmp_path / f"{name}.tsv"
        path.write_text(
            "".join("\t".join(row) + "\n" for row in rows), encoding="utf-8"
        )
        paths.append(str(path))
    return paths


def test_empty_files_give_empty_store(tmp_path):
    store = load_kb(*write_kb_files(tmp_path, [], [], []))
    assert store.num_entities == 0
    assert store.num_relations == 0
    assert store.num_triples == 0
    assert store.resolve_title("anything") is None
    assert store.relations_between("Q1", "Q2") == set()


def test_title_resolves_to_qid(tmp_path):
    store = load_kb(
        *write_kb_files(
            tmp_path,
            [("Q145", "United Kingdom")],
            [],
            [],
        )
    )
    assert store.resolve_title("United Kingdom") == "Q145"


def test_duplicate_triples_are_deduplicated(tmp_path):
    entities = [("Q62", "San Francisco"), ("Q30", "United States")]
    relations = [("P17", "country", ""), ("P131", "located in", "")]
    triple_rows = [
        ("Q62", "P17", "Q30"),
        ("Q62", "P17", "Q30"),
        ("Q62", "P131", "Q30"),
    ]
    store = load_kb(*write_kb_files(tmp_path, entities, relations, triple_rows))

    # Oracle: brute-force scan of the raw rows.
    expected: dict[tuple[str, str], set[str]] = {}
    for head, pid, tail in triple_rows:
        expected.setdefault((head, tail), set()).add(pid)
    assert store.num_pairs == len(expected) == 1
    assert store.num_triples == 2
    for (head, tail), pids in expected.items():
        assert store.relations_between(head, tail) == pids


def test_a_store_loaded_without_triples_resolves_but_answers_no_pair_question(tmp_path):
    entities, relations, triples = write_kb_files(
        tmp_path, [("Q145", "United Kingdom"), ("Q84", "London")],
        [("P36", "capital", "seat of government")], [("Q145", "P36", "Q84")],
    )
    # The triples file is never opened: it need not even exist.
    (tmp_path / "triples.tsv").unlink()
    for store in (load_kb(entities, relations), load_kb(entities, relations, None)):
        assert store.resolve_title("London") == "Q84"
        assert store.value_label("1999") == "1999"
        assert store.resolve_relation_label("capital") == "P36"
        assert (store.num_entities, store.num_relations) == (2, 1)
        for asked, ask in [
            ("relations_between", lambda: store.relations_between("Q145", "Q84")),
            ("num_pairs", lambda: store.num_pairs),
            ("num_triples", lambda: store.num_triples),
        ]:
            with pytest.raises(KbError) as caught:
                ask()
            assert str(caught.value) == (
                f"cannot answer {asked}: the KB was loaded without its triples"
            )


def test_relations_between_cannot_change_the_index(small_kb):
    pids = small_kb.relations_between("Q84", "Q145")
    with pytest.raises(AttributeError):
        pids.add("P36")  # type: ignore[attr-defined]
    assert small_kb.relations_between("Q84", "Q145") == {"P17"}
    assert isinstance(small_kb.relations_between("Q1", "Q2"), frozenset)


def test_relations_between_is_directional(small_kb):
    assert small_kb.relations_between("Q84", "Q145") == {"P17"}
    assert small_kb.relations_between("Q145", "Q84") == {"P36"}
    assert small_kb.relations_between("Q145", "Q38") == set()


def test_relations_between_matches_bruteforce_scan(tmp_path):
    entities = [(f"Q{i}", f"Entity {i}") for i in range(10)]
    relations = [(f"P{i}", f"rel {i}", "") for i in range(4)]
    import random

    rng = random.Random(7)
    triple_rows = [
        (f"Q{rng.randrange(10)}", f"P{rng.randrange(4)}", f"Q{rng.randrange(10)}")
        for _ in range(60)
    ]
    store = load_kb(*write_kb_files(tmp_path, entities, relations, triple_rows))
    expected: dict[tuple[str, str], set[str]] = {}
    for head, pid, tail in triple_rows:
        expected.setdefault((head, tail), set()).add(pid)
    for head, _ in entities:
        for tail, _ in entities:
            assert store.relations_between(head, tail) == expected.get((head, tail), set())


# A few years, so that several pairs share a year tail: both ends of the
# year set among them.
_YEAR_TAILS = ["1", "7", "1999", "2100"]


def _copy(text: str) -> str:
    """An equal string that is another object, as a TSV row's fields are."""
    return "".join(list(text))


@st.composite
def pair_rows(draw):
    """Entities, relations and triple rows with year tails, repeated rows,
    pairs with several pids, in a drawn order."""
    qids = [f"Q{i}" for i in range(draw(st.integers(1, 6)))]
    pids = [f"P{i}" for i in range(draw(st.integers(1, 4)))]
    tails = st.one_of(st.sampled_from(qids), st.sampled_from(_YEAR_TAILS))
    rows = draw(st.lists(st.tuples(st.sampled_from(qids), st.sampled_from(pids), tails),
                         max_size=30))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    rows = [tuple(map(_copy, row)) for row in draw(st.permutations(rows + repeats))]
    entities = [(qid, f"Entity {qid}") for qid in qids]
    relations = [(pid, f"rel {pid}", "") for pid in pids]
    return entities, relations, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair_rows())
def test_pair_index_matches_bruteforce_and_shares_equal_pid_sets(case):
    entities, relations, rows = case
    store = KbStore.from_records(entities, relations, rows)
    expected: dict[tuple[str, str], set[str]] = {}
    for head, pid, tail in rows:
        expected.setdefault((head, tail), set()).add(pid)
    assert store.num_pairs == len(expected)
    assert store.num_triples == sum(map(len, expected.values()))

    # Every directed pair of values, so absent and reversed pairs too.
    values = [qid for qid, _ in entities] + _YEAR_TAILS
    shared: dict[frozenset[str], frozenset[str]] = {}
    for head in values:
        for tail in values:
            pids = store.relations_between(head, tail)
            assert isinstance(pids, frozenset)
            assert pids == expected.get((head, tail), set())
            if pids:
                # Equal pid sets are one object, which is safe only while
                # the sets cannot change.
                assert shared.setdefault(pids, pids) is pids

    # The index holds the store's strings, not the rows': the entity and
    # relation maps' own ids, and one object per year.
    years: dict[str, str] = {}
    for (head, tail), pids in store._pairs.items():
        assert head is store.resolve_title(store.entity_label(head))
        title = store.entity_label(tail)
        assert tail is (years.setdefault(tail, tail) if title is None
                        else store.resolve_title(title))
        for pid in pids:
            assert pid is store.resolve_relation_label(store.relation_label(pid))


def test_the_pair_index_costs_its_pairs_not_their_wrappers(tmp_path):
    rng = random.Random(22)
    qids = [f"Q{i}" for i in range(2_000)]
    pids = [f"P{i}" for i in range(10)]
    rows = [
        (
            rng.choice(qids),
            rng.choice(pids),
            str(rng.randrange(1000, 2100)) if rng.random() < 0.15 else rng.choice(qids),
        )
        for _ in range(20_000)
    ]
    paths = write_kb_files(
        tmp_path, [(qid, f"Entity {qid}") for qid in qids],
        [(pid, f"rel {pid}", "") for pid in pids], rows,
    )

    def traced_load(*args):
        gc.collect()
        tracemalloc.start()
        try:
            store = load_kb(*args)
            return store, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    _bare, bare_bytes = traced_load(*paths[:2])
    store, full_bytes = traced_load(*paths)
    # A dict slot and a key tuple: 89 B per pair here on Python 3.11,
    # against 459 B with a frozenset and two fresh strings per pair.
    assert (full_bytes - bare_bytes) / store.num_pairs < 200


def test_title_qid_bijection_roundtrips(small_kb):
    for title in list(small_kb.entity_titles()):
        qid = small_kb.resolve_title(title)
        assert small_kb.entity_label(qid) == title
    assert small_kb.resolve_title("no-such-title") is None
    assert small_kb.entity_label("Q999999") is None


def test_entity_label_lookup(small_kb):
    assert small_kb.entity_label("Q38") == "Italy"
    assert small_kb.relation_label("P36") == "capital"
    assert small_kb.resolve_relation_label("country") == "P17"
    assert small_kb.resolve_relation_label("unknown") is None


def test_year_tail_is_kept_as_raw_string(small_kb):
    assert small_kb.relations_between("Q62", "1776") == {"P571"}


def test_loading_twice_is_deterministic(tmp_path, small_kb):
    entities = [("Q1", "A"), ("Q2", "B")]
    relations = [("P1", "r", "d")]
    triples = [("Q1", "P1", "Q2"), ("Q2", "P1", "Q1")]
    paths = write_kb_files(tmp_path, entities, relations, triples)
    first, second = load_kb(*paths), load_kb(*paths)
    for head in ("Q1", "Q2"):
        for tail in ("Q1", "Q2"):
            assert first.relations_between(head, tail) == second.relations_between(head, tail)
    assert list(first.entity_titles()) == list(second.entity_titles())


def test_malformed_line_reports_line_number(tmp_path):
    entities = tmp_path / "entities.tsv"
    entities.write_text("Q1\tA\nQ2-without-title\n", encoding="utf-8")
    relations = tmp_path / "relations.tsv"
    relations.write_text("", encoding="utf-8")
    triples = tmp_path / "triples.tsv"
    triples.write_text("", encoding="utf-8")
    with pytest.raises(KbLoadError, match=r"entities\.tsv:2"):
        load_kb(str(entities), str(relations), str(triples))


@pytest.mark.parametrize(
    "entities, relations",
    [
        ([("Q1", "A"), ("Q1", "B")], []),  # duplicate qid
        ([("Q1", "A"), ("Q2", "A")], []),  # duplicate title
        ([("Q1", "A")], [("P1", "r", ""), ("P1", "s", "")]),  # duplicate pid
        ([("Q1", "A")], [("P1", "r", ""), ("P2", "r", "")]),  # duplicate label
    ],
)
def test_duplicate_identifiers_are_integrity_errors(tmp_path, entities, relations):
    paths = write_kb_files(tmp_path, entities, relations, [])
    with pytest.raises(KbIntegrityError):
        load_kb(*paths)


def test_qid_that_reads_as_a_year_names_its_line(tmp_path):
    paths = write_kb_files(
        tmp_path, [("Q1", "Alpha"), ("1999", "Foo")], [("P1", "founded", "")], []
    )
    with pytest.raises(
        KbIntegrityError, match=r"entities\.tsv:2: entity qid '1999' reads as a year literal"
    ):
        load_kb(*paths)


def test_year_labels_span_range():
    years = year_labels()
    assert years[0] == "1"
    assert years[-1] == "2100"
    assert len(years) == len(set(years)) == 2100
    assert "1776" in years


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-5, 10_000).map(str), st.text(alphabet="0129 १७", max_size=5)))
@example("0")
@example("0012")
@example("2101")
@example(" 1999")
@example("१७७६")  # Devanagari digits: str.isdigit() says yes, the year set no
def test_a_year_literal_is_a_member_of_the_year_set(value):
    assert is_year_literal(value) == (value in year_labels())


def test_a_qid_outside_the_year_set_is_an_entity():
    store = KbStore.from_records(
        entities=[("0", "Zero"), ("2101", "Future")],
        relations=[("P1", "r", "")],
        triples=[("0", "P1", "2101")],
    )
    assert store.value_label("2101") == "Future"
    assert store.resolve_value("Zero") == "0"
    assert store.relations_between("0", "2101") == {"P1"}


def test_title_that_reads_as_a_year_resolves_to_its_entity():
    store = KbStore.from_records(
        entities=[("Q1", "Alpha"), ("Q2", "1917")],
        relations=[("P1", "r", "")],
        triples=[("Q1", "P1", "Q2"), ("Q1", "P1", "1917")],
    )
    assert store.resolve_value("1917") == "Q2"
    assert store.value_label("Q2") == "1917"
    assert store.value_label("1917") == "1917"
    assert store.relations_between("Q1", "1917") == {"P1"}


def test_dangling_triple_reference_is_integrity_error(tmp_path):
    paths = write_kb_files(
        tmp_path, [("Q1", "A")], [("P1", "r", "")], [("Q1", "P1", "Q404")]
    )
    with pytest.raises(KbIntegrityError, match=r"triples\.tsv:1"):
        load_kb(*paths)


def test_titles_are_case_significant():
    store = KbStore.from_records(
        entities=[("Q1", "Apple"), ("Q2", "apple")], relations=[], triples=[]
    )
    assert store.resolve_title("Apple") == "Q1"
    assert store.resolve_title("apple") == "Q2"
    assert store.resolve_title("APPLE") is None


# The years "1".."2100" in their one spelling, without a leading zero.
YEAR_SPELLING = r"[1-9][0-9]{0,2}|1[0-9]{3}|20[0-9]{2}|2100"


def _is_year(value: str) -> bool:
    return re.fullmatch(YEAR_SPELLING, value) is not None


# Labels that survive linearize/parse_linearized: trimmed, no delimiters.
_labels = st.text(alphabet="ab1 ", min_size=1, max_size=5).filter(
    lambda s: s == s.strip() and not _is_year(s)
)
_years = st.from_regex(YEAR_SPELLING, fullmatch=True)


@st.composite
def small_kbs(draw):
    titles = draw(st.lists(_labels, min_size=1, max_size=6, unique=True))
    labels = draw(st.lists(_labels, min_size=1, max_size=3, unique=True))
    qids = [f"Q{i}" for i in range(len(titles))]
    pids = [f"P{i}" for i in range(len(labels))]
    tails = st.one_of(st.sampled_from(qids), _years)
    triples = draw(
        st.lists(st.tuples(st.sampled_from(qids), st.sampled_from(pids), tails), max_size=8)
    )
    probes = draw(st.lists(st.one_of(_years, st.text(alphabet="Q01ab ", max_size=4))))
    entities = list(zip(qids, titles))
    relations = [(pid, label, "") for pid, label in zip(pids, labels)]
    return entities, relations, triples, probes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_kbs())
def test_value_rule_matches_bruteforce_oracle(case):
    entities, relations, triple_rows, probes = case
    store = KbStore.from_records(entities, relations, triple_rows)

    def oracle_label(value):
        for qid, title in entities:
            if value == qid:
                return title
        return value if _is_year(value) else None

    def oracle_resolve(label):
        for qid, title in entities:
            if label == title:
                return qid
        return label if _is_year(label) else None

    for qid, title in entities:
        assert store.value_label(qid) == title
        assert store.resolve_value(title) == qid
    for value in probes + [title for _, title in entities]:
        assert store.value_label(value) == oracle_label(value)
        assert store.resolve_value(value) == oracle_resolve(value)

    triples = sorted({Triple(*row) for row in triple_rows})
    parsed = parse_linearized(linearize(triples, store))
    assert [resolve_raw_triple(raw, store) for raw in parsed] == triples


# Every load error, by the file and line it names and its exact text. The
# good rows sit on line 1 of each file, so each bad row is on line 2.
NOT_A_LABEL = "holds a reserved symbol or leading or trailing whitespace"
GOOD_ENTITY = ("Q1", "Alpha")
GOOD_RELATION = ("P1", "founded", "")


@pytest.mark.parametrize(
    "bad_file, bad_row, error, message",
    [
        ("entities", ("Q2",), KbLoadError, "expected 2 tab-separated fields, got 1"),
        ("entities", ("Q2", "B", "x"), KbLoadError, "expected 2 tab-separated fields, got 3"),
        ("relations", ("P2", "r"), KbLoadError, "expected 3 tab-separated fields, got 2"),
        ("triples", ("Q1", "P1"), KbLoadError, "expected 3 tab-separated fields, got 2"),
        ("entities", ("", "Beta"), KbIntegrityError,
         "entity with empty qid or title: ('', 'Beta')"),
        ("entities", ("Q2", ""), KbIntegrityError,
         "entity with empty qid or title: ('Q2', '')"),
        ("relations", ("", "r", ""), KbIntegrityError,
         "relation with empty pid or label: ('', 'r')"),
        ("relations", ("P2", "", ""), KbIntegrityError,
         "relation with empty pid or label: ('P2', '')"),
        ("entities", ("1999", "Beta"), KbIntegrityError,
         "entity qid '1999' reads as a year literal"),
        ("entities", ("Q1", "Beta"), KbIntegrityError, "duplicate entity qid 'Q1'"),
        ("entities", ("Q2", "Alpha"), KbIntegrityError, "duplicate entity title 'Alpha'"),
        ("relations", ("P1", "r", ""), KbIntegrityError, "duplicate relation pid 'P1'"),
        ("relations", ("P2", "founded", ""), KbIntegrityError,
         "duplicate relation label 'founded'"),
        ("triples", ("Q9", "P1", "Q1"), KbIntegrityError,
         "triple head 'Q9' is not a known entity"),
        ("triples", ("Q1", "P9", "Q1"), KbIntegrityError,
         "triple relation 'P9' is not a known relation"),
        ("triples", ("Q1", "P1", "Q404"), KbIntegrityError,
         "triple tail 'Q404' is neither a known entity nor a year literal"),
        ("triples", ("Q1", "P1", "12345"), KbIntegrityError,
         "triple tail '12345' is neither a known entity nor a year literal"),
        ("triples", ("Q1", "P1", "0012"), KbIntegrityError,
         "triple tail '0012' is neither a known entity nor a year literal"),
        ("entities", ("Q2", "A <rel> B"), KbIntegrityError,
         f"entity title 'A <rel> B' {NOT_A_LABEL}"),
        ("entities", ("Q2", " padded "), KbIntegrityError,
         f"entity title ' padded ' {NOT_A_LABEL}"),
        ("entities", ("Q2", "A</s>B"), KbIntegrityError, f"entity title 'A</s>B' {NOT_A_LABEL}"),
        ("entities", ("Q2", "Beta\u00a0"), KbIntegrityError,
         f"entity title 'Beta\\xa0' {NOT_A_LABEL}"),  # repr() escapes the NBSP
        ("relations", ("P2", "founded ", ""), KbIntegrityError,
         f"relation label 'founded ' {NOT_A_LABEL}"),
        *[
            ("entities", ("Q2", f"Beta{symbol}"), KbIntegrityError,
             f"entity title 'Beta{symbol}' {NOT_A_LABEL}")
            for symbol in SPECIAL_TOKENS
        ],
        *[
            ("relations", ("P2", f"{symbol}r", ""), KbIntegrityError,
             f"relation label '{symbol}r' {NOT_A_LABEL}")
            for symbol in SPECIAL_TOKENS
        ],
        # The year set is "1".."2100": its last year is no qid, and a year
        # tail outside it is no value.
        ("entities", ("2100", "Beta"), KbIntegrityError,
         "entity qid '2100' reads as a year literal"),
        *[
            ("triples", ("Q1", "P1", year), KbIntegrityError,
             f"triple tail '{year}' is neither a known entity nor a year literal")
            for year in ("0", "2101", "9999")
        ],
    ],
)
def test_every_load_error_names_its_file_and_line(tmp_path, bad_file, bad_row, error, message):
    rows = {
        "entities": [GOOD_ENTITY],
        "relations": [GOOD_RELATION],
        "triples": [("Q1", "P1", "1999")],
    }
    rows[bad_file].append(bad_row)
    paths = write_kb_files(tmp_path, rows["entities"], rows["relations"], rows["triples"])
    with pytest.raises(error) as raised:
        load_kb(*paths)
    assert type(raised.value) is error
    assert str(raised.value) == f"{tmp_path / bad_file}.tsv:2: {message}"


def test_blank_lines_and_crlf_endings_are_read_as_before(tmp_path):
    # Blank (or whitespace-only) lines are skipped but still counted, and a
    # CRLF ending is no part of the last field.
    (tmp_path / "entities.tsv").write_bytes(b"Q1\tAlpha\r\n\n \t \nQ2\tBeta\r\n")
    (tmp_path / "relations.tsv").write_bytes(b"P1\tfounded\t\r\n")
    (tmp_path / "triples.tsv").write_bytes(b"Q1\tP1\tQ2\r\n\r\nQ2\tP1\tQ3\r\n")
    paths = [str(tmp_path / f"{name}.tsv") for name in ("entities", "relations", "triples")]
    with pytest.raises(KbIntegrityError) as raised:
        load_kb(*paths)
    assert str(raised.value) == (
        f"{paths[2]}:3: triple tail 'Q3' is neither a known entity nor a year literal"
    )
    (tmp_path / "triples.tsv").write_bytes(b"Q1\tP1\tQ2\r\n")
    store = load_kb(*paths)
    assert store.entity_label("Q2") == "Beta"
    assert store.relations_between("Q1", "Q2") == {"P1"}


@pytest.mark.parametrize("title", ["Zoë Ålborg", "नई दिल्ली", "1917"])
def test_non_ascii_and_year_like_titles_load_and_score_their_gold(tmp_path, title):
    paths = write_kb_files(
        tmp_path, [("Q1", title), ("Q2", "Paris")], [("P1", "capital", "")],
        [("Q1", "P1", "Q2")],
    )
    store = load_kb(*paths)
    gold = [Triple("Q1", "P1", "Q2")]
    tok = ByteTokenizer()
    output = tok.decode(tok.encode(linearize(gold, store)))
    report = score_predictions({"a": parse_linearized(output)}, {"a": gold}, store)
    assert report.counts[:3] == (1, 0, 0)  # tp, fp, fn


# Label texts from full Unicode, Devanagari included, mixed with the reserved
# symbols and with whitespace (ASCII and not) so that both sides of the rule
# come up often.
_label_texts = st.lists(
    st.one_of(
        st.text(max_size=4),
        st.text(st.characters(min_codepoint=0x0900, max_codepoint=0x097F), max_size=4),
        st.sampled_from(SPECIAL_TOKENS),
        st.sampled_from(" \t\n\x1c\x85\u00a0\u2028\u3000"),
    ),
    max_size=5,
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_label_texts)
def test_label_rule_matches_bruteforce_oracle_and_the_round_trip(text):
    holds_symbol = any(symbol in text for symbol in SPECIAL_TOKENS)
    assert is_label(text) == (not holds_symbol and text == text.strip())
    if not text:
        return  # an empty title or label is rejected by its own rule
    # The store built from records applies the rule as load_kb does.
    records = ([("Q1", text)], [("P1", text, "")], [])
    if is_label(text):
        KbStore.from_records(*records)
    else:
        with pytest.raises(KbIntegrityError) as raised:
            KbStore.from_records(*records)
        assert str(raised.value) == f"entity title {text!r} {NOT_A_LABEL}"
    # Accepted labels survive the linearized language. A rejected label with
    # no reserved symbol (edge whitespace) does not. One holding a symbol may
    # still round-trip ([ENTITY], [TRIPLE], <#el#> and <#tri#> are not triple
    # delimiters); it is rejected because every reserved symbol is a control
    # id of the decoder.
    tok = ByteTokenizer()
    triple = RawTriple(text, text, text)
    back = parse_linearized(tok.decode(tok.encode(linearize_labels([triple]))))
    if is_label(text):
        assert back == [triple]
    elif not holds_symbol:
        assert back != [triple]
