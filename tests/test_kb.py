from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.evaluation import resolve_raw_triple
from factgen.kb import KbIntegrityError, KbLoadError, KbStore, Triple, load_kb
from factgen.linearize import linearize, parse_linearized


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


def _is_year(value: str) -> bool:
    return re.fullmatch(r"[0-9]{1,4}", value) is not None


# Labels that survive linearize/parse_linearized: trimmed, no delimiters.
_labels = st.text(alphabet="ab1 ", min_size=1, max_size=5).filter(
    lambda s: s == s.strip() and not _is_year(s)
)
_years = st.from_regex(r"[0-9]{1,4}", fullmatch=True)


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
