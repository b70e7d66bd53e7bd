from __future__ import annotations

import json

import pytest

from factgen.kb import Triple
from factgen.linearize import LinkedSentence, MentionSpan
from factgen.records import (
    RecordError,
    dataset_record,
    load_dataset,
    load_input_sentences,
    load_predictions,
    read_jsonl,
    sentence_from_input_record,
    unique_instances,
    unique_records,
    write_jsonl,
)


def test_input_record_with_entity_and_date_spans():
    row = {
        "id": "s1",
        "text": "San Francisco grew fast after July 4, 1776 according to records.",
        "spans": [
            {"start": 0, "end": 13, "surface": "San Francisco", "link": "Q62"},
            {"start": 30, "end": 42, "surface": "July 4, 1776", "date": "July 4, 1776"},
        ],
        "url_domain": "example.org",
    }
    sentence = sentence_from_input_record(row)
    assert sentence.id == "s1"
    assert sentence.spans[0].link == "Q62"
    assert sentence.spans[1].link == "1776"
    # url_domain is accepted and ignored.
    without_domain = {key: value for key, value in row.items() if key != "url_domain"}
    assert sentence == sentence_from_input_record(without_domain)


def test_unparseable_date_becomes_unlinked():
    row = {
        "id": "s2",
        "text": "It happened last Tuesday they say.",
        "spans": [{"start": 12, "end": 24, "surface": "last Tuesday", "date": "last Tuesday"}],
    }
    sentence = sentence_from_input_record(row)
    assert sentence.spans[0].link is None


def test_input_spans_are_sorted_by_offset(tmp_path):
    row = {
        "id": "s3",
        "text": "Rome and Paris are both capitals of old countries.",
        "spans": [
            {"start": 9, "end": 14, "surface": "Paris", "link": "Q90"},
            {"start": 0, "end": 4, "surface": "Rome", "link": "Q220"},
        ],
    }
    sentence = sentence_from_input_record(row)
    assert [s.surface for s in sentence.spans] == ["Rome", "Paris"]
    # A dataset record's spans follow the same rule.
    path = tmp_path / "records.jsonl"
    write_jsonl(str(path), [dict(row, triples=[])])
    assert load_input_sentences(str(path)) == [sentence]
    assert load_dataset(str(path)) == [(sentence, [])]


def test_surface_mismatch_is_a_record_error():
    row = {
        "id": "s4",
        "text": "Nothing matches here.",
        "spans": [{"start": 0, "end": 7, "surface": "WRONG", "link": "Q1"}],
    }
    with pytest.raises(RecordError):
        sentence_from_input_record(row)


def test_dataset_record_roundtrip(tmp_path):
    sentence = LinkedSentence(
        text="The UK named London its capital centuries ago.",
        spans=(
            MentionSpan(4, 6, "UK", "Q145"),
            MentionSpan(13, 19, "London", "Q84"),
        ),
        id="uk-1",
    )
    triples = [Triple("Q145", "P36", "Q84")]
    path = tmp_path / "data.jsonl"
    write_jsonl(str(path), [dataset_record(sentence, triples)])
    ((loaded_sentence, loaded_triples),) = load_dataset(str(path))
    assert loaded_sentence.text == sentence.text
    assert loaded_sentence.id == sentence.id
    assert not dataset_record(loaded_sentence, loaded_triples)["is_negative"]
    assert loaded_triples == triples


def test_negative_dataset_record_has_flag():
    sentence = LinkedSentence(text="No facts here at all today.", spans=(), id="n")
    record = dataset_record(sentence, [])
    assert record["is_negative"] is True
    assert record["triples"] == []


def test_bad_json_line_reports_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x", "spans": []}\nnot json\n')
    with pytest.raises(RecordError, match=r"bad\.jsonl:2"):
        load_input_sentences(str(path))


def test_blank_lines_are_skipped_but_counted(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text('{"id": "a \\ud83d\\ude00"}\n\n \t\n[1]\n')
    rows = read_jsonl(str(path))
    assert next(rows) == (1, {"id": "a \U0001f600"})  # an escaped pair is its emoji
    with pytest.raises(RecordError, match=r"blank\.jsonl:4: record is not an object$"):
        next(rows)


def test_predictions_loader(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        json.dumps({"id": "a", "output": "<sub> X <rel> r <obj> Y <et>"}) + "\n"
        + json.dumps({"id": "b", "output": ""}) + "\n"
    )
    predictions = load_predictions(str(path))
    assert set(predictions) == {"a", "b"}
    assert predictions["b"] == ""


def _span(**fields):
    return {"id": "s", "text": "ab", "spans": [{"start": 0, "end": 1, "surface": "a", **fields}]}


def _triple(**fields):
    triple = {"head": "Q1", "pid": "P1", "tail": "Q2", **fields}
    return {"id": "t", "text": "ab", "triples": [triple]}


def _load_instances(path: str) -> list[tuple[str, str]]:
    return unique_instances(path, read_jsonl(path))


@pytest.mark.parametrize(
    "loader, row, message",
    [
        (load_input_sentences, {"id": "s", "text": 5}, "text must be str, got 5"),
        (load_input_sentences, _span(start=0.0), "start must be int, got 0.0"),
        (load_input_sentences, _span(end=True), "end must be int, got True"),
        (load_input_sentences, _span(surface=None), "surface must be str, got None"),
        (load_input_sentences, _span(link=5), "link must be str or null, got 5"),
        (load_input_sentences, _span(start=1), "bad span offsets [1, 1)"),
        (
            load_input_sentences,
            {"id": "s", "text": "ab", "spans": [5]},
            "span must be an object, got 5",
        ),
        (
            load_dataset,
            {"id": "a", "text": 5, "spans": [], "triples": []},
            "text must be str, got 5",
        ),
        (load_dataset, _span(start=False), "start must be int, got False"),
        (load_dataset, _span(surface=["a"]), "surface must be str, got ['a']"),
        (load_dataset, _span(link=5), "link must be str or null, got 5"),
        (load_dataset, _triple(head=1), "head must be str, got 1"),
        (load_dataset, _triple(pid=None), "pid must be str, got None"),
        (load_dataset, _triple(tail=["Q2"]), "tail must be str, got ['Q2']"),
        (load_predictions, {"id": "p", "output": None}, "output must be str, got None"),
        (load_predictions, {"id": "p", "output": 5}, "output must be str, got 5"),
        (load_predictions, {"id": "p"}, "record lacks 'output'"),
        (_load_instances, {"id": "i", "target": 5}, "target must be str, got 5"),
        (_load_instances, {"id": "i", "target_ie": None}, "target_ie must be str, got None"),
    ],
    ids=[
        "text", "start", "end", "surface", "link", "offsets", "span", "dataset-text",
        "dataset-start", "dataset-surface", "dataset-link", "dataset-head", "dataset-pid",
        "dataset-tail", "output-null", "output-int", "output-missing", "instance-target", "instance-target-ie",
    ],
)
def test_wrong_typed_field_is_a_record_error_with_its_line(tmp_path, loader, row, message):
    path = tmp_path / "records.jsonl"
    valid = {"id": "ok", "text": "x", "output": ""}
    path.write_text(json.dumps(valid) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(RecordError) as raised:
        loader(str(path))
    assert str(raised.value) == f"{path}:2: {message}"


TEXT = "Rome and Paris."
ROME = {"start": 0, "end": 4, "surface": "Rome", "link": "Q220"}
PARIS = {"start": 9, "end": 14, "surface": "Paris", "link": "Q90"}
BOTH_LOADERS = (load_input_sentences, load_dataset)


def _with_spans(*spans):
    return {"id": "s", "text": TEXT, "spans": list(spans)}


def _with_triples(*triples):
    return {"id": "t", "text": TEXT, "spans": [ROME, PARIS], "triples": list(triples)}


# Every RecordError a record, a span or a triple can raise, with its exact
# text. Both loaders read a record's id, text and spans by one rule, with
# the spans sorted by start before the sentence is built.
SPAN_AND_TRIPLE_ERRORS = [
    (BOTH_LOADERS, _with_spans(5), "span must be an object, got 5"),
    (BOTH_LOADERS, _with_spans([0, 4]), "span must be an object, got [0, 4]"),
    (BOTH_LOADERS, _with_spans({"end": 4, "surface": "Rome"}), "span lacks 'start'"),
    (BOTH_LOADERS, _with_spans({"start": 0, "surface": "Rome"}), "span lacks 'end'"),
    (BOTH_LOADERS, _with_spans({"start": 0, "end": 4}), "span lacks 'surface'"),
    (BOTH_LOADERS, _with_spans(dict(ROME, start="0")), "start must be int, got '0'"),
    (BOTH_LOADERS, _with_spans(dict(ROME, end=4.0)), "end must be int, got 4.0"),
    (BOTH_LOADERS, _with_spans(dict(ROME, end=None)), "end must be int, got None"),
    (BOTH_LOADERS, _with_spans(dict(ROME, surface=4)), "surface must be str, got 4"),
    (BOTH_LOADERS, _with_spans(dict(ROME, link=["Q220"])),
     "link must be str or null, got ['Q220']"),
    (BOTH_LOADERS, _with_spans(dict(ROME, link=False)), "link must be str or null, got False"),
    (BOTH_LOADERS, _with_spans(dict(ROME, start=-1)), "bad span offsets [-1, 4)"),
    (BOTH_LOADERS, _with_spans(dict(ROME, end=0)), "bad span offsets [0, 0)"),
    (BOTH_LOADERS, _with_spans(dict(PARIS, end=16, surface="Paris.?")),
     "span [9, 16) outside text"),
    (BOTH_LOADERS, _with_spans(dict(ROME, surface="Roma")),
     "span surface 'Roma' does not match text slice 'Rome'"),
    (BOTH_LOADERS, _with_spans(ROME, dict(ROME, start=2, surface="me")),
     "span [2, 4) overlaps or is out of order"),
    ((load_dataset,), _with_spans(ROME, ROME), "span [0, 4) overlaps or is out of order"),
    ((load_dataset,), _with_triples(5), "triple must be an object, got 5"),
    ((load_dataset,), _with_triples(["Q220", "P1", "Q90"]),
     "triple must be an object, got ['Q220', 'P1', 'Q90']"),
    ((load_dataset,), _with_triples({"pid": "P1", "tail": "Q90"}), "triple lacks 'head'"),
    ((load_dataset,), _with_triples({"head": "Q220", "tail": "Q90"}), "triple lacks 'pid'"),
    ((load_dataset,), _with_triples({"head": "Q220", "pid": "P1"}), "triple lacks 'tail'"),
    ((load_dataset,), _with_triples({"head": None, "pid": "P1", "tail": "Q90"}),
     "head must be str, got None"),
    ((load_dataset,), _with_triples({"head": "Q220", "pid": 1, "tail": "Q90"}),
     "pid must be str, got 1"),
    ((load_dataset,), _with_triples({"head": "Q220", "pid": "P1", "tail": 1776}),
     "tail must be str, got 1776"),
    ((load_dataset,), dict(_with_triples(), triples=5), "triples must be list, got 5"),
    ((load_dataset,), dict(_with_triples(), spans=5), "spans must be list, got 5"),
    (BOTH_LOADERS, {"id": "s", "spans": []}, "record lacks 'text'"),
    (BOTH_LOADERS, {"text": TEXT}, "record lacks 'id'"),
    ((load_input_sentences,), dict(_with_spans(), spans=5), "spans must be list, got 5"),
    (BOTH_LOADERS, _with_spans(dict(ROME, link=None, date=True)), "date must be str, got True"),
    (BOTH_LOADERS, _with_spans(dict(ROME, link=None, date=476)), "date must be str, got 476"),
    (BOTH_LOADERS, _with_spans(dict(ROME, start=2, surface="me"), ROME),
     "span [2, 4) overlaps or is out of order"),
]


@pytest.mark.parametrize(
    "loader, row, message",
    [
        (loader, row, message)
        for loaders, row, message in SPAN_AND_TRIPLE_ERRORS
        for loader in loaders
    ],
)
def test_every_span_and_triple_error_names_its_line(tmp_path, loader, row, message):
    path = tmp_path / "records.jsonl"
    good = _with_triples({"head": "Q220", "pid": "P1", "tail": "Q90"})
    path.write_text(json.dumps(good) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(RecordError) as raised:
        loader(str(path))
    assert str(raised.value) == f"{path}:2: {message}"


def _load_records(path: str) -> list[dict]:
    return unique_records(path, read_jsonl(path))


ID_LOADERS = (load_input_sentences, load_dataset, load_predictions, _load_instances, _load_records)


@pytest.mark.parametrize(
    "record_id, shown",
    [(None, "None"), (5, "5"), (True, "True"), ({"a": 1}, "{'a': 1}")],
    ids=["null", "int", "bool", "object"],
)
@pytest.mark.parametrize("loader", ID_LOADERS, ids=lambda loader: loader.__name__.strip("_"))
def test_a_record_id_must_be_a_string(tmp_path, loader, record_id, shown):
    # One row that every loader accepts, then the same row with a bad id.
    path = tmp_path / "records.jsonl"
    good = {"id": "ok", "text": TEXT, "spans": [], "output": ""}
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, id=record_id)) + "\n")
    with pytest.raises(RecordError) as raised:
        loader(str(path))
    assert str(raised.value) == f"{path}:2: id must be str, got {shown}"


def test_valid_spans_load_the_same_through_both_loaders(tmp_path):
    # An input record's date span becomes a year link; a dataset record
    # carries the link as written. Both give the same sentence.
    text = "Rome fell in 476 long ago."
    date = {"start": 13, "end": 16, "surface": "476", "date": "476"}
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps({"id": "r", "text": text, "spans": [date, ROME]}) + "\n")
    (sentence,) = load_input_sentences(str(path))
    assert sentence == LinkedSentence(
        text=text,
        spans=(MentionSpan(0, 4, "Rome", "Q220"), MentionSpan(13, 16, "476", "476")),
        id="r",
    )
    write_jsonl(str(path), [dataset_record(sentence, [Triple("Q220", "P1", "476")])])
    ((loaded, triples),) = load_dataset(str(path))
    assert loaded == sentence and triples == [Triple("Q220", "P1", "476")]
