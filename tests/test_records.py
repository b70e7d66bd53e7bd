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
    sentence_from_input_record,
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


def test_input_spans_are_sorted_by_offset():
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
    ],
    ids=[
        "text", "start", "end", "surface", "link", "offsets", "span", "dataset-text",
        "dataset-start", "dataset-surface", "dataset-link", "dataset-head", "dataset-pid",
        "dataset-tail", "output-null", "output-int",
    ],
)
def test_wrong_typed_field_is_a_record_error_with_its_line(tmp_path, loader, row, message):
    path = tmp_path / "records.jsonl"
    valid = {"id": "ok", "text": "x", "output": ""}
    path.write_text(json.dumps(valid) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(RecordError) as raised:
        loader(str(path))
    assert str(raised.value) == f"{path}:2: {message}"
