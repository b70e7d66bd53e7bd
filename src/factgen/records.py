"""JSON Lines record schemas shared by the pipeline stages and the CLI.

Input sentences arrive as ``{"id", "text", "spans": [...], "url_domain"}``
where each span has offsets, a surface, and either a ``link`` (entity id)
or a ``date`` (surface form mapped to a year at ingestion). Dataset records
add resolved triples and the negative flag; training-instance records carry
one target or the two-headed pair; prediction records carry the generated
linearized string.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping

from .kb import Triple
from .linearize import (
    DualTargetInstance,
    LinkedSentence,
    MentionSpan,
    TrainingInstance,
)
from .pipeline import map_date_to_year


class RecordError(Exception):
    """Malformed record; message carries file path and line number."""


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if not isinstance(row, dict):
                raise RecordError(f"{path}:{lineno}: record is not an object")
            yield lineno, row


def write_jsonl(path: str, rows: Iterable[Mapping]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
            count += 1
    return count


def _span_from_input(raw: Mapping, context: str) -> MentionSpan:
    try:
        start, end, surface = raw["start"], raw["end"], raw["surface"]
    except KeyError as exc:
        raise RecordError(f"{context}: span lacks {exc}") from None
    link = raw.get("link")
    if link is None and "date" in raw:
        link = map_date_to_year(str(raw["date"]))
    return MentionSpan(start=start, end=end, surface=surface, link=link)


def sentence_from_input_record(row: Mapping, context: str = "<record>") -> LinkedSentence:
    try:
        text = row["text"]
        sid = str(row["id"])
    except KeyError as exc:
        raise RecordError(f"{context}: record lacks {exc}") from None
    spans = sorted(
        (_span_from_input(s, context) for s in row.get("spans", ())),
        key=lambda s: s.start,
    )
    try:
        return LinkedSentence(
            text=text,
            spans=tuple(spans),
            source_url_domain=row.get("url_domain"),
            id=sid,
        )
    except ValueError as exc:
        raise RecordError(f"{context}: {exc}") from None


def load_input_sentences(path: str) -> list[LinkedSentence]:
    return [
        sentence_from_input_record(row, f"{path}:{lineno}")
        for lineno, row in read_jsonl(path)
    ]


def dataset_record(sentence: LinkedSentence, triples: Iterable[Triple]) -> dict:
    triples = list(triples)
    return {
        "id": sentence.id,
        "text": sentence.text,
        "spans": [
            {"start": s.start, "end": s.end, "surface": s.surface, "link": s.link}
            for s in sentence.spans
        ],
        "triples": [
            {"head": t.head, "pid": t.relation, "tail": t.tail} for t in triples
        ],
        "is_negative": not triples,
    }


def parse_dataset_record(
    row: Mapping, context: str = "<record>"
) -> tuple[LinkedSentence, list[Triple]]:
    try:
        spans = tuple(
            MentionSpan(
                start=s["start"], end=s["end"], surface=s["surface"], link=s.get("link")
            )
            for s in row.get("spans", ())
        )
        sentence = LinkedSentence(
            text=row["text"],
            spans=spans,
            is_negative=bool(row.get("is_negative", False)),
            id=str(row["id"]),
        )
        triples = [
            Triple(t["head"], t["pid"], t["tail"]) for t in row.get("triples", ())
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise RecordError(f"{context}: {exc}") from None
    return sentence, triples


def load_dataset(path: str) -> list[tuple[LinkedSentence, list[Triple]]]:
    return [
        parse_dataset_record(row, f"{path}:{lineno}")
        for lineno, row in read_jsonl(path)
    ]


def instance_record(instance_id: str, instance: TrainingInstance | DualTargetInstance) -> dict:
    if isinstance(instance, DualTargetInstance):
        return {
            "id": instance_id,
            "input": instance.input,
            "target_ie": instance.target_ie,
            "target_el": instance.target_el,
        }
    return {"id": instance_id, "input": instance.input, "target": instance.target}


def prediction_record(instance_id: str, output: str) -> dict:
    return {"id": instance_id, "output": output}


def load_gold(path: str) -> dict[str, list[Triple]]:
    """Gold triples by dataset record id; a repeated id is an error."""
    gold: dict[str, list[Triple]] = {}
    for lineno, row in read_jsonl(path):
        sentence, triples = parse_dataset_record(row, f"{path}:{lineno}")
        if sentence.id in gold:
            raise RecordError(f"{path}:{lineno}: duplicate id {sentence.id!r}")
        gold[sentence.id] = triples
    return gold


def load_predictions(path: str) -> dict[str, str]:
    """Prediction outputs by instance id; a repeated id is an error."""
    predictions: dict[str, str] = {}
    for lineno, row in read_jsonl(path):
        try:
            instance_id, output = str(row["id"]), row["output"]
        except KeyError as exc:
            raise RecordError(f"{path}:{lineno}: record lacks {exc}") from None
        if instance_id in predictions:
            raise RecordError(f"{path}:{lineno}: duplicate id {instance_id!r}")
        predictions[instance_id] = output
    return predictions
