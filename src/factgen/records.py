"""JSON Lines record schemas shared by the pipeline stages and the CLI.

Every JSONL file enters through :func:`read_jsonl`, and every record field
is parsed here. Input sentences arrive as ``{"id", "text", "spans": [...],
"url_domain"}`` where each span has offsets, a surface, and either a
``link`` (entity id) or a ``date`` (surface form mapped to a year at
ingestion by :func:`map_date_to_year`); ``url_domain`` is accepted and
ignored. Dataset records are input records plus resolved triples and an
``is_negative`` flag written as "no triples" and never read back: the
same parser reads their id, text and spans, sorted by start.
Training-instance records carry one target or the two-headed pair (built in
``factgen.cli.cmd_targets`` for the standard and entity-prompt modes, else
in :mod:`factgen.linearize`); prediction records carry the generated string.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

from .kb import Triple, is_year_literal, read_lines
from .linearize import LinkedSentence, MentionSpan

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October"
    "|November|December"
)
_DATE_PATTERNS = (
    # "October 10, 2018"
    re.compile(rf"^(?:{_MONTHS}) [0-9]{{1,2}}, ([0-9]{{1,4}})$", re.IGNORECASE),
    # "10 October 2018"
    re.compile(rf"^[0-9]{{1,2}} (?:{_MONTHS}) ([0-9]{{1,4}})$", re.IGNORECASE),
    # "2018-10-10"
    re.compile(r"^([0-9]{1,4})-[0-9]{2}-[0-9]{2}$"),
    # bare year
    re.compile(r"^([0-9]{1,4})$"),
)


class RecordError(Exception):
    """Malformed record; message carries file path and line number."""


# A UTF-16 surrogate, which a lone \u escape decodes to.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in read_lines(path, RecordError):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{path}:{lineno}: bad JSON: {exc}") from None
        if not isinstance(row, dict):
            raise RecordError(f"{path}:{lineno}: record is not an object")
        # The line is UTF-8 text, so a surrogate can only come from a \u
        # escape: a lone one, which no UTF-8 output can hold. The one-char
        # test goes first: it is a memchr, the two-char one is ten times slower.
        if "\\" in line and "\\u" in line and _SURROGATE_RE.search(_ROW_ENCODER.encode(row)):
            raise RecordError(f"{path}:{lineno}: not UTF-8 text")
        yield lineno, row


# json.dumps with these options builds a new encoder on every call. Rows
# are trees of fresh dicts and lists, so there is no cycle to look for.
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False)


def write_jsonl(path: str, rows: Iterable[Mapping]) -> int:
    encode = _ROW_ENCODER.encode
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(encode(row) + "\n")
            count += 1
    return count


def map_date_to_year(surface: str) -> str | None:
    """Extract the year from a recognized date surface form, else None.

    Recognized forms: "Month D, YYYY", "D Month YYYY", "YYYY-MM-DD" and a
    bare year of one to four digits. The year comes back in its one
    spelling, without leading zeros: "0012-05-05" gives "12". A year outside
    :func:`factgen.kb.year_labels` ("0000", "3000-01-01") gives None.
    """
    surface = surface.strip()
    for pattern in _DATE_PATTERNS:
        match = pattern.match(surface)
        if match:
            year = str(int(match.group(1)))
            return year if is_year_literal(year) else None
    return None


def _check_type(context: str, field: str, value: object, kind: type) -> None:
    # type(), not isinstance(): JSON true and false are bools, an int subclass.
    if type(value) is not kind:
        name = "an object" if kind is dict else kind.__name__
        raise RecordError(f"{context}: {field} must be {name}, got {value!r}")


def _record_id(row: Mapping, context: str) -> str:
    """The record's id, which must be present and a string."""
    try:
        record_id = row["id"]
    except KeyError:
        raise RecordError(f"{context}: record lacks 'id'") from None
    _check_type(context, "id", record_id, str)
    return record_id


def _load_unique(
    path: str,
    parse: Callable[[Mapping, str], object] | None,
    numbered_rows: Iterable[tuple[int, dict]],
) -> list:
    """``parse(row, "path:line")`` over the ``read_jsonl(path)`` rows given
    (the rows themselves for ``parse`` None), after checking each row's
    string id; a repeated id is an error."""
    seen: set[str] = set()
    items = []
    for lineno, row in numbered_rows:
        context = f"{path}:{lineno}"
        record_id = _record_id(row, context)
        items.append(row if parse is None else parse(row, context))
        if record_id in seen:
            raise RecordError(f"{context}: duplicate id {record_id!r}")
        seen.add(record_id)
    return items


def _span_from_input(raw: Mapping, context: str) -> MentionSpan:
    _check_type(context, "span", raw, dict)
    try:
        start, end, surface = raw["start"], raw["end"], raw["surface"]
    except KeyError as exc:
        raise RecordError(f"{context}: span lacks {exc}") from None
    _check_type(context, "start", start, int)
    _check_type(context, "end", end, int)
    _check_type(context, "surface", surface, str)
    link = raw.get("link")
    if link is None and "date" in raw:
        _check_type(context, "date", raw["date"], str)
        link = map_date_to_year(raw["date"])
    elif link is not None and type(link) is not str:
        raise RecordError(f"{context}: link must be str or null, got {link!r}")
    try:
        return MentionSpan(start, end, surface, link)
    except ValueError as exc:
        raise RecordError(f"{context}: {exc}") from None


def _spans_from_input(row: Mapping, context: str) -> list[MentionSpan]:
    raw = row.get("spans", [])
    _check_type(context, "spans", raw, list)
    return [_span_from_input(s, context) for s in raw]


def sentence_from_input_record(row: Mapping, context: str = "<record>") -> LinkedSentence:
    sid = _record_id(row, context)
    try:
        text = row["text"]
    except KeyError:
        raise RecordError(f"{context}: record lacks 'text'") from None
    _check_type(context, "text", text, str)
    spans = _spans_from_input(row, context)
    spans.sort(key=attrgetter("start"))
    try:
        return LinkedSentence(text, tuple(spans), sid)
    except ValueError as exc:
        raise RecordError(f"{context}: {exc}") from None


def unique_records(path: str, numbered_rows: Iterable[tuple[int, dict]]) -> list[dict]:
    """The records of ``read_jsonl(path)``, of any schema, in file order;
    each needs an id, and a repeated id is an error.

    The caller reads the rows, so a caller that times its own
    ``read_jsonl`` (as ``bench/tracer.py`` does for the CLI) sees the read.
    """
    return _load_unique(path, None, numbered_rows)


def _instance_from_record(row: Mapping, context: str) -> tuple[str, str]:
    for field in ("target", "target_ie"):
        if field in row:
            _check_type(context, field, row[field], str)
    return row["id"], row.get("target", row.get("target_ie", ""))  # _load_unique checked the id


def unique_instances(
    path: str, numbered_rows: Iterable[tuple[int, dict]]
) -> list[tuple[str, str]]:
    """``(id, gold target)`` per training instance, read as in
    :func:`unique_records`; the target is ``target``, else ``target_ie``,
    else empty."""
    return _load_unique(path, _instance_from_record, numbered_rows)


def load_input_sentences(path: str) -> list[LinkedSentence]:
    """Input sentences in file order; a repeated id is an error."""
    return _load_unique(path, sentence_from_input_record, read_jsonl(path))


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


def _triple_from_record(raw: Mapping, context: str) -> Triple:
    _check_type(context, "triple", raw, dict)
    try:
        fields = raw["head"], raw["pid"], raw["tail"]
    except KeyError as exc:
        raise RecordError(f"{context}: triple lacks {exc}") from None
    for name, value in zip(("head", "pid", "tail"), fields):
        _check_type(context, name, value, str)
    return Triple(*fields)


def parse_dataset_record(
    row: Mapping, context: str = "<record>"
) -> tuple[LinkedSentence, list[Triple]]:
    """An input record (:func:`sentence_from_input_record`) plus its triples."""
    sentence = sentence_from_input_record(row, context)
    raw = row.get("triples", [])
    _check_type(context, "triples", raw, list)
    return sentence, [_triple_from_record(t, context) for t in raw]


def load_dataset(path: str) -> list[tuple[LinkedSentence, list[Triple]]]:
    """Dataset records in file order; a repeated id is an error."""
    return _load_unique(path, parse_dataset_record, read_jsonl(path))


def prediction_record(instance_id: str, output: str) -> dict:
    return {"id": instance_id, "output": output}


def load_gold(path: str) -> dict[str, list[Triple]]:
    """Gold triples by dataset record id; a repeated id is an error."""
    return {sentence.id: triples for sentence, triples in load_dataset(path)}


def _prediction_from_record(row: Mapping, context: str) -> tuple[str, str]:
    try:
        output = row["output"]
    except KeyError:
        raise RecordError(f"{context}: record lacks 'output'") from None
    _check_type(context, "output", output, str)
    return row["id"], output  # _load_unique checked the id


def load_predictions(path: str) -> dict[str, str]:
    """Prediction outputs by instance id; a repeated id is an error."""
    return dict(_load_unique(path, _prediction_from_record, read_jsonl(path)))
