"""In-memory knowledge-base store: entity/relation resolution and pair lookup.

The store is four plain string maps (qid <-> title, pid <-> label) and an
index of triples by directed (head, tail) pair, so that distant supervision
can ask "which relations hold between these two entities?" in O(1). The
index stores only its pairs: pairs with equal pid sets share one
``frozenset``, which must therefore never be mutated, and the keys reuse
the entity map's own qid strings, so a pair costs its dict slot and key
tuple. A caller that only resolves ids and labels (``filter``, ``targets``,
``build-trie`` and ``score``) loads the store without its triples: then it
holds the four maps alone, and a pair question raises :class:`KbError`
rather than answer empty. ``negatives``, ``split`` and ``decode`` load no
KB at all: ``decode`` reads its tries from the caches ``build-trie``
writes.

A triple's tail value is an entity qid or a year literal, kept as a raw
string because dates carry no entity id of their own. The year literals,
"1".."2100" (:func:`year_labels`), are defined here alone: the KB, date
mapping and the tail trie admit exactly these, so every KB year can be
generated. A qid may never read as a year. :meth:`KbStore.value_label`
and its inverse :meth:`KbStore.resolve_value` are the one place that
rule is applied: a value's label is the entity title, or the year
itself. Titles and relation labels survive the linearized language
(:func:`is_label`).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .tokenizers import SPECIAL_TOKENS

_RESERVED_RE = re.compile("|".join(map(re.escape, SPECIAL_TOKENS)))
_NOT_A_LABEL = "holds a reserved symbol or leading or trailing whitespace"

# (line number, fields) rows of one KB file, or of in-memory records.
_Rows = Iterable[tuple[int, Sequence[str]]]


# Each year literal keyed by itself, ascending. Stores share its strings: never mutate it.
_YEARS = {year: year for year in map(str, range(1, 2101))}


def year_labels() -> list[str]:
    """The year literals "1".."2100", ascending: the years a triple tail
    may hold, and the labels of the tail trie."""
    return list(_YEARS)


def is_year_literal(value: str) -> bool:
    """True if the string is one of :func:`year_labels`."""
    return value in _YEARS


def is_label(text: str) -> bool:
    """True if the text may be a title or relation label: it holds no
    reserved symbol and has no leading or trailing whitespace."""
    return text == text.strip() and _RESERVED_RE.search(text) is None


class KbError(Exception):
    pass


class KbLoadError(KbError):
    """Malformed input line; message carries file path and line number."""


class KbIntegrityError(KbError):
    """Duplicate identifier, year-like qid or dangling reference in the
    loaded data."""


class Triple(NamedTuple):
    """A resolved triple: head entity id, relation id, tail id or year.

    A tuple, so it equals and orders like ``(head, relation, tail)``.
    """

    head: str
    relation: str
    tail: str


class KbStore:
    """Immutable-after-load store with bijective qid/title lookup.

    Construction is single-threaded (via :func:`load_kb` or
    :meth:`from_records`); afterwards the store is safe for concurrent
    readers.
    """

    def __init__(self) -> None:
        self._title_of: dict[str, str] = {}
        self._qid_of: dict[str, str] = {}
        self._label_of: dict[str, str] = {}
        self._pid_of: dict[str, str] = {}
        # Frozen sets, so relations_between can hand them out uncopied. Pairs
        # with equal pid sets share one set object, so none may ever be
        # mutated; keys reuse the entity map's qid strings. None for a store
        # loaded without its triples.
        self._pairs: dict[tuple[str, str], frozenset[str]] | None = {}

    # -- construction ------------------------------------------------------
    #
    # ``source`` names the file in error messages; None for in-memory records.

    def _add_entities(self, rows: _Rows, source: str | None) -> None:
        title_of, qid_of = self._title_of, self._qid_of
        for lineno, (qid, title) in rows:
            if not qid or not title:
                problem = f"entity with empty qid or title: {(qid, title)!r}"
            elif is_year_literal(qid):
                problem = f"entity qid {qid!r} reads as a year literal"
            elif not is_label(title):
                problem = f"entity title {title!r} {_NOT_A_LABEL}"
            elif qid in title_of:
                problem = f"duplicate entity qid {qid!r}"
            elif title in qid_of:
                problem = f"duplicate entity title {title!r}"
            else:
                title_of[qid] = title
                qid_of[title] = qid
                continue
            raise KbIntegrityError(_located(source, lineno, problem))

    def _add_relations(self, rows: _Rows, source: str | None) -> None:
        label_of, pid_of = self._label_of, self._pid_of
        # The description column is required in the file but not kept.
        for lineno, (pid, label, _description) in rows:
            if not pid or not label:
                problem = f"relation with empty pid or label: {(pid, label)!r}"
            elif not is_label(label):
                problem = f"relation label {label!r} {_NOT_A_LABEL}"
            elif pid in label_of:
                problem = f"duplicate relation pid {pid!r}"
            elif label in pid_of:
                problem = f"duplicate relation label {label!r}"
            else:
                label_of[pid] = label
                pid_of[label] = pid
                continue
            raise KbIntegrityError(_located(source, lineno, problem))

    def _add_triples(self, rows: _Rows, source: str | None) -> None:
        title_of, qid_of, pairs = self._title_of, self._qid_of, self._pairs
        label_of, pid_of = self._label_of, self._pid_of
        # One frozenset per distinct pid set, shared by every pair that has it.
        singles: dict[str, frozenset[str]] = {}
        shared: dict[frozenset[str], frozenset[str]] = {}
        for lineno, (head, pid, tail) in rows:
            if head not in title_of:
                problem = f"triple head {head!r} is not a known entity"
            elif pid not in label_of:
                problem = f"triple relation {pid!r} is not a known relation"
            elif self.value_label(tail) is None:
                problem = f"triple tail {tail!r} is neither a known entity nor a year literal"
            else:
                # The store's own strings, not the row's: the entity map's
                # qids, the relation map's pids and the year set's strings.
                tail_title = title_of.get(tail)
                tail = _YEARS[tail] if tail_title is None else qid_of[tail_title]
                key = (qid_of[title_of[head]], tail)
                single = singles.get(pid)
                if single is None:
                    single = singles[pid] = frozenset((pid_of[label_of[pid]],))
                pids = pairs.get(key)
                if pids is None:
                    pairs[key] = single
                elif pid not in pids:
                    union = pids | single
                    pairs[key] = shared.setdefault(union, union)
                continue
            raise KbIntegrityError(_located(source, lineno, problem))

    @classmethod
    def from_records(
        cls,
        entities: Iterable[tuple[str, str]],
        relations: Iterable[tuple[str, str, str]],
        triples: Iterable[tuple[str, str, str]],
    ) -> "KbStore":
        """Build a store from already-parsed tuples (mainly for tests)."""
        store = cls()
        store._add_entities(enumerate(entities, start=1), None)
        store._add_relations(enumerate(relations, start=1), None)
        store._add_triples(enumerate(triples, start=1), None)
        return store

    # -- lookups -----------------------------------------------------------

    def resolve_title(self, title: str) -> str | None:
        """Entity title -> qid, or None when the title is unknown."""
        return self._qid_of.get(title)

    def entity_label(self, qid: str) -> str | None:
        """Entity qid -> title, or None when the qid is unknown."""
        return self._title_of.get(qid)

    def relation_label(self, pid: str) -> str | None:
        return self._label_of.get(pid)

    def resolve_relation_label(self, label: str) -> str | None:
        return self._pid_of.get(label)

    def value_label(self, value: str) -> str | None:
        """Triple value -> label: an entity's title, or a year literal as
        it is; None for anything else."""
        title = self._title_of.get(value)
        if title is not None:
            return title
        return value if is_year_literal(value) else None

    def resolve_value(self, label: str) -> str | None:
        """Inverse of :meth:`value_label`: a title's qid first (a title may
        read as a year), then the year literal itself; else None."""
        qid = self._qid_of.get(label)
        if qid is not None:
            return qid
        return label if is_year_literal(label) else None

    def relations_between(self, head: str, tail: str) -> frozenset[str]:
        """Pids of stored triples with exactly this directed (head, tail).

        Total: unknown ids simply yield the empty set. A store loaded
        without its triples raises :class:`KbError`.
        """
        if self._pairs is None:
            raise _without_triples("relations_between")
        return self._pairs.get((head, tail), frozenset())

    def entity_titles(self) -> Iterator[str]:
        return iter(self._qid_of)

    def relation_labels(self) -> Iterator[str]:
        return iter(self._pid_of)

    @property
    def num_entities(self) -> int:
        return len(self._title_of)

    @property
    def num_relations(self) -> int:
        return len(self._label_of)

    @property
    def num_pairs(self) -> int:
        if self._pairs is None:
            raise _without_triples("num_pairs")
        return len(self._pairs)

    @property
    def num_triples(self) -> int:
        if self._pairs is None:
            raise _without_triples("num_triples")
        return sum(map(len, self._pairs.values()))


def _without_triples(asked: str) -> KbError:
    return KbError(f"cannot answer {asked}: the KB was loaded without its triples")


def _located(source: str | None, lineno: int, problem: str) -> str:
    return problem if source is None else f"{source}:{lineno}: {problem}"


def _read_tsv(path: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of each non-blank line, in one pass.

    The file is read with universal newlines, so a CRLF ending is gone
    before the line is split.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != n_fields:
                raise KbLoadError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}"
                )
            yield lineno, fields


def load_kb(
    entities_path: str, relations_path: str, triples_path: str | None = None
) -> KbStore:
    """Load a store from the TSV files; the triples file only when given.

    entities: ``qid<TAB>title``; relations: ``pid<TAB>label<TAB>description``
    (the description is required but not kept); triples:
    ``head_qid<TAB>pid<TAB>tail_value``. Duplicate triples are deduplicated
    silently; duplicate qids/titles/pids, a qid that reads as a year, a
    title or relation label that is not :func:`is_label` and dangling
    triple references raise :class:`KbIntegrityError` with the offending
    location.

    With ``triples_path`` None the triples file is neither opened nor
    checked: the store resolves entities, relations and values as usual,
    but :meth:`KbStore.relations_between`, ``num_pairs`` and
    ``num_triples`` raise :class:`KbError`.
    """
    store = KbStore()
    store._add_entities(_read_tsv(entities_path, 2), entities_path)
    store._add_relations(_read_tsv(relations_path, 3), relations_path)
    if triples_path is None:
        store._pairs = None
    else:
        store._add_triples(_read_tsv(triples_path, 3), triples_path)
    return store
