"""In-memory knowledge-base store: entity/relation resolution and pair lookup.

The store is four plain string maps (qid <-> title, pid <-> label) and an
index of triples by directed (head, tail) pair, so that distant supervision
can ask "which relations hold between these two entities?" in O(1).

A triple's tail value is an entity qid or a bare year literal; year literals
are kept as raw strings because dates carry no entity id of their own. A qid
may therefore never read as a year. :meth:`KbStore.value_label` and its
inverse :meth:`KbStore.resolve_value` are the one place that rule is
applied: a value's label is the entity title, or the year itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

YEAR_RE = re.compile(r"^[0-9]{1,4}$")


def is_year_literal(value: str) -> bool:
    """True if the string is a bare 1-4 digit year."""
    return bool(YEAR_RE.match(value))


class KbError(Exception):
    pass


class KbLoadError(KbError):
    """Malformed input line; message carries file path and line number."""


class KbIntegrityError(KbError):
    """Duplicate identifier, year-like qid or dangling reference in the
    loaded data."""


@dataclass(frozen=True, order=True)
class Triple:
    """A resolved triple: head entity id, relation id, tail id or year."""

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
        self._pairs: dict[tuple[str, str], set[str]] = {}

    # -- construction ------------------------------------------------------

    def _add_entity(self, qid: str, title: str) -> None:
        if not qid or not title:
            raise KbIntegrityError(f"entity with empty qid or title: {(qid, title)!r}")
        if is_year_literal(qid):
            raise KbIntegrityError(f"entity qid {qid!r} reads as a year literal")
        if qid in self._title_of:
            raise KbIntegrityError(f"duplicate entity qid {qid!r}")
        if title in self._qid_of:
            raise KbIntegrityError(f"duplicate entity title {title!r}")
        self._title_of[qid] = title
        self._qid_of[title] = qid

    def _add_relation(self, pid: str, label: str, _description: str) -> None:
        # The description column is required in the file but not kept.
        if not pid or not label:
            raise KbIntegrityError(f"relation with empty pid or label: {(pid, label)!r}")
        if pid in self._label_of:
            raise KbIntegrityError(f"duplicate relation pid {pid!r}")
        if label in self._pid_of:
            raise KbIntegrityError(f"duplicate relation label {label!r}")
        self._label_of[pid] = label
        self._pid_of[label] = pid

    def _add_triple(self, head: str, pid: str, tail: str) -> None:
        if head not in self._title_of:
            raise KbIntegrityError(f"triple head {head!r} is not a known entity")
        if pid not in self._label_of:
            raise KbIntegrityError(f"triple relation {pid!r} is not a known relation")
        if self.value_label(tail) is None:
            raise KbIntegrityError(
                f"triple tail {tail!r} is neither a known entity nor a year literal"
            )
        self._pairs.setdefault((head, tail), set()).add(pid)

    @classmethod
    def from_records(
        cls,
        entities: Iterable[tuple[str, str]],
        relations: Iterable[tuple[str, str, str]],
        triples: Iterable[tuple[str, str, str]],
    ) -> "KbStore":
        """Build a store from already-parsed tuples (mainly for tests)."""
        store = cls()
        for qid, title in entities:
            store._add_entity(qid, title)
        for pid, label, description in relations:
            store._add_relation(pid, label, description)
        for head, pid, tail in triples:
            store._add_triple(head, pid, tail)
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

    def relations_between(self, head: str, tail: str) -> set[str]:
        """Pids of stored triples with exactly this directed (head, tail).

        Total: unknown ids simply yield the empty set.
        """
        return set(self._pairs.get((head, tail), ()))

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
        return len(self._pairs)

    @property
    def num_triples(self) -> int:
        return sum(map(len, self._pairs.values()))


def _read_tsv(path: str, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise KbLoadError(
                    f"{path}:{lineno}: expected {n_fields} tab-separated fields, "
                    f"got {len(fields)}"
                )
            yield lineno, fields


def load_kb(entities_path: str, relations_path: str, triples_path: str) -> KbStore:
    """Load a store from the three TSV files.

    entities: ``qid<TAB>title``; relations: ``pid<TAB>label<TAB>description``
    (the description is required but not kept); triples:
    ``head_qid<TAB>pid<TAB>tail_value``. Duplicate triples are deduplicated
    silently; duplicate qids/titles/pids, a qid that reads as a year and
    dangling triple references raise :class:`KbIntegrityError` with the
    offending location.
    """
    store = KbStore()
    for path, n_fields, add in (
        (entities_path, 2, store._add_entity),
        (relations_path, 3, store._add_relation),
        (triples_path, 3, store._add_triple),
    ):
        for lineno, fields in _read_tsv(path, n_fields):
            try:
                add(*fields)
            except KbIntegrityError as exc:
                raise KbIntegrityError(f"{path}:{lineno}: {exc}") from None
    return store
