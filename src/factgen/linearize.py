"""Linearized triple formats and auxiliary training targets.

A triple set is serialized as one ``<sub> H <rel> R <obj> T <et>`` block per
triple. On top of that this module builds the three auxiliary targets that
pair triple generation with entity linking: the entity-prompt target
(``[ENTITY] span chain [TRIPLE] triples``), the artificial-prompt instance
pair (``<#el#>`` / ``<#tri#>`` input prefixes), and the dual-target instance
for a two-headed decoder.

All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .kb import KbStore, Triple, is_year_literal

SUB_TOKEN = "<sub>"
REL_TOKEN = "<rel>"
OBJ_TOKEN = "<obj>"
END_TRIPLE_TOKEN = "<et>"
ENTITY_MARKER = "[ENTITY]"
TRIPLE_MARKER = "[TRIPLE]"
EL_PROMPT = "<#el#>"
IE_PROMPT = "<#tri#>"

_BLOCK_TOKENS = (SUB_TOKEN, REL_TOKEN, OBJ_TOKEN, END_TRIPLE_TOKEN)
_BLOCK_SPLIT_RE = re.compile("(" + "|".join(re.escape(t) for t in _BLOCK_TOKENS) + ")")


class LinearizeError(Exception):
    pass


@dataclass(frozen=True)
class MentionSpan:
    """A mention in a sentence, optionally linked to an entity or year.

    ``link`` is an entity qid, a bare year literal, or None for unlinked
    mentions.
    """

    start: int
    end: int
    surface: str
    link: str | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")

    @property
    def is_linked(self) -> bool:
        return self.link is not None

    @property
    def is_year(self) -> bool:
        return self.link is not None and is_year_literal(self.link)


@dataclass(frozen=True)
class LinkedSentence:
    """A sentence with its entity-linked mention spans.

    Spans must be sorted by start offset, lie within the text, not overlap,
    and their surfaces must match the text slice.
    """

    text: str
    spans: tuple[MentionSpan, ...] = ()
    source_url_domain: str | None = None
    is_negative: bool = False
    id: str | None = None

    def __post_init__(self) -> None:
        prev_end = 0
        for span in self.spans:
            if span.start < prev_end:
                raise ValueError(
                    f"span [{span.start}, {span.end}) overlaps or is out of order"
                )
            if span.end > len(self.text):
                raise ValueError(f"span [{span.start}, {span.end}) outside text")
            if self.text[span.start : span.end] != span.surface:
                raise ValueError(
                    f"span surface {span.surface!r} does not match text slice "
                    f"{self.text[span.start:span.end]!r}"
                )
            prev_end = span.end

    def linked_spans(self) -> tuple[MentionSpan, ...]:
        return tuple(s for s in self.spans if s.is_linked)


@dataclass(frozen=True)
class RawTriple:
    """Label-level triple, e.g. parsed back from generated text."""

    head_label: str
    relation_label: str
    tail_label: str

    def __post_init__(self) -> None:
        if not (self.head_label and self.relation_label and self.tail_label):
            raise ValueError("RawTriple fields must be non-empty")


@dataclass(frozen=True)
class LinearizedTarget:
    target_text: str
    triple_count: int


@dataclass(frozen=True)
class TrainingInstance:
    input: str
    target: str


@dataclass(frozen=True)
class DualTargetInstance:
    input: str
    target_ie: str
    target_el: str


def _first_offset(sentence: LinkedSentence, link: str) -> int | None:
    for span in sentence.spans:
        if span.link == link:
            return span.start
    return None


def order_triples(triples: Sequence[Triple], sentence: LinkedSentence) -> list[Triple]:
    """Order triples by appearance in the sentence.

    Primary key is the first span offset of the head, secondary the first
    span offset of the tail. Triples sharing both offsets (same entity pair,
    different relations) are ordered by relation id so the result is a total
    order independent of input permutation.
    """
    keyed = []
    for triple in triples:
        head_off = _first_offset(sentence, triple.head)
        if head_off is None:
            raise LinearizeError(f"head of {triple} has no linked span in sentence")
        tail_off = _first_offset(sentence, triple.tail)
        if tail_off is None:
            raise LinearizeError(f"tail of {triple} has no linked span in sentence")
        keyed.append(((head_off, tail_off, triple.relation), triple))
    keyed.sort(key=lambda item: item[0])
    return [triple for _, triple in keyed]


def linearize_labels(triples: Iterable[RawTriple]) -> str:
    """Serialize label-level triples into the delimiter format."""
    blocks = [
        f"{SUB_TOKEN} {t.head_label} {REL_TOKEN} {t.relation_label} "
        f"{OBJ_TOKEN} {t.tail_label} {END_TRIPLE_TOKEN}"
        for t in triples
    ]
    return " ".join(blocks)


def linearize(ordered: Sequence[Triple], kb: KbStore) -> LinearizedTarget:
    """Serialize resolved triples; an empty list yields the empty string.

    Heads and relations must resolve in the store; tails may also be year
    literals, which pass through verbatim (:meth:`KbStore.value_label`).
    """
    raws = []
    for triple in ordered:
        head = kb.entity_label(triple.head)
        if head is None:
            raise LinearizeError(f"cannot resolve head {triple.head!r}")
        relation = kb.relation_label(triple.relation)
        if relation is None:
            raise LinearizeError(f"cannot resolve relation {triple.relation!r}")
        tail = kb.value_label(triple.tail)
        if tail is None:
            raise LinearizeError(f"cannot resolve tail {triple.tail!r}")
        raws.append(RawTriple(head, relation, tail))
    return LinearizedTarget(linearize_labels(raws), len(raws))


def parse_linearized(text: str) -> list[RawTriple]:
    """Parse generated text into label triples; total and lossy by design.

    The text is scanned left to right for complete
    ``<sub> H <rel> R <obj> T <et>`` blocks; fields are whitespace-trimmed.
    Blocks left incomplete (including a truncated trailing block), blocks
    with an empty field, and stray text outside blocks are dropped. A
    delimiter arriving out of order abandons the current partial block
    (``<sub>`` starts a fresh one). Duplicate triples are preserved.
    """
    triples: list[RawTriple] = []
    expected = 0  # index into _BLOCK_TOKENS of the next delimiter
    fields: list[str] = []
    buffer: list[str] = []
    for part in _BLOCK_SPLIT_RE.split(text):
        if part not in _BLOCK_TOKENS:
            if expected > 0:
                buffer.append(part)
            continue
        if part == _BLOCK_TOKENS[expected]:
            if expected > 0:
                fields.append("".join(buffer).strip())
            buffer = []
            if part == END_TRIPLE_TOKEN:
                if all(fields):
                    triples.append(RawTriple(*fields))
                fields = []
                expected = 0
            else:
                expected += 1
        else:
            # Out-of-order delimiter: drop the partial block.
            fields = []
            buffer = []
            expected = 1 if part == SUB_TOKEN else 0
    return triples


def entity_linking_chain(
    sentence: LinkedSentence, ordered: Sequence[Triple], kb: KbStore
) -> str:
    """The ``Span # Label | Span # Label`` chain, in span order.

    Only spans whose link appears as the head or tail of some triple
    contribute; each qualifying span occurrence is emitted once per offset.
    """
    contributing = {t.head for t in ordered} | {t.tail for t in ordered}
    parts = []
    for span in sentence.spans:
        if span.link is None or span.link not in contributing:
            continue
        label = kb.value_label(span.link)
        if label is None:
            raise LinearizeError(f"cannot resolve span link {span.link!r}")
        parts.append(f"{span.surface} # {label}")
    return " | ".join(parts)


def build_entity_prompt_target(
    sentence: LinkedSentence, ordered: Sequence[Triple], kb: KbStore
) -> LinearizedTarget:
    """Entity-prompt target: EL chain then triples, behind start markers."""
    linearized = linearize(ordered, kb)
    chain = entity_linking_chain(sentence, ordered, kb)
    text = ENTITY_MARKER
    if chain:
        text += " " + chain
    text += " " + TRIPLE_MARKER
    if linearized.target_text:
        text += " " + linearized.target_text
    return LinearizedTarget(text, linearized.triple_count)


def build_artificial_prompt_instances(
    sentence: LinkedSentence, el_target: str, triple_target: str
) -> tuple[TrainingInstance, TrainingInstance]:
    """One instance per task, distinguished by the input prefix token."""
    return (
        TrainingInstance(f"{EL_PROMPT} {sentence.text}", el_target),
        TrainingInstance(f"{IE_PROMPT} {sentence.text}", triple_target),
    )


def build_dual_target_instance(
    sentence: LinkedSentence, el_target: str, triple_target: str
) -> DualTargetInstance:
    """Single input with separate targets for the two decoder heads."""
    return DualTargetInstance(sentence.text, target_ie=triple_target, target_el=el_target)


def combine_losses(l_ie: float, l_el: float, alpha: float) -> float:
    """Weighted sum ``alpha * l_ie + (1 - alpha) * l_el``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * l_ie + (1.0 - alpha) * l_el
