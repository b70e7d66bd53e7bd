"""Linearized triple formats and auxiliary training targets.

A triple set is serialized as one ``<sub> H <rel> R <obj> T <et>`` block per
triple. On top of that this module builds the three auxiliary targets that
pair triple generation with entity linking: the entity-prompt target
(``[ENTITY] span chain [TRIPLE] triples``), the artificial-prompt instance
pair (``<#el#>`` / ``<#tri#>`` input prefixes), and the dual-target instance
for a two-headed decoder. Targets are strings and instances are the rows
``targets`` writes.

All operations are pure functions over immutable inputs. The value types
are tuples (``typing.NamedTuple``): calling ``MentionSpan``,
``LinkedSentence`` or ``RawTriple`` checks the fields, while ``_make`` and
``_replace`` skip the check.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .kb import KbStore, Triple
from .tokenizers import (
    EL_PROMPT,
    END_TRIPLE_TOKEN,
    ENTITY_MARKER,
    IE_PROMPT,
    OBJ_TOKEN,
    REL_TOKEN,
    SUB_TOKEN,
    TRIPLE_MARKER,
)

_BLOCK_TOKENS = (SUB_TOKEN, REL_TOKEN, OBJ_TOKEN, END_TRIPLE_TOKEN)
# One field: any run of text that holds none of the four delimiters.
_FIELD = "((?:(?!" + "|".join(re.escape(t) for t in _BLOCK_TOKENS) + ").)*)"
_BLOCK_RE = re.compile(_FIELD.join(re.escape(t) for t in _BLOCK_TOKENS), re.DOTALL)


class LinearizeError(Exception):
    pass


class _MentionSpan(NamedTuple):
    start: int
    end: int
    surface: str
    link: str | None = None


class MentionSpan(_MentionSpan):
    """A mention in a sentence, optionally linked to an entity or year.

    ``link`` is an entity qid, a bare year literal, or None for unlinked
    mentions.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, surface: str, link: str | None = None):
        if start < 0 or end <= start:
            raise ValueError(f"bad span offsets [{start}, {end})")
        return tuple.__new__(cls, (start, end, surface, link))


class _LinkedSentence(NamedTuple):
    text: str
    spans: tuple[MentionSpan, ...] = ()
    id: str | None = None


class LinkedSentence(_LinkedSentence):
    """A sentence with its entity-linked mention spans.

    Spans must be sorted by start offset, lie within the text, not overlap,
    and their surfaces must match the text slice.
    """

    __slots__ = ()

    def __new__(cls, text: str, spans: tuple[MentionSpan, ...] = (), id: str | None = None):
        prev_end = 0
        for start, end, surface, _ in spans:
            if start < prev_end:
                raise ValueError(f"span [{start}, {end}) overlaps or is out of order")
            if end > len(text):
                raise ValueError(f"span [{start}, {end}) outside text")
            if text[start:end] != surface:
                raise ValueError(
                    f"span surface {surface!r} does not match text slice {text[start:end]!r}"
                )
            prev_end = end
        return tuple.__new__(cls, (text, spans, id))

    def linked_spans(self) -> tuple[MentionSpan, ...]:
        return tuple([s for s in self.spans if s.link is not None])


class _RawTriple(NamedTuple):
    head_label: str
    relation_label: str
    tail_label: str


class RawTriple(_RawTriple):
    """Label-level triple, e.g. parsed back from generated text."""

    __slots__ = ()

    def __new__(cls, head_label: str, relation_label: str, tail_label: str):
        if not (head_label and relation_label and tail_label):
            raise ValueError("RawTriple fields must be non-empty")
        return tuple.__new__(cls, (head_label, relation_label, tail_label))


def order_triples(triples: Sequence[Triple], sentence: LinkedSentence) -> list[Triple]:
    """Order triples by appearance in the sentence.

    Primary key is the first span offset of the head, secondary the first
    span offset of the tail. Triples sharing both offsets (same entity pair,
    different relations) are ordered by relation id so the result is a total
    order independent of input permutation.
    """
    # Reversed, so that the first span of each link writes its offset last.
    first = {span.link: span.start for span in reversed(sentence.spans)}

    def key(triple: Triple) -> tuple[int, int, str]:
        head_off = first.get(triple.head)
        if head_off is None:
            raise LinearizeError(f"head of {triple} has no linked span in sentence")
        tail_off = first.get(triple.tail)
        if tail_off is None:
            raise LinearizeError(f"tail of {triple} has no linked span in sentence")
        return head_off, tail_off, triple.relation

    return sorted(triples, key=key)


def linearize_labels(triples: Iterable[RawTriple]) -> str:
    """Serialize label-level triples into the delimiter format."""
    blocks = [
        f"{SUB_TOKEN} {t.head_label} {REL_TOKEN} {t.relation_label} "
        f"{OBJ_TOKEN} {t.tail_label} {END_TRIPLE_TOKEN}"
        for t in triples
    ]
    return " ".join(blocks)


def linearize(ordered: Sequence[Triple], kb: KbStore) -> str:
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
    return linearize_labels(raws)


def parse_linearized(text: str) -> list[RawTriple]:
    """Parse generated text into label triples; total and lossy by design.

    The text is scanned left to right for complete
    ``<sub> H <rel> R <obj> T <et>`` blocks whose fields hold none of the
    four delimiters; fields are whitespace-trimmed. Blocks left incomplete
    (including a truncated trailing block), blocks with an empty field, and
    stray text outside blocks are dropped. A delimiter arriving out of order
    abandons the current partial block (``<sub>`` starts a fresh one).
    Duplicate triples are preserved.
    """
    triples = []
    for match in _BLOCK_RE.finditer(text):
        fields = [field.strip() for field in match.groups()]
        if all(fields):
            triples.append(RawTriple._make(fields))
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
) -> str:
    """Entity-prompt target: EL chain then triples, behind start markers."""
    linearized = linearize(ordered, kb)
    chain = entity_linking_chain(sentence, ordered, kb)
    text = ENTITY_MARKER
    if chain:
        text += " " + chain
    text += " " + TRIPLE_MARKER
    if linearized:
        text += " " + linearized
    return text


def build_artificial_prompt_instances(
    sentence: LinkedSentence, el_target: str, triple_target: str
) -> list[dict]:
    """One instance per task, distinguished by the input prefix token and by
    ``#el``/``#tri`` after the sentence id."""
    sid, text = sentence.id, sentence.text
    return [
        {"id": f"{sid}#el", "input": f"{EL_PROMPT} {text}", "target": el_target},
        {"id": f"{sid}#tri", "input": f"{IE_PROMPT} {text}", "target": triple_target},
    ]


def build_dual_target_instance(
    sentence: LinkedSentence, el_target: str, triple_target: str
) -> dict:
    """Single input with separate targets for the two decoder heads."""
    return {
        "id": sentence.id,
        "input": sentence.text,
        "target_ie": triple_target,
        "target_el": el_target,
    }


def combine_losses(l_ie: float, l_el: float, alpha: float) -> float:
    """Weighted sum ``alpha * l_ie + (1 - alpha) * l_el``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * l_ie + (1.0 - alpha) * l_el
