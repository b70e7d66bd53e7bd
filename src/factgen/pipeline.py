"""Dataset-construction pipeline over entity-linked sentences.

Stages: distant supervision pairs every two linked mentions and keeps the
relations the KB knows for them; an entailment scorer filters triples the
sentence does not actually express (max score over one or more templated
hypotheses, strict ``> threshold`` comparison); negative examples are
sampled evenly from the two categories of records without triples (at most
one linked mention / several mentions); and the result is split 90/5/5 by
default. Date surfaces arrive already mapped to bare years, by
:mod:`factgen.records` at ingestion.

DS extraction and filtering are pure per-sentence functions; sampling and
splitting are seed-deterministic.
"""

from __future__ import annotations

import logging
import math
import random
from string import Formatter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TypeVar

from .kb import KbStore, Triple, is_year_literal
from .linearize import LinkedSentence, order_triples
from .records import read_jsonl

if TYPE_CHECKING:
    from .scorers import NliScorer

logger = logging.getLogger(__name__)

DEFAULT_ENTAIL_THRESHOLD = 0.7
DEFAULT_SPLIT = (0.90, 0.05, 0.05)
# How far split ratios may sum from 1: room for the rounding of percentages / 100.
SPLIT_SUM_TOLERANCE = 1e-9
MIN_SENTENCE_WORDS = 10
# The (name, format spec, conversion) of each field a template must hold.
_FIELDS = {("head", "", None), ("tail", "", None)}

T = TypeVar("T")


class PipelineError(Exception):
    pass


class TemplateError(PipelineError):
    pass


class SamplingError(PipelineError):
    pass


class SplitError(PipelineError):
    pass


def extract_ds_triples(sentence: LinkedSentence, kb: KbStore) -> list[Triple]:
    """Distant supervision: KB relations over every ordered mention pair.

    Heads must be entity links; tails may be entities or year literals.
    The result is deduplicated and ordered by appearance in the sentence.
    """
    spans = sentence.linked_spans()
    seen: set[Triple] = set()
    triples: list[Triple] = []
    for head_span in spans:
        if is_year_literal(head_span.link):
            continue
        for tail_span in spans:
            if tail_span is head_span:
                continue
            for pid in sorted(kb.relations_between(head_span.link, tail_span.link)):
                triple = Triple(head_span.link, pid, tail_span.link)
                if triple not in seen:
                    seen.add(triple)
                    triples.append(triple)
    return order_triples(triples, sentence)


class HypothesisTemplates:
    """Per-relation hypothesis templates for entailment filtering.

    Templates contain ``{head}`` and ``{tail}`` and no other field (``{{``
    and ``}}`` are literal braces). Relations without a custom template
    fall back to "<head label> <relation label> <tail label>."; a relation
    missing from the KB is an error, with a custom template or without.
    """

    def __init__(self, by_pid: dict[str, list[str]]) -> None:
        for pid, templates in by_pid.items():
            self._check(pid, templates)
        self.by_pid = by_pid

    def __repr__(self) -> str:
        return f"HypothesisTemplates(by_pid={self.by_pid!r})"

    @staticmethod
    def _check(pid: str, templates: list[str]) -> None:
        if type(templates) is not list or any(type(t) is not str for t in templates):
            raise TemplateError(f"templates must be a list of str, got {templates!r}")
        if not templates:
            raise TemplateError(f"relation {pid} has an empty template list")
        for template in templates:
            try:
                fields = {f[1:] for f in Formatter().parse(template) if f[1] is not None}
            except ValueError as exc:
                raise TemplateError(
                    f"template for {pid} does not parse ({exc}): {template!r}"
                ) from None
            if not fields <= _FIELDS:
                raise TemplateError(
                    f"template for {pid} may hold no field but {{head}} and {{tail}}: "
                    f"{template!r}"
                )
            if fields != _FIELDS:
                raise TemplateError(
                    f"template for {pid} must contain {{head}} and {{tail}}: {template!r}"
                )

    @classmethod
    def load(cls, path: str) -> "HypothesisTemplates":
        """Read a JSONL file of ``{"pid": ..., "templates": [...]}`` rows;
        a repeated pid is an error."""
        by_pid: dict[str, list[str]] = {}
        for lineno, row in read_jsonl(path):
            context = f"{path}:{lineno}"
            try:
                pid, templates = row["pid"], row["templates"]
            except KeyError as exc:
                raise TemplateError(f"{context}: template row lacks {exc}") from None
            if type(pid) is not str:
                raise TemplateError(f"{context}: pid must be str, got {pid!r}")
            try:
                cls._check(pid, templates)
            except TemplateError as exc:
                raise TemplateError(f"{context}: {exc}") from None
            if pid in by_pid:
                raise TemplateError(f"{context}: duplicate pid {pid!r}")
            by_pid[pid] = templates
        loaded = cls.__new__(cls)  # every list is checked above, with its line
        loaded.by_pid = by_pid
        return loaded

    def _label(self, kb: KbStore, value: str) -> str:
        label = kb.value_label(value)
        if label is not None:
            return label
        raise TemplateError(f"cannot resolve {value!r} for hypothesis rendering")

    def hypotheses_for(self, triple: Triple, kb: KbStore) -> list[str]:
        head = self._label(kb, triple.head)
        tail = self._label(kb, triple.tail)
        relation = kb.relation_label(triple.relation)
        if relation is None:
            raise TemplateError(f"unknown relation {triple.relation!r}")
        custom = self.by_pid.get(triple.relation)
        if custom:
            return [t.format(head=head, tail=tail) for t in custom]
        return [f"{head} {relation} {tail}."]


class ScoredTriple(NamedTuple):
    triple: Triple
    score: float


def entailment_filter(
    sentences: Sequence[LinkedSentence],
    triples: Sequence[Sequence[Triple]],
    templates: HypothesisTemplates,
    scorer: NliScorer,
    threshold: float,
    kb: KbStore,
) -> list[list[ScoredTriple]]:
    """Keep the triples of each sentence whose best hypothesis it entails.

    ``triples[i]`` are the triples of ``sentences[i]``. Each triple's score
    is the maximum entailment probability over its rendered hypotheses
    (sentence text as premise); triples survive only with score strictly
    above the threshold. Every hypothesis is rendered, once per triple and
    in input order, before one ``scorer.entail_batch`` call scores them
    all. The result holds the kept triples of each sentence, in input
    order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if len(sentences) != len(triples):
        raise ValueError(f"{len(sentences)} sentences but {len(triples)} triple lists")
    rendered = [
        [templates.hypotheses_for(triple, kb) for triple in sentence_triples]
        for sentence_triples in triples
    ]
    pairs = [
        (sentence.text, hypothesis)
        for sentence, per_triple in zip(sentences, rendered)
        for hypotheses in per_triple
        for hypothesis in hypotheses
    ]
    scores = scorer.entail_batch(pairs)
    if len(scores) != len(pairs):
        raise PipelineError(f"scorer gave {len(scores)} scores for {len(pairs)} hypotheses")
    remaining = iter(scores)
    kept = []
    for sentence_triples, per_triple in zip(triples, rendered):
        row = []
        for triple, hypotheses in zip(sentence_triples, per_triple):
            score = max([next(remaining) for _ in hypotheses])
            if score > threshold:
                row.append(ScoredTriple(triple, score))
        kept.append(row)
    return kept


def negative_category(sentence: LinkedSentence, triples: Sequence[Triple]) -> int | None:
    """None for a record with triples; else 1 for at most one linked
    mention and 2 for several."""
    if triples:
        return None
    return 1 if len(sentence.linked_spans()) <= 1 else 2


def sample_negatives(
    records: Sequence[tuple[LinkedSentence, Sequence[Triple]]],
    count: int,
    seed: int,
) -> list[LinkedSentence]:
    """Sample negatives evenly from the two categories, without replacement.

    Only the ``(sentence, triples)`` records without triples are candidates.
    Asks for ``ceil(count / 2)`` category-1 and ``floor(count / 2)``
    category-2 sentences; a short category is backfilled from the other
    (logged). Too few candidates overall is an error stating the shortfall.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return []
    category_one = []
    category_two = []
    for sentence, triples in records:
        category = negative_category(sentence, triples)
        if category == 1:
            category_one.append(sentence)
        elif category == 2:
            category_two.append(sentence)
    total = len(category_one) + len(category_two)
    if total < count:
        raise SamplingError(
            f"requested {count} negatives but only {total} candidates exist "
            f"(category 1: {len(category_one)}, category 2: {len(category_two)})"
        )
    pools = (category_one, category_two)
    wants = [(count + 1) // 2, count // 2]
    # At most one category is short: the total covers count.
    for short, other in ((0, 1), (1, 0)):
        shortfall = wants[short] - len(pools[short])
        if shortfall > 0:
            logger.warning(
                f"category {short + 1} is short by %d negatives; "
                f"backfilling from category {other + 1}",
                shortfall,
            )
            wants[short] -= shortfall
            wants[other] += shortfall
    rng = random.Random(seed)
    return rng.sample(category_one, wants[0]) + rng.sample(category_two, wants[1])


def split_dataset(
    instances: Sequence[T],
    ratios: tuple[float, float, float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> tuple[list[T], list[T], list[T]]:
    """Random disjoint train/validation/test partition, seed-deterministic.

    Validation and test sizes are floored; every remainder instance goes to
    train.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise SplitError(f"need three nonnegative ratios, got {ratios}")
    if not math.isclose(sum(ratios), 1.0, abs_tol=SPLIT_SUM_TOLERANCE):
        raise SplitError(f"ratios must sum to 1, got {ratios}")
    n = len(instances)
    n_val = math.floor(n * ratios[1])
    n_test = math.floor(n * ratios[2])
    n_train = n - n_val - n_test
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train = [instances[i] for i in order[:n_train]]
    val = [instances[i] for i in order[n_train : n_train + n_val]]
    test = [instances[i] for i in order[n_train + n_val :]]
    return train, val, test


def ingest_sentences(
    sentences: Iterable[LinkedSentence], min_words: int = MIN_SENTENCE_WORDS
) -> list[LinkedSentence]:
    """Drop sentences shorter than the word floor (whitespace tokens)."""
    return [s for s in sentences if len(s.text.split()) >= min_words]
