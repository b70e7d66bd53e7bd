"""Scoring of generated triples against gold: micro P/R/F1 and the
negative/empty rates.

Predictions arrive at label level and are resolved to KB ids before
comparison (the title/qid bijection makes this equivalent to label-level
comparison for canonical labels). Duplicate predictions are collapsed;
predictions that fail to resolve count as false positives. An instance with
no gold triples is a negative instance; an empty prediction there is
correct and contributes nothing to the pooled counts.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .kb import KbStore, Triple
from .linearize import RawTriple


class EvalError(Exception):
    pass


class Counts(NamedTuple):
    tp: int
    fp: int
    fn: int
    n_pos: int
    n_neg: int


class EvalReport(NamedTuple):
    precision: float
    recall: float
    f1: float
    accuracy_negative: float
    empty_positive_rate: float
    counts: Counts

    def to_dict(self) -> dict:
        return {**self._asdict(), "counts": self.counts._asdict()}

    def format_table(self) -> str:
        rows = [
            ("precision", f"{self.precision:.4f}"),
            ("recall", f"{self.recall:.4f}"),
            ("f1", f"{self.f1:.4f}"),
            ("accuracy_negative", f"{self.accuracy_negative:.4f}"),
            ("empty_positive_rate", f"{self.empty_positive_rate:.4f}"),
            ("tp/fp/fn", f"{self.counts.tp}/{self.counts.fp}/{self.counts.fn}"),
            ("positives/negatives", f"{self.counts.n_pos}/{self.counts.n_neg}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def resolve_raw_triple(raw: RawTriple, kb: KbStore) -> Triple | None:
    """Map a label-level triple to KB ids; None when any part is unknown.

    Tail labels resolve by :meth:`KbStore.resolve_value`: an entity title
    first, then the year literal reading, matching how year tails are stored.
    """
    head = kb.resolve_title(raw.head_label)
    relation = kb.resolve_relation_label(raw.relation_label)
    tail = kb.resolve_value(raw.tail_label)
    if head is None or relation is None or tail is None:
        return None
    return Triple(head, relation, tail)


def score_predictions(
    pred: Mapping[str, Sequence[RawTriple]],
    gold: Mapping[str, Sequence[Triple]],
    kb: KbStore,
) -> EvalReport:
    """Micro-aggregate match counts over instances aligned by id."""
    if set(pred) != set(gold):
        missing = sorted(set(gold) - set(pred))[:5]
        extra = sorted(set(pred) - set(gold))[:5]
        raise EvalError(
            f"instance ids do not align (missing from pred: {missing}, "
            f"unknown to gold: {extra})"
        )
    tp = fp = fn = 0
    n_pos = n_neg = 0
    negative_correct = 0
    positive_empty = 0
    for instance_id in gold:
        gold_set = set(gold[instance_id])
        raws = pred[instance_id]
        if gold_set:
            n_pos += 1
            if not raws:
                positive_empty += 1
        else:
            n_neg += 1
            if not raws:
                negative_correct += 1
        resolved: set[Triple] = set()
        unresolved = 0
        for raw in set(raws):
            triple = resolve_raw_triple(raw, kb)
            if triple is None:
                unresolved += 1
            else:
                resolved.add(triple)
        tp += len(resolved & gold_set)
        fp += len(resolved - gold_set) + unresolved
        fn += len(gold_set - resolved)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy_negative=negative_correct / n_neg if n_neg else 0.0,
        empty_positive_rate=positive_empty / n_pos if n_pos else 0.0,
        counts=Counts(tp, fp, fn, n_pos, n_neg),
    )
