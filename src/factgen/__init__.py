"""Generative closed information extraction toolkit.

Builds KB-grounded IE datasets from entity-linked sentences (distant
supervision, entailment filtering, balanced negatives, splits), constructs
linearized and auxiliary training targets, decodes with trie-constrained
beam search, and scores predictions.

The names below are imported from their modules on first access, so that
importing one module (as each CLI stage does) does not import them all.
"""

from __future__ import annotations

import importlib

# Bound now, not on first access: importing the ``linearize`` module binds
# the package attribute of the same name to the module.
from .linearize import linearize

_EXPORTS = {
    "decode": (
        "ConstraintViolation",
        "DecodeFailure",
        "DecodingTries",
        "GenState",
        "GenStateMachine",
        "Hypothesis",
        "Phase",
        "TokenScorer",
        "beam_search",
    ),
    "evaluation": ("Counts", "EvalReport", "resolve_raw_triple", "score_predictions"),
    "kb": ("KbIntegrityError", "KbLoadError", "KbStore", "Triple", "load_kb"),
    "linearize": (
        "LinkedSentence",
        "MentionSpan",
        "RawTriple",
        "build_artificial_prompt_instances",
        "build_dual_target_instance",
        "build_entity_prompt_target",
        "combine_losses",
        "entity_linking_chain",
        "linearize",
        "linearize_labels",
        "order_triples",
        "parse_linearized",
    ),
    "pipeline": (
        "HypothesisTemplates",
        "ScoredTriple",
        "entailment_filter",
        "extract_ds_triples",
        "map_date_to_year",
        "sample_negatives",
        "split_dataset",
    ),
    "scorers": (
        "ExternalLmScorer",
        "ExternalNliScorer",
        "ExternalScorerClient",
        "NgramScorer",
        "NliScorer",
        "TableNliScorer",
    ),
    "tokenizers": ("ByteTokenizer", "Tokenizer"),
    "trie": ("ConstraintTrie", "Continuations", "build_trie", "year_labels"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
