"""Generative closed information extraction toolkit.

Builds KB-grounded IE datasets from entity-linked sentences (distant
supervision, entailment filtering, balanced negatives, splits), constructs
linearized and auxiliary training targets, decodes with trie-constrained
beam search, and scores predictions.
"""

from .decode import (
    ConstraintViolation,
    DecodeFailure,
    DecodingTries,
    GenState,
    GenStateMachine,
    Hypothesis,
    Phase,
    TokenScorer,
    beam_search,
)
from .evaluation import Counts, EvalReport, resolve_raw_triple, score_predictions
from .kb import KbIntegrityError, KbLoadError, KbStore, Triple, load_kb
from .linearize import (
    DualTargetInstance,
    LinearizedTarget,
    LinkedSentence,
    MentionSpan,
    RawTriple,
    TrainingInstance,
    build_artificial_prompt_instances,
    build_dual_target_instance,
    build_entity_prompt_target,
    combine_losses,
    entity_linking_chain,
    linearize,
    linearize_labels,
    order_triples,
    parse_linearized,
)
from .pipeline import (
    HypothesisTemplates,
    ScoredTriple,
    entailment_filter,
    extract_ds_triples,
    map_date_to_year,
    sample_negatives,
    split_dataset,
)
from .scorers import (
    ExternalLmScorer,
    ExternalNliScorer,
    ExternalScorerClient,
    NgramScorer,
    NliScorer,
    TableNliScorer,
)
from .tokenizers import ByteTokenizer, Tokenizer
from .trie import ConstraintTrie, Continuations, build_trie, year_labels

__version__ = "0.1.0"
