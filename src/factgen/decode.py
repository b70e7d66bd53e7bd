"""Constrained-decoding state machine and beam search.

Generation walks a small state machine keyed by the delimiter symbols: from
a fresh state the decoder may either stop immediately (the empty output is
the correct answer for a sentence with no facts) or open a triple with
``<sub>``. Inside subject/relation/object segments the next-token set comes
from the corresponding prefix trie, with the phase-transition symbol added
whenever the tokens so far form a complete label. An object is an entity
title or a year literal: the object phase walks the entity trie and the
year (tail) trie together while both may still be followed, and the entity
trie alone once only a title can follow. After ``<et>`` the decoder may
stop or start another triple.

Three modes are supported: ``unconstrained`` (plain beam search over the
full vocabulary), ``constrained`` (the machine filters candidates at every
step), and ``partial`` (free-form generation until the ``[TRIPLE]`` marker,
then the machine activates from its start state; used with entity-prompt
targets whose mention-span segment is arbitrary sentence text).

Hypotheses are ranked by cumulative log-probability; no length
normalization is applied and ties break toward the lexicographically
smaller token sequence. The search returns the ``n_best`` best hypotheses
(one by default) and stops as soon as they are settled: once ``n_best``
finished hypotheses score strictly above the best live one (Huang, Zhao &
Ma 2017, "When to Finish? Optimal Beam Search for Neural Text
Generation", arXiv 1709.09276).
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left
from typing import NamedTuple, Protocol, Sequence

from .tokenizers import (
    END_TRIPLE_TOKEN,
    OBJ_TOKEN,
    REL_TOKEN,
    SUB_TOKEN,
    TRIPLE_MARKER,
    Tokenizer,
)
from .trie import ConstraintTrie


class DecodeError(Exception):
    pass


class ConstraintViolation(DecodeError):
    """A token outside the allowed set was fed to the state machine."""


class DecodeFailure(DecodeError):
    """No hypothesis could be completed; unreachable with dead-end-free tries."""


class Phase(enum.IntEnum):
    """Decoder phase; its value indexes ``GenStateMachine``'s per-phase tables.

    ``<obj>`` leads to ``IN_OBJECT_JOINT``, where the object may still
    become a title or a year; ``IN_OBJECT`` is an object that only a title
    can complete.
    """

    START = 0
    IN_SUBJECT = 1
    IN_RELATION = 2
    IN_OBJECT = 3
    AFTER_TRIPLE = 4
    UNCONSTRAINED_PREFIX = 5
    DONE = 6
    IN_OBJECT_JOINT = 7


class GenState(NamedTuple):
    """Decoder position: the phase, and inside a label the trie node reached.

    ``node`` is a node number of the phase's trie (0, the root, on entering
    a label): the entity trie's for ``IN_SUBJECT`` and ``IN_OBJECT``, the
    relation trie's for ``IN_RELATION``. In ``IN_OBJECT_JOINT`` it is the
    pair ``year_node * (entity_nodes + 1) + entity_node`` of the two tries'
    nodes, with ``entity_node`` equal to the entity trie's node count once
    no title has the prefix; 0 is both roots. Outside the label phases
    ``node`` is always 0.
    """

    phase: Phase = Phase.START
    node: int = 0


# The state of every finished hypothesis.
_DONE = GenState(Phase.DONE)


class DecodingTries(NamedTuple):
    """Tries per segment: ``entity`` holds the entity titles, which both the
    subject and the object may take; ``relation`` the relation labels; and
    ``tail`` the year literals, which only the object may take. An object
    admits a title or a year, whichever trie continues it. A ``tail`` trie
    that also holds the titles, as ``build-trie`` once wrote it, admits the
    same objects."""

    entity: ConstraintTrie
    relation: ConstraintTrie
    tail: ConstraintTrie


class TokenScorer(Protocol):
    """Pluggable stand-in for a trained decoder.

    ``score`` must be deterministic for a fixed prefix, return one
    log-probability per candidate, each finite or ``-inf`` and at most 0,
    and must not let values depend on which other candidates are in the
    batch. :func:`beam_search` raises :class:`DecodeError` otherwise.
    """

    def score(self, prefix: Sequence[int], candidates: Sequence[int]) -> Sequence[float]:
        ...


class Hypothesis(NamedTuple):
    tokens: tuple[int, ...]
    score: float
    state: GenState


class GenStateMachine:
    """Allowed-token sets and transitions for one trie/tokenizer pairing.

    Building one is O(1) in the trie sizes: the joint object walk reads both
    tries as it goes, and keeps only the allowed sets it has computed.
    """

    def __init__(self, tries: DecodingTries, tokenizer: Tokenizer) -> None:
        eos = tokenizer.eos_id
        sub = tokenizer.special_id(SUB_TOKEN)
        marker = tokenizer.special_id(TRIPLE_MARKER)
        end_triple = tokenizer.special_id(END_TRIPLE_TOKEN)
        # Per fixed phase (indexed by phase, None for label phases): the
        # allowed ids, ascending, and the moves out of it; any other allowed
        # token keeps the phase.
        done, start = Phase.DONE, Phase.START
        stop_or_sub = (tuple(sorted((eos, sub))), {eos: done, sub: Phase.IN_SUBJECT})
        fixed = {
            start: stop_or_sub,
            Phase.AFTER_TRIPLE: stop_or_sub,
            Phase.UNCONSTRAINED_PREFIX: (
                tuple(range(tokenizer.vocab_size)), {eos: done, marker: start}
            ),
            done: ((), {}),
        }
        # Per single-trie label phase (None for the others): its trie, the
        # symbol that closes a complete label and the phase that symbol
        # leads to. A label that no longer label extends stays at its leaf
        # node, where the closing symbol is the only allowed token.
        labels = {
            Phase.IN_SUBJECT: (tries.entity, tokenizer.special_id(REL_TOKEN), Phase.IN_RELATION),
            Phase.IN_RELATION: (
                tries.relation, tokenizer.special_id(OBJ_TOKEN), Phase.IN_OBJECT_JOINT
            ),
            Phase.IN_OBJECT: (tries.entity, end_triple, Phase.AFTER_TRIPLE),
        }
        self._fixed = [fixed.get(phase) for phase in Phase]
        self._labels = [labels.get(phase) for phase in Phase]
        # The joint object walk: both tries, IN_OBJECT_JOINT's node base
        # (the entity trie's node count, which marks a prefix no title
        # has) and <et>; and the allowed sets it has met, by node.
        self._object = (tries.entity, tries.tail, tries.entity.node_count, end_triple)
        self._joint_allowed_at: dict[int, tuple[int, ...]] = {}

    def allowed_tokens(self, state: GenState) -> tuple[int, ...]:
        """The allowed next token ids, ascending."""
        label = self._labels[state.phase]
        if label is None:
            fixed = self._fixed[state.phase]
            if fixed is None:
                return self._joint_allowed(state.node)
            return fixed[0]
        trie, close, _ = label
        ids = trie.children(state.node)  # a fresh array, ascending
        if trie.is_terminal(state.node):
            at = bisect_left(ids, close)
            if at == len(ids) or ids[at] != close:
                ids.insert(at, close)
        return tuple(ids)

    def advance(self, state: GenState, token: int) -> GenState:
        """Deterministic transition; a disallowed token is an error."""
        phase = state.phase
        label = self._labels[phase]
        if label is not None:
            trie, close, after_close = label
            if token == close and trie.is_terminal(state.node):
                return GenState(after_close)
            node = trie.child(state.node, token)
            if node < 0:
                raise _violation(state, token)
            return GenState(phase, node)
        fixed = self._fixed[phase]
        if fixed is None:
            return self._joint_advance(state, token)
        allowed, moves = fixed
        after = moves.get(token)
        if after is not None:
            return GenState(after)
        if token not in allowed:
            raise _violation(state, token)
        return state

    # -- the joint object walk: a prefix that a year may still complete --

    def _joint_allowed(self, node: int) -> tuple[int, ...]:
        """The sorted union of both tries' children at an IN_OBJECT_JOINT
        node, plus ``<et>`` when either side ends a label there."""
        allowed = self._joint_allowed_at.get(node)
        if allowed is None:
            entity, years, no_title, close = self._object
            year, title = divmod(node, no_title + 1)
            ids = {*years.children(year)}
            complete = years.is_terminal(year)
            if title < no_title:
                ids.update(entity.children(title))
                complete = complete or entity.is_terminal(title)
            if complete:
                ids.add(close)
            allowed = self._joint_allowed_at[node] = tuple(sorted(ids))
        return allowed

    def _joint_advance(self, state: GenState, token: int) -> GenState:
        entity, years, no_title, close = self._object
        year, title = divmod(state.node, no_title + 1)
        has_title = title < no_title
        if token == close and (
            years.is_terminal(year) or (has_title and entity.is_terminal(title))
        ):
            return GenState(Phase.AFTER_TRIPLE)
        year = years.child(year, token)
        title = entity.child(title, token) if has_title else -1
        if year >= 0:
            if title < 0:
                title = no_title
            return GenState(Phase.IN_OBJECT_JOINT, year * (no_title + 1) + title)
        if title < 0:
            raise _violation(state, token)
        # Only a title continues this prefix: the plain entity walk from here.
        return GenState(Phase.IN_OBJECT, title)


def _violation(state: GenState, token: int) -> ConstraintViolation:
    return ConstraintViolation(f"token {token} not allowed in phase {state.phase.name.lower()}")


def _rank(hyp: Hypothesis) -> tuple[float, tuple[int, ...]]:
    return (-hyp.score, hyp.tokens)


_MODES = ("unconstrained", "constrained", "partial")
# Above this many candidates a heap selects the beam faster than a sort.
_SORT_LIMIT = 100


def beam_search(
    scorer: TokenScorer,
    tokenizer: Tokenizer,
    *,
    mode: str = "constrained",
    tries: DecodingTries | None = None,
    beam_size: int = 4,
    max_len: int = 256,
    n_best: int = 1,
) -> list[Hypothesis]:
    """Length-capped beam search over a pluggable token scorer.

    Returns up to ``n_best`` (1 <= ``n_best`` <= ``beam_size``) hypotheses
    ranked by cumulative log-probability. Hypotheses end with EOS (which
    contributes its own log-probability; no trie holds it) or are cut at
    ``max_len`` tokens.

    The search stops after a step once ``n_best`` finished hypotheses score
    strictly above the best live one (Huang, Zhao & Ma 2017, arXiv
    1709.09276). Log-probs are <= 0, so no live hypothesis can later score
    higher, and the strict comparison keeps the lexicographic tie rule: the
    result equals the first ``n_best`` entries of a search run to the end.

    A scorer that returns the wrong number of log-probabilities, a NaN or
    a positive value breaks the :class:`TokenScorer` contract and raises
    :class:`DecodeError`.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if not 1 <= n_best <= beam_size:
        raise ValueError(f"n_best must be in 1..beam_size ({beam_size}), got {n_best}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    machine: GenStateMachine | None = None
    if mode in ("constrained", "partial"):
        if tries is None:
            raise ValueError(f"{mode} mode requires tries")
        machine = GenStateMachine(tries, tokenizer)
        initial_phase = Phase.START if mode == "constrained" else Phase.UNCONSTRAINED_PREFIX
    else:
        initial_phase = Phase.UNCONSTRAINED_PREFIX
    eos = tokenizer.eos_id
    all_ids = range(tokenizer.vocab_size)

    live = [Hypothesis((), 0.0, GenState(phase=initial_phase))]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        # Every allowed extension of every live hypothesis is scored, but a
        # Hypothesis is built (and the machine advanced) only for finished
        # ones and for the beam_size best of the rest, the only ones kept.
        # The others stay (-score, parent tokens, token, parent index)
        # tuples: all parents have one length, so these order exactly like
        # _rank on the extended sequences, and distinct parents leave no tie.
        candidates: list[tuple[float, tuple[int, ...], int, int]] = []
        push = candidates.append
        for index, hyp in enumerate(live):
            state = hyp.state
            allowed = machine.allowed_tokens(state) if machine is not None else all_ids
            if not allowed:
                continue
            logprobs = scorer.score(hyp.tokens, allowed)
            if len(logprobs) != len(allowed):
                raise DecodeError(
                    f"scorer returned {len(logprobs)} log-probs for {len(allowed)} candidates"
                )
            base, tokens = hyp.score, hyp.tokens
            for token, logprob in zip(allowed, logprobs):
                if not logprob <= 0.0:
                    raise DecodeError(
                        f"scorer returned log-prob {logprob!r} for token {token}; "
                        "log-probs must be finite or -inf, and <= 0"
                    )
                if token == eos:
                    finished.append(Hypothesis(tokens + (token,), base + logprob, _DONE))
                else:
                    push((-(base + logprob), tokens, token, index))
        if len(candidates) > _SORT_LIMIT:
            best = heapq.nsmallest(beam_size, candidates)
        else:
            best = sorted(candidates)[:beam_size]
        parents = live
        live = []
        for neg_score, tokens, token, index in best:
            state = parents[index].state
            if machine is not None:
                state = machine.advance(state, token)
            live.append(Hypothesis(tokens + (token,), -neg_score, state))
        if not live:
            # Either every candidate finished, or every live hypothesis is
            # stuck mid-label (impossible with dead-end-free tries).
            break
        # Scores only fall, and live is ranked: a finished hypothesis
        # strictly above live[0] ranks ahead of any that can still finish.
        bar = live[0].score
        if sum(hyp.score > bar for hyp in finished) >= n_best:
            break
    pool = finished + live
    if not pool:
        raise DecodeFailure("constraints left no completable hypothesis")
    pool.sort(key=_rank)
    return pool[:n_best]
