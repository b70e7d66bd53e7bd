from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.decode import (
    ConstraintViolation,
    DecodeError,
    DecodeFailure,
    DecodingTries,
    GenState,
    GenStateMachine,
    Hypothesis,
    Phase,
    beam_search,
)
from factgen.kb import year_labels
from factgen.linearize import parse_linearized
from factgen.scorers import NgramScorer
from factgen.tokenizers import ByteTokenizer
from factgen.trie import build_trie

ENTITIES = ["Italy", "India", "Io"]
RELATIONS = ["in", "near"]


@pytest.fixture()
def tries(tok):
    return DecodingTries(
        entity=build_trie(ENTITIES, tok),
        relation=build_trie(RELATIONS, tok),
        tail=build_trie(ENTITIES + year_labels(), tok),
    )


@pytest.fixture()
def machine(tries, tok):
    return GenStateMachine(tries, tok)


def walk(machine, tokens, state=None):
    state = state or GenState()
    for token in tokens:
        state = machine.advance(state, token)
    return state


# -- allowed_tokens / advance ---------------------------------------------------


def test_fresh_state_allows_stop_or_subject(machine, tok):
    expected = tuple(sorted({tok.eos_id, tok.special_id("<sub>")}))
    assert machine.allowed_tokens(GenState()) == expected


def test_after_sub_only_entity_first_tokens(machine, tok):
    state = walk(machine, [tok.special_id("<sub>")])
    assert state.phase is Phase.IN_SUBJECT
    assert machine.allowed_tokens(state) == (ord("I"),)


def test_completion_point_offers_continuation_and_transition(machine, tok):
    # "I" can extend toward all three entities; none is complete yet.
    state = walk(machine, [tok.special_id("<sub>")] + tok.encode("I"))
    allowed = machine.allowed_tokens(state)
    assert allowed == tuple(sorted({ord("t"), ord("n"), ord("o")}))
    # "Io" is complete and no longer label continues it: the state stays at
    # the leaf, where only the closing symbol is allowed.
    state = walk(machine, [tok.special_id("<sub>")] + tok.encode("Io"))
    assert state.phase is Phase.IN_SUBJECT
    assert machine.allowed_tokens(state) == (tok.special_id("<rel>"),)


def test_completion_points_match_trie_oracle(machine, tries, tok):
    # At every cut of every entity label, leaves included, allowed =
    # continuations from the trie plus <rel> exactly at completion points.
    for label in ENTITIES:
        enc = tok.encode(label)
        for cut in range(1, len(enc) + 1):
            prefix = tuple(enc[:cut])
            tokens, complete = tries.entity.allowed_continuations(prefix)
            state = walk(machine, [tok.special_id("<sub>")] + list(prefix))
            expected = set(tokens) | ({tok.special_id("<rel>")} if complete else set())
            assert machine.allowed_tokens(state) == tuple(sorted(expected))


def test_scripted_full_triple_walk(machine, tok):
    tokens = (
        [tok.special_id("<sub>")]
        + tok.encode("Italy")
        + [tok.special_id("<rel>")]
        + tok.encode("in")
        + [tok.special_id("<obj>")]
        + tok.encode("India")
        + [tok.special_id("<et>")]
    )
    state = walk(machine, tokens)
    assert state.phase is Phase.AFTER_TRIPLE
    assert machine.allowed_tokens(state) == tuple(sorted({tok.eos_id, tok.special_id("<sub>")}))
    done = machine.advance(state, tok.eos_id)
    assert done.phase is Phase.DONE
    assert machine.allowed_tokens(done) == ()
    with pytest.raises(ConstraintViolation):
        machine.advance(done, tok.eos_id)


def test_year_tail_is_generable(machine, tok):
    tokens = (
        [tok.special_id("<sub>")]
        + tok.encode("Italy")
        + [tok.special_id("<rel>")]
        + tok.encode("in")
        + [tok.special_id("<obj>")]
        + tok.encode("1776")
        + [tok.special_id("<et>")]
    )
    assert walk(machine, tokens).phase is Phase.AFTER_TRIPLE


def test_start_plus_eos_is_negative_example(machine, tok):
    assert machine.advance(GenState(), tok.eos_id) == GenState(Phase.DONE)


def test_disallowed_token_names_phase_and_token(machine, tok):
    with pytest.raises(ConstraintViolation, match=r"token 97 .* phase start"):
        machine.advance(GenState(), ord("a"))


def test_closing_symbol_before_a_complete_label_is_a_violation(machine, tok):
    # "I" only starts entity labels; <rel> is allowed once one is complete.
    state = walk(machine, [tok.special_id("<sub>")] + tok.encode("I"))
    with pytest.raises(ConstraintViolation, match="phase in_subject"):
        machine.advance(state, tok.special_id("<rel>"))


def test_unconstrained_prefix_allows_everything(machine, tok):
    state = GenState(phase=Phase.UNCONSTRAINED_PREFIX)
    allowed = machine.allowed_tokens(state)
    assert allowed == tuple(range(tok.vocab_size))
    assert tok.special_id("[TRIPLE]") in allowed
    after_marker = machine.advance(state, tok.special_id("[TRIPLE]"))
    assert after_marker.phase is Phase.START
    still_free = machine.advance(state, ord("x"))
    assert still_free.phase is Phase.UNCONSTRAINED_PREFIX


# -- the joint object walk ------------------------------------------------------

TOK = ByteTokenizer()
CLOSE_OBJECT = TOK.special_id("<et>")
YEAR_ENCODINGS = [tuple(TOK.encode(year)) for year in year_labels()]
# Titles that start with a digit, equal a year, extend a year or are a
# prefix of many years.
DIGIT_TITLES = ["1984", "2100", "21000", "12 Monkeys", "1"]
# The tokens tried at every prefix: digits, the letters the drawn titles
# use, a space, and EOS and every reserved symbol (the ids after the bytes).
PROBE_TOKENS = sorted({*TOK.encode("0123456789 MAao"), *range(TOK.eos_id, TOK.vocab_size)})


def object_tries(titles, tail_labels):
    return DecodingTries(
        entity=build_trie(titles, TOK),
        relation=build_trie(["r"], TOK),
        tail=build_trie(tail_labels, TOK),
    )


def object_root(machine, title):
    """The state after ``<sub>title<rel>r<obj>``."""
    return walk(machine, [TOK.special_id("<sub>"), *TOK.encode(title), TOK.special_id("<rel>"),
                          *TOK.encode("r"), TOK.special_id("<obj>")])


def brute_force_allowed(prefix, encodings):
    """The tokens some object label continues ``prefix`` with, plus <et> if
    ``prefix`` is one."""
    depth = len(prefix)
    allowed = {enc[depth] for enc in encodings if len(enc) > depth and enc[:depth] == prefix}
    if prefix in encodings:
        allowed.add(CLOSE_OBJECT)
    return tuple(sorted(allowed))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    titles=st.lists(
        st.one_of(st.sampled_from(DIGIT_TITLES), st.text("0129 Ma", min_size=1, max_size=5)),
        min_size=1, max_size=8,
    ),
    years=st.lists(st.integers(1, 2100), max_size=6),
)
def test_joint_object_walk_equals_the_old_tail_trie(titles, years):
    # Both machines against a brute-force oracle over titles + years: the
    # year-only tail of build-trie, and the old tail that also held titles.
    machines = [
        GenStateMachine(object_tries(titles, tail), TOK)
        for tail in (year_labels(), titles + year_labels())
    ]
    encodings = {*(tuple(TOK.encode(title)) for title in titles), *YEAR_ENCODINGS}
    # Every prefix of the titles and of a few years, and every token after it.
    labels = [*titles, *map(str, years), "21", "210"]
    prefixes = {tuple(TOK.encode(label))[:cut] for label in labels for cut in range(6)}
    for prefix in sorted(prefixes):
        expected = brute_force_allowed(prefix, encodings)
        if not expected:
            continue  # off both tries: the walk never reaches it
        for machine in machines:
            state = walk(machine, prefix, object_root(machine, titles[0]))
            assert machine.allowed_tokens(state) == expected, (prefix, titles)
            for token in PROBE_TOKENS:
                if token in expected:
                    after = machine.advance(state, token)
                    done = token == CLOSE_OBJECT
                    assert (after.phase is Phase.AFTER_TRIPLE) == done
                else:
                    with pytest.raises(ConstraintViolation, match=r"phase in_object"):
                        machine.advance(state, token)


def test_object_root_offers_titles_and_years(tok):
    machine = GenStateMachine(object_tries(["Mao", "21000"], year_labels()), tok)
    root = object_root(machine, "Mao")
    assert root == GenState(Phase.IN_OBJECT_JOINT)
    assert machine.allowed_tokens(root) == (*tok.encode("123456789"), ord("M"))
    # A title prefix that no year shares leaves the joint walk.
    assert machine.advance(root, ord("M")).phase is Phase.IN_OBJECT
    # "2100" is a year; "21000" a title that extends it, past every year.
    state = walk(machine, tok.encode("2100"), root)
    assert state.phase is Phase.IN_OBJECT_JOINT
    assert machine.allowed_tokens(state) == (ord("0"), CLOSE_OBJECT)
    title = machine.advance(state, ord("0"))
    assert title.phase is Phase.IN_OBJECT
    assert machine.allowed_tokens(title) == (CLOSE_OBJECT,)
    assert machine.advance(title, CLOSE_OBJECT) == GenState(Phase.AFTER_TRIPLE)
    # "2101" is not a year: the walk stops at "210" on both sides.
    with pytest.raises(ConstraintViolation, match="token 49 not allowed in phase in_object_joint"):
        machine.advance(walk(machine, tok.encode("210"), root), ord("1"))


@pytest.mark.parametrize(
    "gold_object", ["1984", "1", "21000", "12 Monkeys", "Mao", "2100", "12", "Io"]
)
def test_old_style_tail_cache_decodes_the_same(tok, oracle_scorer_cls, gold_object):
    titles = [*DIGIT_TITLES, "Mao", "Io", "Ma"]
    gold = tuple(
        tok.encode(f"<sub>Mao<rel>r<obj>{gold_object}<et><sub>1<rel>r<obj>1984<et>")
        + [tok.eos_id]
    )
    results = []
    for tail in (year_labels(), titles + year_labels()):
        scorers = (oracle_scorer_cls(gold, floor=-3.0), HashScorer("quantized", sum(gold), 4, True))
        for scorer in scorers:
            hyps = beam_search(
                scorer, tok, mode="constrained", tries=object_tries(titles, tail),
                beam_size=4, max_len=40, n_best=4,
            )
            results.append([(hyp.tokens, hyp.score) for hyp in hyps])
    assert results[:2] == results[2:]
    assert results[0][0] == (gold, 0.0)


# -- beam search ----------------------------------------------------------------


def test_oracle_scorer_recovers_gold_sequence(tries, tok, oracle_scorer_cls):
    gold = tuple(
        tok.encode("<sub>Italy<rel>in<obj>India<et>") + [tok.eos_id]
    )
    hyps = beam_search(
        oracle_scorer_cls(gold), tok, mode="constrained", tries=tries,
        beam_size=1, max_len=32,
    )
    assert hyps[0].tokens == gold
    assert hyps[0].score == 0.0
    assert hyps[0].state.phase is Phase.DONE


class CountingScorer:
    """Wraps a scorer; records (prefix length, candidate count) per call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def score(self, prefix, candidates):
        self.calls.append((len(prefix), len(candidates)))
        return self.inner.score(prefix, candidates)


@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
@pytest.mark.parametrize("beam_size", [1, 4])
def test_search_stops_once_the_gold_has_finished(tries, tok, oracle_scorer_cls, mode, beam_size):
    gold = tuple(tok.encode("<sub>Italy<rel>in<obj>India<et>") + [tok.eos_id])
    scorer = CountingScorer(oracle_scorer_cls(gold))
    hyps = beam_search(
        scorer, tok, mode=mode, tries=tries, beam_size=beam_size, max_len=256
    )
    assert [hyp.tokens for hyp in hyps] == [gold]
    # The finished gold scores 0, every live hypothesis far below: no
    # prefix longer than the gold's own is scored.
    assert max(length for length, _ in scorer.calls) == len(gold) - 1


class PreferenceScorer:
    """Follows one preferred sequence; EOS is painful, everything else mild.

    The mild off-path cost keeps long legal outputs cheaper than stopping,
    so constrained decoding is steered toward in-vocabulary labels instead
    of the empty string.
    """

    def __init__(self, preferred, eos_id, mild=-1.0):
        self.preferred = tuple(preferred)
        self.eos_id = eos_id
        self.mild = mild

    def score(self, prefix, candidates):
        prefix = tuple(prefix)
        on_path = prefix == self.preferred[: len(prefix)]
        want = (
            self.preferred[len(prefix)]
            if on_path and len(prefix) < len(self.preferred)
            else None
        )
        out = []
        for c in candidates:
            if c == want:
                out.append(-0.1)
            elif c == self.eos_id:
                out.append(-100.0)
            else:
                out.append(self.mild)
        return out


def test_out_of_vocabulary_preference(tries, tok):
    # The scorer wants "Ireland", which is not an entity label.
    preferred = tuple(tok.encode("<sub>Ireland<rel>in<obj>Io<et>"))
    scorer = PreferenceScorer(preferred, tok.eos_id)
    free = beam_search(
        scorer, tok, mode="unconstrained", beam_size=2, max_len=len(preferred)
    )
    assert tok.decode(free[0].tokens).startswith("<sub>Ireland")

    constrained = beam_search(
        scorer, tok, mode="constrained", tries=tries, beam_size=2, max_len=48, n_best=2
    )
    assert len(constrained) == 2
    for hyp in constrained:
        for raw in parse_linearized(tok.decode(hyp.tokens)):
            assert raw.head_label in ENTITIES
            assert raw.relation_label in RELATIONS
    # The shared "I" prefix steers to an in-vocabulary entity, not "Ireland".
    top = parse_linearized(tok.decode(constrained[0].tokens))
    assert top and top[0].head_label in ENTITIES


def bruteforce_topk(score_fn, vocab_size, eos_id, max_len, k):
    """Oracle: enumerate every EOS-terminated or max-length sequence."""
    results = []

    def expand(prefix, score):
        if prefix and prefix[-1] == eos_id:
            results.append((prefix, score))
            return
        if len(prefix) == max_len:
            results.append((prefix, score))
            return
        for token in range(vocab_size):
            expand(prefix + (token,), score + score_fn(prefix, token))

    expand((), 0.0)
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


class UnigramScorer:
    def __init__(self, probs):
        self.logprobs = [math.log(p) for p in probs]

    def score(self, prefix, candidates):
        return [self.logprobs[c] for c in candidates]


class TinyVocabTokenizer:
    """Six-token vocabulary for enumeration-scale beam tests; id 0 is EOS."""

    vocab_size = 6
    eos_id = 0

    def encode(self, text):
        raise NotImplementedError

    def decode(self, ids):
        return " ".join(str(i) for i in ids)

    def special_id(self, token):
        raise KeyError(token)


@pytest.mark.parametrize(
    "probs",
    [
        (0.3, 0.25, 0.2, 0.15, 0.07, 0.03),  # EOS-dominant
        (0.05, 0.5, 0.2, 0.15, 0.07, 0.03),  # capped sequences win
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_beam_equals_exhaustive_enumeration(probs, k):
    tiny = TinyVocabTokenizer()
    scorer = UnigramScorer(probs)
    max_len = 4
    expected = bruteforce_topk(
        lambda prefix, token: scorer.logprobs[token],
        tiny.vocab_size,
        tiny.eos_id,
        max_len,
        k,
    )
    hyps = beam_search(
        scorer, tiny, mode="unconstrained", beam_size=k, max_len=max_len, n_best=k
    )
    assert [(h.tokens, h.score) for h in hyps] == expected


def random_ngram_scorer(seed, tok):
    rng = random.Random(seed)
    sequences = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.4:
            sequences.append([tok.eos_id])
        else:
            entity = rng.choice(ENTITIES)
            relation = rng.choice(RELATIONS)
            tail = rng.choice(ENTITIES + ["1907"])
            text = f"<sub>{entity}<rel>{relation}<obj>{tail}<et>"
            sequences.append(tok.encode(text) + [tok.eos_id])
    return NgramScorer(sequences, tok.vocab_size, tok.eos_id)


def test_constrained_outputs_always_valid_under_fuzz(tries, tok):
    for seed in range(60):
        scorer = random_ngram_scorer(seed, tok)
        for beam in (1, 4):
            hyps = beam_search(
                scorer, tok, mode="constrained", tries=tries,
                beam_size=beam, max_len=40, n_best=beam,
            )
            assert hyps
            for hyp in hyps:
                for raw in parse_linearized(tok.decode(hyp.tokens)):
                    assert raw.head_label in ENTITIES
                    assert raw.relation_label in RELATIONS
                    assert raw.tail_label in ENTITIES or raw.tail_label.isdigit()


def test_empty_output_when_eos_dominates(tries, tok):
    # All-empty gold targets make EOS the argmax at the first step.
    scorer = NgramScorer([[tok.eos_id]] * 3, tok.vocab_size, tok.eos_id)
    sub = tok.special_id("<sub>")
    step_one = scorer.score((), sorted((tok.eos_id, sub)))
    assert step_one[0] > step_one[1]  # eos_id < sub, so index 0 is EOS
    counting = CountingScorer(scorer)
    hyps = beam_search(counting, tok, mode="constrained", tries=tries, beam_size=4)
    assert hyps[0].tokens == (tok.eos_id,)
    assert tok.decode(hyps[0].tokens) == ""
    # The empty output beats the one live hypothesis at once: one scorer call.
    assert counting.calls == [(0, 2)]


def test_greedy_agreement_when_argmax_is_legal(tries, tok, oracle_scorer_cls):
    gold = tuple(tok.encode("<sub>Io<rel>in<obj>Io<et>") + [tok.eos_id])
    scorer = oracle_scorer_cls(gold)
    free = beam_search(scorer, tok, mode="unconstrained", beam_size=1, max_len=32)
    constrained = beam_search(
        scorer, tok, mode="constrained", tries=tries, beam_size=1, max_len=32
    )
    assert free[0].tokens == constrained[0].tokens == gold
    assert free[0].score == constrained[0].score


def test_monotone_beam_top1_score(tries, tok):
    for seed in range(25):
        scorer = random_ngram_scorer(seed + 1000, tok)
        best = None
        for beam in (1, 2, 3, 4):
            hyps = beam_search(
                scorer, tok, mode="constrained", tries=tries,
                beam_size=beam, max_len=40,
            )
            top = hyps[0].score
            if best is not None:
                assert top >= best - 1e-12
            best = top


def test_partial_mode_constrains_only_after_marker(tries, tok):
    marker = tok.special_id("[TRIPLE]")
    free_part = tok.encode("[ENTITY] whatever text ")
    gold = tuple(
        free_part + [marker] + tok.encode("<sub>Italy<rel>in<obj>Io<et>") + [tok.eos_id]
    )
    scorer = PreferenceScorer(gold, tok.eos_id)
    hyps = beam_search(
        scorer, tok, mode="partial", tries=tries, beam_size=2, max_len=len(gold) + 8
    )
    assert hyps[0].tokens == gold

    # The same free-text tokens are impossible in fully constrained mode.
    constrained = beam_search(
        scorer, tok, mode="constrained", tries=tries, beam_size=2, max_len=48
    )
    assert not tok.decode(constrained[0].tokens).startswith("[ENTITY]")


def test_beam_validates_arguments(tok, tries):
    scorer = NgramScorer([[tok.eos_id]], tok.vocab_size, tok.eos_id)
    with pytest.raises(ValueError):
        beam_search(scorer, tok, beam_size=0, tries=tries)
    with pytest.raises(ValueError, match="^max_len must be >= 1$"):
        beam_search(scorer, tok, max_len=0, tries=tries)
    with pytest.raises(ValueError):
        beam_search(scorer, tok, mode="nonsense", tries=tries)
    with pytest.raises(ValueError):
        beam_search(scorer, tok, mode="constrained", tries=None)
    for n_best in (0, 5):
        message = rf"n_best must be in 1\.\.beam_size \(4\), got {n_best}$"
        with pytest.raises(ValueError, match=message):
            beam_search(scorer, tok, tries=tries, beam_size=4, n_best=n_best)


class TieTokenizer(TinyVocabTokenizer):
    """The tiny vocabulary with EOS as its largest id, 5."""

    eos_id = 5


class TieScorer:
    """At the first step EOS ties token 1; token 1's branch then ends at no
    cost, as (1, EOS), which ranks before (EOS,) on the tie."""

    def score(self, prefix, candidates):
        eos = TieTokenizer.eos_id
        table = {(): {1: -1.0, eos: -1.0}, (1,): {eos: 0.0}}.get(tuple(prefix), {})
        return [table.get(c, -5.0) for c in candidates]


def test_a_tie_with_the_best_live_hypothesis_keeps_searching():
    tiny = TieTokenizer()
    args = dict(mode="unconstrained", tries=None, beam_size=4, max_len=6)
    scorer = CountingScorer(TieScorer())
    hyps = beam_search(scorer, tiny, **args)
    # (EOS,) finished at step one with -1.0, equal to the live (1,): not
    # settled, so the second step finds (1, EOS), also -1.0 and smaller.
    assert [(hyp.tokens, hyp.score) for hyp in hyps] == [((1, 5), -1.0)]
    assert hyps == reference_beam_search(TieScorer(), tiny, **args)[:1]
    assert max(length for length, _ in scorer.calls) == 1


# -- the scorer contract ---------------------------------------------------------


class FixedScorer:
    """Scores every candidate with one value, optionally dropping the last."""

    def __init__(self, value, short=False):
        self.value = value
        self.short = short

    def score(self, prefix, candidates):
        out = [self.value] * len(candidates)
        return out[:-1] if self.short else out


@pytest.mark.parametrize("mode", ["unconstrained", "constrained", "partial"])
@pytest.mark.parametrize(
    "scorer, message",
    [
        (FixedScorer(float("nan")), "log-prob nan "),
        (FixedScorer(0.5), "log-prob 0.5 "),
        (FixedScorer(float("inf")), "log-prob inf "),
        (FixedScorer(-1.0, short=True), r"returned \d+ log-probs for \d+ candidates"),
    ],
)
def test_scorer_contract_violations_raise(tries, tok, mode, scorer, message):
    with pytest.raises(DecodeError, match=message):
        beam_search(scorer, tok, mode=mode, tries=tries, beam_size=2, max_len=8)


def test_minus_infinity_is_a_valid_logprob(tries, tok):
    hyps = beam_search(
        FixedScorer(float("-inf")), tok, mode="constrained", tries=tries,
        beam_size=2, max_len=8,
    )
    assert hyps[0].score == float("-inf")


# -- exactness and cost of the lazy beam step ------------------------------------


def reference_beam_search(scorer, tokenizer, *, mode, tries, beam_size, max_len):
    """Test oracle: the full-expansion beam loop.

    Every scored candidate becomes a Hypothesis with an advanced state,
    then all of them are ranked; ``beam_search`` must return the same list
    while advancing only the survivors.
    """
    machine = GenStateMachine(tries, tokenizer) if mode != "unconstrained" else None
    initial = Phase.START if mode == "constrained" else Phase.UNCONSTRAINED_PREFIX
    rank = lambda hyp: (-hyp.score, hyp.tokens)  # noqa: E731
    live = [Hypothesis((), 0.0, GenState(phase=initial))]
    finished = []
    for _ in range(max_len):
        candidates = []
        for hyp in live:
            if machine is not None:
                allowed = sorted(machine.allowed_tokens(hyp.state))
            else:
                allowed = range(tokenizer.vocab_size)
            for token, logprob in zip(allowed, scorer.score(hyp.tokens, allowed)):
                if machine is not None:
                    state = machine.advance(hyp.state, token)
                elif token == tokenizer.eos_id:
                    state = GenState(phase=Phase.DONE)
                else:
                    state = hyp.state
                candidates.append(Hypothesis(hyp.tokens + (token,), hyp.score + logprob, state))
        candidates.sort(key=rank)
        live = []
        for hyp in candidates:
            if hyp.state.phase is Phase.DONE:
                finished.append(hyp)
            elif len(live) < beam_size:
                live.append(hyp)
        if not live:
            break
    pool = sorted(finished + live, key=rank)
    if not pool:
        raise DecodeFailure("constraints left no completable hypothesis")
    return pool[:beam_size]


class HashScorer:
    """Log-probs from a hash of (seed, prefix, candidate): deterministic, tie-heavy.

    ``quantized`` draws one of ``levels`` values, ``equal`` gives every
    candidate -1.0, ``neginf`` is quantized with about a third at -inf.
    With ``special_first`` the ``[TRIPLE]`` marker scores 0 and the other
    reserved ids (EOS, the delimiters) rank one level above bytes, so
    free-form decoding reaches the constrained part and closing symbols
    compete with label bytes.
    """

    MARKER = ByteTokenizer().special_id("[TRIPLE]")

    def __init__(self, kind, seed, levels, special_first):
        self.kind = kind
        self.seed = seed
        self.levels = levels
        self.special_first = special_first

    def score(self, prefix, candidates):
        if self.kind == "equal":
            return [-1.0] * len(candidates)
        key = hash((self.seed, tuple(prefix)))
        out = []
        for c in candidates:
            h = hash((key, c)) & 0xFFFFFF
            if self.kind == "neginf" and h % 3 == 0:
                out.append(float("-inf"))
                continue
            level = (h >> 2) % self.levels
            if self.special_first:
                level = 0 if c == self.MARKER else level + 1 + (c < 256)
            out.append(-0.5 * level)
        return out


# "I" is a prefix of "Io", and "Io" of "Ioo": a complete label that a
# longer label extends, so the closing symbol competes with label bytes.
EXACTNESS_ENTITIES = ["Io", "I", "Ioo", "It"]
EXACTNESS_TRIES = DecodingTries(
    entity=build_trie(EXACTNESS_ENTITIES, ByteTokenizer()),
    relation=build_trie(["in", "n"], ByteTokenizer()),
    tail=build_trie(EXACTNESS_ENTITIES + ["17"], ByteTokenizer()),
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["unconstrained", "constrained", "partial"]),
    beam_size=st.integers(1, 4),
    max_len=st.integers(1, 14),
    kind=st.sampled_from(["quantized", "equal", "neginf"]),
    seed=st.integers(0, 2**16),
    levels=st.integers(1, 4),
    special_first=st.booleans(),
)
def test_beam_search_equals_full_expansion(
    mode, beam_size, max_len, kind, seed, levels, special_first
):
    tok = ByteTokenizer()
    scorer = HashScorer(kind, seed, levels, special_first)
    args = dict(mode=mode, tries=EXACTNESS_TRIES, beam_size=beam_size, max_len=max_len)
    try:
        expected = reference_beam_search(scorer, tok, **args)
    except DecodeFailure:
        with pytest.raises(DecodeFailure):
            beam_search(scorer, tok, **args)
        return
    # Whole hypotheses: tokens, score and state, for every count asked for.
    for n_best in range(1, beam_size + 1):
        assert beam_search(scorer, tok, **args, n_best=n_best) == expected[:n_best]


@pytest.mark.parametrize("mode", ["constrained", "partial"])
@pytest.mark.parametrize("beam_size", [1, 2, 4])
def test_beam_step_advances_only_survivors(monkeypatch, tok, mode, beam_size):
    calls = {"advance": 0, "allowed_tokens": 0}
    for name in calls:
        original = getattr(GenStateMachine, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GenStateMachine, name, counted)
    scorer = CountingScorer(HashScorer("quantized", 7, 3, special_first=True))
    scored = scorer.calls
    beam_search(
        scorer, tok, mode=mode, tries=EXACTNESS_TRIES,
        beam_size=beam_size, max_len=24, n_best=beam_size,
    )
    steps = len({length for length, _ in scored})
    assert steps > 1
    # One allowed_tokens call per scored hypothesis, at most beam_size
    # advance calls per step, far fewer than the candidates scored.
    assert calls["allowed_tokens"] == len(scored)
    assert 0 < calls["advance"] <= beam_size * steps
    assert calls["advance"] < sum(n for _, n in scored)
