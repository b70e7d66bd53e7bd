"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single ``[acceptance] criterion NN PASS`` line (visible
with ``pytest -s`` or in captured output on failure); a failing criterion
fails its test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import defaultdict
from pathlib import Path

import pytest

from factgen.decode import DecodingTries, beam_search
from factgen.evaluation import score_predictions
from factgen.kb import KbStore, Triple, year_labels
from factgen.linearize import (
    LinkedSentence,
    MentionSpan,
    RawTriple,
    build_artificial_prompt_instances,
    build_dual_target_instance,
    build_entity_prompt_target,
    combine_losses,
    entity_linking_chain,
    linearize_labels,
    parse_linearized,
)
from factgen.pipeline import (
    HypothesisTemplates,
    entailment_filter,
    extract_ds_triples,
    negative_category,
    sample_negatives,
    split_dataset,
)
from factgen.records import dataset_record
from factgen.scorers import NgramScorer, TableNliScorer
from factgen.tokenizers import ByteTokenizer
from factgen.trie import build_trie

from . import corpus


def report(number: int, elapsed: float, detail: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS ({elapsed:.2f}s) {detail}")


# -- 1. linearization round-trip ------------------------------------------------


def test_criterion_01_linearization_roundtrip():
    started = time.perf_counter()
    rng = random.Random(20240601)
    alphabet = "abcdefgh XYZ0123'-."

    def label():
        while True:
            candidate = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 12))
            ).strip()
            if candidate:
                return candidate

    checked = 0
    for _ in range(10_000):
        triples = [
            RawTriple(label(), label(), label()) for _ in range(rng.randint(0, 5))
        ]
        assert parse_linearized(linearize_labels(triples)) == triples
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"round-trip took {elapsed:.2f}s (budget 10s)"
    report(1, elapsed, f"{checked} sentences round-tripped at label level")


# -- 2. trie oracle equivalence ----------------------------------------------------


def test_criterion_02_trie_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(7_2024)
    alphabet = "abcdefghij"
    labels: set[str] = set()
    while len(labels) < 1000:
        labels.add("".join(rng.choice(alphabet) for _ in range(rng.randint(4, 10))))
    ordered_labels = sorted(labels)

    tokenizer = ByteTokenizer()
    trie = build_trie(ordered_labels, tokenizer)

    # Oracle over byte strings: the byte tokenizer maps chars to their byte
    # values, so label encodings and label bytes coincide.
    encodings = [label.encode("utf-8") for label in ordered_labels]
    encoding_set = set(encodings)
    queries: list[bytes] = []
    for encoded in encodings:
        for cut in range(len(encoded) + 1):
            queries.append(encoded[:cut])
    for _ in range(10_000):
        queries.append(
            "".join(
                rng.choice("abcdefghijkl") for _ in range(rng.randint(1, 12))
            ).encode("utf-8")
        )

    for query in queries:
        n = len(query)
        expected_tokens = {
            encoded[n] for encoded in encodings
            if len(encoded) > n and encoded.startswith(query)
        }
        expected_complete = query in encoding_set
        tokens, complete = trie.allowed_continuations(tuple(query))
        assert set(tokens) == expected_tokens, f"mismatch at {query!r}"
        assert complete == expected_complete, f"flag mismatch at {query!r}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"trie oracle took {elapsed:.2f}s (budget 30s)"
    report(2, elapsed, f"{len(queries)} prefix queries matched the brute-force filter")


# -- 3. constrained-decoding validity ------------------------------------------------


ENTITIES3 = ["Italy", "India", "Io", "Oman"]
RELATIONS3 = ["in", "near"]


def _random_scorer(seed: int, tokenizer: ByteTokenizer) -> NgramScorer:
    rng = random.Random(seed)
    sequences = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.45:
            sequences.append([tokenizer.eos_id])
        else:
            text = (
                f"<sub>{rng.choice(ENTITIES3)}<rel>{rng.choice(RELATIONS3)}"
                f"<obj>{rng.choice(ENTITIES3 + ['1907', '44'])}<et>"
            )
            sequences.append(tokenizer.encode(text) + [tokenizer.eos_id])
    return NgramScorer(sequences, tokenizer.vocab_size, tokenizer.eos_id)


def test_criterion_03_constrained_decoding_validity():
    started = time.perf_counter()
    tokenizer = ByteTokenizer()
    tries = DecodingTries(
        entity=build_trie(ENTITIES3, tokenizer),
        relation=build_trie(RELATIONS3, tokenizer),
        tail=build_trie(ENTITIES3 + year_labels(), tokenizer),
    )
    sub_id = tokenizer.special_id("<sub>")
    years = set(year_labels())
    decodes = 0
    empty_checks = 0
    for seed in range(1000):
        scorer = _random_scorer(seed, tokenizer)
        eos_lp, sub_lp = scorer.score((), sorted((tokenizer.eos_id, sub_id)))
        eos_dominates = eos_lp > sub_lp
        for beam in (1, 4):
            hypotheses = beam_search(
                scorer, tokenizer, mode="constrained", tries=tries,
                beam_size=beam, max_len=40, n_best=beam,
            )
            assert hypotheses
            decodes += 1
            for hypothesis in hypotheses:
                for raw in parse_linearized(tokenizer.decode(hypothesis.tokens)):
                    assert raw.head_label in ENTITIES3
                    assert raw.relation_label in RELATIONS3
                    assert raw.tail_label in ENTITIES3 or raw.tail_label in years
            if eos_dominates:
                empty_checks += 1
                assert hypotheses[0].tokens == (tokenizer.eos_id,)
                assert tokenizer.decode(hypotheses[0].tokens) == ""
    elapsed = time.perf_counter() - started
    assert empty_checks > 0, "fixture never exercised the EOS-dominant branch"
    report(
        3,
        elapsed,
        f"{decodes} decodes valid; empty output verified in {empty_checks} EOS-dominant runs",
    )


# -- 4. beam-search oracle --------------------------------------------------------


class TinyTokenizer:
    vocab_size = 6
    eos_id = 0

    def encode(self, text):
        raise NotImplementedError

    def decode(self, ids):
        return " ".join(map(str, ids))

    def special_id(self, token):
        raise KeyError(token)


class FixedDistributionScorer:
    def __init__(self, probs):
        self.logprobs = [math.log(p) for p in probs]

    def score(self, prefix, candidates):
        return [self.logprobs[c] for c in candidates]


def _enumerate_topk(scorer, vocab_size, eos_id, max_len, k):
    results = []

    def expand(prefix, score):
        if prefix and prefix[-1] == eos_id:
            results.append((prefix, score))
            return
        if len(prefix) == max_len:
            results.append((prefix, score))
            return
        stepwise = scorer.score(prefix, list(range(vocab_size)))
        for token, logprob in zip(range(vocab_size), stepwise):
            expand(prefix + (token,), score + logprob)

    expand((), 0.0)
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


def test_criterion_04_beam_search_oracle():
    started = time.perf_counter()
    tiny = TinyTokenizer()
    profiles = [
        (0.30, 0.25, 0.20, 0.15, 0.07, 0.03),
        (0.05, 0.50, 0.20, 0.15, 0.07, 0.03),
        (0.16, 0.17, 0.17, 0.17, 0.17, 0.16),
    ]
    cases = 0
    for probs, k in itertools.product(profiles, (1, 2, 3)):
        scorer = FixedDistributionScorer(probs)
        expected = _enumerate_topk(scorer, tiny.vocab_size, tiny.eos_id, 5, k)
        hypotheses = beam_search(
            scorer, tiny, mode="unconstrained", beam_size=k, max_len=5, n_best=k
        )
        assert [(h.tokens, h.score) for h in hypotheses] == expected
        cases += 1
    elapsed = time.perf_counter() - started
    report(4, elapsed, f"{cases} (profile, k) cases equal exhaustive enumeration exactly")


# -- 5. distant-supervision oracle ---------------------------------------------------


def test_criterion_05_ds_oracle():
    started = time.perf_counter()
    rng = random.Random(555)
    n_entities = 2000
    entities = [(f"Q{i}", f"Entity {i:04d}") for i in range(n_entities)]
    relations = [(f"P{i}", f"relation {i}", "") for i in range(40)]
    triple_rows: set[tuple[str, str, str]] = set()
    while len(triple_rows) < 10_000:
        head = f"Q{rng.randrange(n_entities)}"
        if rng.random() < 0.1:
            tail = str(rng.randint(1, 2100))
        else:
            tail = f"Q{rng.randrange(n_entities)}"
        triple_rows.add((head, f"P{rng.randrange(40)}", tail))
    kb = KbStore.from_records(entities, relations, sorted(triple_rows))

    # Test-local oracle index built by plain scan of the raw rows.
    oracle_index: dict[tuple[str, str], set[str]] = defaultdict(set)
    for head, pid, tail in triple_rows:
        oracle_index[(head, tail)].add(pid)

    heads = sorted({h for h, _, _ in triple_rows})
    tails = sorted({t for _, _, t in triple_rows})

    def random_sentence(i: int) -> LinkedSentence:
        n_spans = rng.randint(2, 6)
        links = []
        for _ in range(n_spans):
            roll = rng.random()
            if roll < 0.45:
                links.append(rng.choice(heads))
            elif roll < 0.8:
                links.append(rng.choice(tails))
            elif roll < 0.9:
                links.append(f"Q{rng.randrange(n_entities)}")
            else:
                links.append(None)
        text = ""
        spans = []
        for j, link in enumerate(links):
            start = len(text)
            surface = f"m{j}"
            text += surface + " "
            spans.append(MentionSpan(start, start + len(surface), surface, link))
        return LinkedSentence(text=text + "end.", spans=tuple(spans), id=f"s{i}")

    for i in range(1000):
        sentence = random_sentence(i)
        result = extract_ds_triples(sentence, kb)

        expected = set()
        linked = [s for s in sentence.spans if s.link]
        for a in linked:
            if a.link.isdigit():  # a year: the only all-digit links here
                continue
            for b in linked:
                if a is b:
                    continue
                for pid in oracle_index.get((a.link, b.link), ()):
                    expected.add(Triple(a.link, pid, b.link))
        assert set(result) == expected, f"mismatch on sentence {i}"
        assert len(result) == len(expected)  # already deduplicated
    elapsed = time.perf_counter() - started
    report(5, elapsed, "1000 random fixtures equal the pair-enumeration oracle")


# -- 6. filtering spec ---------------------------------------------------------------


def test_criterion_06_filtering_spec(small_kb):
    started = time.perf_counter()
    text_parts = []
    spans = []
    for i, link in enumerate(["Q145", "Q84", "Q38", "Q220", "Q62", "Q30", "1776"]):
        start = sum(len(p) + 1 for p in text_parts)
        surface = f"m{i}"
        text_parts.append(surface)
        spans.append(MentionSpan(start, start + len(surface), surface, link))
    sentence = LinkedSentence(
        text=" ".join(text_parts) + " plus filler words to reach ten easily.",
        spans=tuple(spans),
        id="filter-fixture",
    )
    triples = [
        Triple("Q145", "P36", "Q84"),
        Triple("Q84", "P17", "Q145"),
        Triple("Q38", "P36", "Q220"),
        Triple("Q220", "P17", "Q38"),
        Triple("Q62", "P17", "Q30"),
        Triple("Q62", "P571", "1776"),
        Triple("Q145", "P17", "Q38"),
        Triple("Q84", "P36", "Q220"),
        Triple("Q30", "P17", "Q62"),
        Triple("Q220", "P36", "Q145"),
    ]
    scores = [0.95, 0.71, 0.70, 0.69, 0.00, 1.00, 0.50, 0.75, 0.20, 0.85]

    def default_hypothesis(triple: Triple) -> str:
        head = small_kb.entity_label(triple.head) or triple.head
        tail = small_kb.entity_label(triple.tail) or triple.tail
        return f"{head} {small_kb.relation_label(triple.relation)} {tail}."

    table = {
        (sentence.text, default_hypothesis(t)): s for t, s in zip(triples, scores)
    }
    templates = HypothesisTemplates({})
    scorer = TableNliScorer(table)

    kept = entailment_filter([sentence], [triples], templates, scorer, 0.7, small_kb)[0]
    hand_filtered = [t for t, s in zip(triples, scores) if s > 0.7]
    assert [k.triple for k in kept] == hand_filtered
    assert all(k.score > 0.7 for k in kept)

    # Max-over-hypotheses: a second template lifts one triple over the bar.
    multi = HypothesisTemplates(
        {"P36": ["{head} {tail} low.", "{tail} is the capital of {head}."]}
    )
    capital = Triple("Q145", "P36", "Q84")
    two_scores = TableNliScorer(
        {
            (sentence.text, "United Kingdom London low."): 0.4,
            (sentence.text, "London is the capital of United Kingdom."): 0.9,
        }
    )
    (kept_multi,) = entailment_filter(
        [sentence], [[capital]], multi, two_scores, 0.7, small_kb
    )
    assert len(kept_multi) == 1 and kept_multi[0].score == 0.9

    # Monotonicity over a 0.0 -> 1.0 sweep.
    previous: set[Triple] | None = None
    for step in range(0, 101):
        threshold = step / 100
        kept_now = {
            k.triple
            for k in entailment_filter(
                [sentence], [triples], templates, scorer, threshold, small_kb
            )[0]
        }
        if previous is not None:
            assert kept_now <= previous
        previous = kept_now
    assert previous == set()  # threshold 1.0 keeps nothing
    elapsed = time.perf_counter() - started
    report(6, elapsed, "hand filter at 0.7, max rule, and monotone sweep all hold")


# -- 7. dataset composition -----------------------------------------------------------


def test_criterion_07_dataset_composition():
    started = time.perf_counter()
    kb = KbStore.from_records(corpus.ENTITIES, corpus.RELATIONS, corpus.TRIPLES)
    titles = corpus.TITLES

    def sentence(sid: str, links: list[str | None]) -> LinkedSentence:
        text = ""
        spans = []
        for j, link in enumerate(links):
            start = len(text)
            surface = titles.get(link, f"w{j}") if link else f"w{j}"
            text += surface + " "
            spans.append(MentionSpan(start, start + len(surface), surface, link))
        return LinkedSentence(
            text=text + "with filler words to pass the ingestion floor easily.",
            spans=tuple(spans),
            id=sid,
        )

    related = [(h, t) for h, _, t in corpus.TRIPLES if not t.isdigit()]
    unrelated = [
        ("Q145", "Q38"), ("Q142", "Q183"), ("Q17", "Q30"),
        ("Q84", "Q220"), ("Q90", "Q64"), ("Q1490", "Q62"),
    ]

    positives = []
    for i in range(5000):
        head, tail = related[i % len(related)]
        s = sentence(f"pos-{i}", [head, tail])
        triples = extract_ds_triples(s, kb)
        assert triples
        positives.append((s, triples))

    pool = []
    for i in range(2600):
        pool.append(sentence(f"one-{i}", ["Q220"] if i % 2 else []))
    for i in range(2600):
        a, b = unrelated[i % len(unrelated)]
        pool.append(sentence(f"two-{i}", [a, b]))

    pool = [(s, extract_ds_triples(s, kb)) for s in pool]
    negatives = sample_negatives(pool, 5000, seed=99)
    dataset = [dataset_record(s, t) for s, t in positives]
    dataset += [dataset_record(s, []) for s in negatives]
    assert len(dataset) == 10_000

    negative_share = sum(1 for r in dataset if r["is_negative"])
    assert abs(negative_share - 5000) <= 1

    categories = defaultdict(int)
    for s in negatives:
        categories[negative_category(s, extract_ds_triples(s, kb))] += 1
    assert abs(categories[1] - categories[2]) <= 1

    train, val, test = split_dataset(dataset, (0.90, 0.05, 0.05), seed=99)
    assert (len(train), len(val), len(test)) == (9000, 500, 500)
    elapsed = time.perf_counter() - started
    report(
        7,
        elapsed,
        f"10k set: {negative_share} negatives, categories {categories[1]}/{categories[2]}, "
        "split 9000/500/500",
    )


# -- 8. target formats ---------------------------------------------------------------


def test_criterion_08_target_formats(small_kb, uk_sentence):
    started = time.perf_counter()
    ordered = [Triple("Q145", "P36", "Q84")]

    entity_prompt = build_entity_prompt_target(uk_sentence, ordered, small_kb)
    assert entity_prompt == (
        "[ENTITY] UK # United Kingdom | London # London "
        "[TRIPLE] <sub> United Kingdom <rel> capital <obj> London <et>"
    )

    chain = entity_linking_chain(uk_sentence, ordered, small_kb)
    assert chain == "UK # United Kingdom | London # London"
    triple_target = "<sub> United Kingdom <rel> capital <obj> London <et>"
    el_instance, tri_instance = build_artificial_prompt_instances(
        uk_sentence, chain, triple_target
    )
    assert el_instance["input"] == f"<#el#> {uk_sentence.text}"
    assert el_instance["target"] == chain
    assert tri_instance["input"] == f"<#tri#> {uk_sentence.text}"
    assert tri_instance["target"] == triple_target

    dual = build_dual_target_instance(uk_sentence, chain, triple_target)
    assert dual["input"] == uk_sentence.text
    assert dual["target_ie"] == triple_target
    assert dual["target_el"] == chain

    assert combine_losses(2, 4, 0.5) == 3
    for alpha in (0.5, 0.75):
        assert combine_losses(1.0, 0.0, alpha) == alpha
    elapsed = time.perf_counter() - started
    report(8, elapsed, "entity/artificial/dual targets byte-exact; loss weights accepted")


# -- 9. metric correctness -------------------------------------------------------------


def test_criterion_09_metric_correctness(small_kb):
    started = time.perf_counter()
    gold = {
        "i1": [Triple("Q145", "P36", "Q84"), Triple("Q84", "P17", "Q145")],
        "i2": [Triple("Q38", "P36", "Q220"), Triple("Q62", "P571", "1776")],
        "i3": [],
        "i4": [],
    }
    pred = {
        "i1": [
            RawTriple("United Kingdom", "capital", "London"),
            RawTriple("London", "country", "United Kingdom"),
            RawTriple("Italy", "country", "Rome"),
        ],
        "i2": [
            RawTriple("Italy", "capital", "Rome"),
            RawTriple("Ghidorah", "capital", "Tokyo"),
        ],
        "i3": [],
        "i4": [],
    }
    rep = score_predictions(pred, gold, small_kb)
    assert rep.precision == pytest.approx(0.6, abs=1e-12)
    assert rep.recall == pytest.approx(0.75, abs=1e-12)
    assert rep.f1 == pytest.approx(2 / 3, abs=1e-9)
    assert abs(2 * rep.precision * rep.recall / (rep.precision + rep.recall) - rep.f1) < 1e-9

    all_empty = score_predictions(
        {k: [] for k in gold}, gold, small_kb
    )
    assert all_empty.precision == 0.0
    assert all_empty.recall == 0.0
    assert all_empty.accuracy_negative == 1.0
    assert all_empty.empty_positive_rate == 1.0
    elapsed = time.perf_counter() - started
    report(9, elapsed, "hand-counted fixture and all-empty degenerate case reproduced")


# -- 10. end-to-end smoke ---------------------------------------------------------------


def test_criterion_10_end_to_end_smoke(tmp_path):
    started = time.perf_counter()
    kb_paths = corpus.write_kb_fixture(tmp_path / "kb")
    workdir = tmp_path / "run"

    paths = corpus.run_pipeline(kb_paths, workdir, seed=7)
    files = corpus.pipeline_output_files(paths)
    snapshot = {f: f.read_bytes() for f in files}

    report_data = json.loads(paths["report"].read_text())
    assert report_data["accuracy_negative"] == 1.0

    manifest = json.loads(
        Path(str(paths["dataset"]) + ".manifest.json").read_text()
    )
    assert manifest["stage"] == "negatives"
    assert manifest["seed"] == 7
    assert "duration" not in json.dumps(manifest)

    # Rerun with the same seed into the same paths: byte-identical artifacts.
    corpus.run_pipeline(kb_paths, workdir, seed=7)
    for f, blob in snapshot.items():
        assert f.read_bytes() == blob, f"rerun changed {f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"smoke took {elapsed:.2f}s (budget 60s)"
    report(10, elapsed, "pipeline deterministic; accuracy_negative=1.0 with EOS mock")
