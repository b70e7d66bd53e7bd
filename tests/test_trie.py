from __future__ import annotations

import random

import pytest

from factgen.trie import (
    ConstraintTrie,
    TrieBuildError,
    TrieCacheError,
    build_trie,
    year_labels,
)


def bruteforce_continuations(encodings: list[tuple[int, ...]], prefix: tuple[int, ...]):
    """Oracle: plain filter over all label encodings."""
    tokens = {
        enc[len(prefix)]
        for enc in encodings
        if len(enc) > len(prefix) and enc[: len(prefix)] == prefix
    }
    complete = prefix in encodings
    return tokens, complete


def test_single_byte_label(tok):
    trie = build_trie(["a"], tok)
    assert trie.accepts([97])
    assert not trie.accepts([98])
    assert not trie.accepts([])
    assert trie.allowed_continuations(()) == ((97,), False)
    assert trie.allowed_continuations((97,)) == ((), True)


def test_empty_label_is_an_error(tok):
    with pytest.raises(TrieBuildError):
        build_trie(["ok", ""], tok)


def test_duplicate_labels_are_idempotent(tok):
    once = build_trie(["Italy", "India"], tok)
    twice = build_trie(["Italy", "India", "Italy"], tok)
    assert once.node_count == twice.node_count
    assert once.label_count == twice.label_count == 2


def test_empty_prefix_lists_first_tokens(tok):
    trie = build_trie(["Italy", "India", "Oman"], tok)
    tokens, complete = trie.allowed_continuations(())
    assert set(tokens) == {ord("I"), ord("O")}
    assert not complete


def test_full_label_sets_completion_flag(tok):
    trie = build_trie(["Italy"], tok)
    tokens, complete = trie.allowed_continuations(tuple(tok.encode("Italy")))
    assert complete
    assert tokens == ()


def test_off_trie_prefix_is_empty_not_an_error(tok):
    trie = build_trie(["Italy"], tok)
    assert trie.allowed_continuations((120, 121)) == ((), False)


def test_prefix_label_keeps_both_options(tok):
    trie = build_trie(["London", "London Bridge"], tok)
    tokens, complete = trie.allowed_continuations(tuple(tok.encode("London")))
    assert complete
    assert tokens == (ord(" "),)


def random_labels(rng: random.Random, n: int) -> list[str]:
    alphabet = "abcdefghijklmnop"
    labels = set()
    while len(labels) < n:
        labels.add(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        )
    return sorted(labels)


def test_membership_matches_hashset_oracle(tok):
    rng = random.Random(99)
    labels = random_labels(rng, 300)
    trie = build_trie(labels, tok)
    label_set = set(labels)
    for label in labels:
        assert trie.accepts(tok.encode(label))
    for _ in range(300):
        probe = "".join(rng.choice("abcdefghijklmnopqrstu") for _ in range(rng.randint(1, 12)))
        assert trie.accepts(tok.encode(probe)) == (probe in label_set)


def test_build_is_order_independent(tok):
    rng = random.Random(5)
    labels = random_labels(rng, 100)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    assert build_trie(labels, tok).to_bytes() == build_trie(shuffled, tok).to_bytes()


def test_continuations_match_bruteforce_oracle(tok):
    rng = random.Random(17)
    labels = random_labels(rng, 120)
    trie = build_trie(labels, tok)
    encodings = [tuple(tok.encode(label)) for label in labels]
    queries = []
    for enc in encodings:
        for cut in range(len(enc) + 1):
            queries.append(enc[:cut])
    for _ in range(500):
        queries.append(
            tuple(tok.encode("".join(rng.choice("abcdefxyz") for _ in range(rng.randint(1, 8)))))
        )
    for prefix in queries:
        tokens, complete = trie.allowed_continuations(prefix)
        assert (set(tokens), complete) == bruteforce_continuations(encodings, prefix)


def test_no_dead_ends(tok):
    rng = random.Random(23)
    labels = random_labels(rng, 150)
    trie = build_trie(labels, tok)
    stack = [()]
    while stack:
        prefix = stack.pop()
        tokens, complete = trie.allowed_continuations(prefix)
        assert tokens or complete, f"dead end at {prefix}"
        stack.extend(prefix + (t,) for t in tokens)


def test_node_count_bound(tok):
    rng = random.Random(31)
    labels = random_labels(rng, 200)
    trie = build_trie(labels, tok)
    total_tokens = sum(len(tok.encode(label)) for label in labels)
    assert trie.node_count <= total_tokens + 1


def test_year_labels_span_range():
    years = year_labels()
    assert years[0] == "1"
    assert years[-1] == "2100"
    assert "1776" in years


# -- binary cache ---------------------------------------------------------------


def test_cache_roundtrip_is_bit_identical(tok, tmp_path):
    rng = random.Random(41)
    labels = random_labels(rng, 200)
    trie = build_trie(labels, tok)
    path = tmp_path / "labels.trie"
    trie.save(str(path))
    assert path.read_bytes()[:4] == b"TRI1"
    loaded = ConstraintTrie.load(str(path))
    assert loaded.to_bytes() == trie.to_bytes()
    assert loaded.node_count == trie.node_count
    assert loaded.label_count == trie.label_count
    encodings = [tuple(tok.encode(label)) for label in labels]
    for enc in encodings:
        for cut in range(len(enc) + 1):
            assert loaded.allowed_continuations(enc[:cut]) == trie.allowed_continuations(
                enc[:cut]
            )


def test_cache_rejects_bad_magic():
    with pytest.raises(TrieCacheError):
        ConstraintTrie.from_bytes(b"NOPE\x00")


def test_cache_rejects_truncation(tok):
    blob = build_trie(["abc", "abd"], tok).to_bytes()
    with pytest.raises(TrieCacheError):
        ConstraintTrie.from_bytes(blob[:-2])


def test_cache_rejects_trailing_garbage(tok):
    blob = build_trie(["abc"], tok).to_bytes()
    with pytest.raises(TrieCacheError):
        ConstraintTrie.from_bytes(blob + b"\x00")


def test_cache_rejects_node_count_mismatch(tok):
    blob = bytearray(build_trie(["abc", "abd"], tok).to_bytes())
    assert blob[4] == 5  # one-byte varint header: root, a, b, c, d
    blob[4] = 6
    with pytest.raises(TrieCacheError, match="node count mismatch"):
        ConstraintTrie.from_bytes(bytes(blob))


def test_cache_rejects_terminal_byte_other_than_0_or_1(tok):
    blob = bytearray(build_trie(["a"], tok).to_bytes())
    assert blob[-1] == 1  # the leaf "a" is the last node
    blob[-1] = 2
    with pytest.raises(TrieCacheError, match="terminal byte"):
        ConstraintTrie.from_bytes(bytes(blob))


@pytest.mark.parametrize("second", [b"\x61", b"\x62"])
def test_cache_rejects_children_out_of_order(second):
    # Root with two leaf children: "b" then "a" (descending) or "b" twice.
    blob = b"TRI1\x03" + b"\x00\x02\x00" + b"\x62\x00\x01" + second + b"\x00\x01"
    with pytest.raises(TrieCacheError, match="ascending"):
        ConstraintTrie.from_bytes(blob)


def test_cache_loads_very_long_labels(tok):
    # Each token is one level of nesting; loading must not recurse per level.
    labels = ["x" * 1500, "y" * 5000, "y" * 4999 + "z"]
    trie = build_trie(labels, tok)
    loaded = ConstraintTrie.from_bytes(trie.to_bytes())
    assert loaded.to_bytes() == trie.to_bytes()
    assert loaded.node_count == trie.node_count == 1 + 1500 + 5000 + 1
    for label in labels:
        assert loaded.accepts(tok.encode(label))
    assert not loaded.accepts(tok.encode("y" * 4999))
    assert loaded.allowed_continuations(tok.encode("y" * 4999)) == ((ord("y"), ord("z")), False)


def test_node_level_walk_matches_prefix_queries(tok):
    rng = random.Random(53)
    labels = random_labels(rng, 120)
    trie = build_trie(labels, tok)
    for label in labels:
        node = 0
        for cut, token_id in enumerate(tok.encode(label)):
            tokens, complete = trie.allowed_continuations(tok.encode(label[:cut]))
            assert tuple(trie.children(node)) == tokens
            assert trie.is_terminal(node) == complete
            node = trie.child(node, token_id)
            assert node > 0
        assert trie.is_terminal(node)
        assert trie.child(node, ord("~")) == -1
