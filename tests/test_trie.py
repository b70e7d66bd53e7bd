from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgen.tokenizers import ByteTokenizer
from factgen.trie import (
    ConstraintTrie,
    TrieBuildError,
    TrieCacheError,
    build_trie,
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


def test_a_label_holding_eos_is_an_error(tok):
    # EOS always ends a hypothesis, and a marker inside a label breaks the
    # parse of its target, so no label may hold any reserved symbol.
    for label, message in [
        ("A</s>B", "label 'A</s>B' holds reserved symbol '</s>' (id 256)"),
        ("A <rel> B", "label 'A <rel> B' holds reserved symbol '<rel>' (id 258)"),
    ]:
        with pytest.raises(TrieBuildError) as raised:
            build_trie(["ok", label], tok)
        assert str(raised.value) == message


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


# -- binary cache ---------------------------------------------------------------


def cache_blob(first, tokens, terminal) -> bytes:
    """A TRI2 cache written by hand: header, offsets, slot tokens, terminal bytes."""
    words = (len(terminal), *first, *tokens)
    return b"TRI2" + struct.pack(f"<{len(words)}I", *words) + bytes(terminal)


def walk_every_node(trie: ConstraintTrie) -> None:
    """Visit the whole trie from the root; every node stays in range, once."""
    seen = set()
    stack = [0]
    while stack:
        node = stack.pop()
        assert 0 <= node < trie.node_count and node not in seen
        seen.add(node)
        tokens = tuple(trie.children(node))
        assert list(tokens) == sorted(set(tokens))
        assert tokens or trie.is_terminal(node) or trie.node_count == 1, f"dead end {node}"
        stack.extend(trie.child(node, t) for t in tokens)
    assert len(seen) == trie.node_count


def test_cache_layout_is_the_breadth_first_arrays(tok):
    # Root 0 -> a 1, b 2; a -> b 3, c 4: the child in slot s is node s + 1.
    trie = build_trie(["ab", "ac", "b"], tok)
    assert trie.to_bytes() == cache_blob(
        first=[0, 2, 4, 4, 4, 4], tokens=[97, 98, 98, 99], terminal=[0, 0, 1, 1, 1]
    )
    assert trie.child(0, 98) == 2 and trie.child(1, 99) == 4


def test_cache_roundtrip_is_bit_identical(tok, tmp_path):
    rng = random.Random(41)
    labels = random_labels(rng, 200)
    trie = build_trie(labels, tok)
    path = tmp_path / "labels.trie"
    trie.save(str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"TRI2"
    assert len(blob) == 8 + 9 * trie.node_count
    loaded = ConstraintTrie.load(str(path))
    assert loaded.to_bytes() == blob
    assert loaded.node_count == trie.node_count
    assert loaded.label_count == trie.label_count
    encodings = [tuple(tok.encode(label)) for label in labels]
    for enc in encodings:
        for cut in range(len(enc) + 1):
            assert loaded.allowed_continuations(enc[:cut]) == trie.allowed_continuations(
                enc[:cut]
            )


def test_empty_trie_is_only_its_root(tok):
    # The root is exempt from the dead-end rule: no labels, one node.
    trie = build_trie([], tok)
    assert trie.to_bytes() == cache_blob(first=[0, 0], tokens=[], terminal=[0])
    loaded = ConstraintTrie.from_bytes(trie.to_bytes())
    assert (loaded.node_count, loaded.label_count) == (1, 0)
    assert loaded.allowed_continuations(()) == ((), False)


def test_cache_rejects_bad_magic():
    # An older TRI1 cache, here the label "a", names the stage that rewrites it.
    for blob in (b"NOPE\x00", b"TRI1\x02\x00\x01\x00\x61\x00\x01", b""):
        with pytest.raises(TrieCacheError, match="bad magic bytes .*rerun build-trie"):
            ConstraintTrie.from_bytes(blob)


def test_cache_rejects_truncation(tok):
    blob = build_trie(["abc", "abd"], tok).to_bytes()
    for cut in (5, 8, len(blob) - 1):
        with pytest.raises(TrieCacheError, match="truncated|node count mismatch"):
            ConstraintTrie.from_bytes(blob[:cut])


def test_cache_rejects_trailing_garbage(tok):
    blob = build_trie(["abc"], tok).to_bytes()
    with pytest.raises(TrieCacheError, match="node count mismatch"):
        ConstraintTrie.from_bytes(blob + b"\x00")


def test_cache_rejects_node_count_mismatch(tok):
    blob = bytearray(build_trie(["abc", "abd"], tok).to_bytes())
    assert blob[4:8] == (5).to_bytes(4, "little")  # root, a, b, c, d
    for declared in (0, 4, 6, 2**32 - 1):
        blob[4:8] = declared.to_bytes(4, "little")
        with pytest.raises(TrieCacheError, match="node count mismatch"):
            ConstraintTrie.from_bytes(bytes(blob))
    with pytest.raises(TrieCacheError, match="node count mismatch"):
        ConstraintTrie.from_bytes(b"TRI2" + bytes(4))  # zero nodes: not even a root


def test_cache_rejects_terminal_byte_other_than_0_or_1(tok):
    blob = bytearray(build_trie(["a"], tok).to_bytes())
    assert blob[-1] == 1  # the leaf "a" is the last node
    blob[-1] = 2
    with pytest.raises(TrieCacheError, match="terminal byte"):
        ConstraintTrie.from_bytes(bytes(blob))


@pytest.mark.parametrize(
    "first",
    [[1, 2, 4, 4, 4, 4], [0, 2, 4, 4, 4, 3], [0, 3, 2, 4, 4, 4]],
    ids=["start", "end", "dip"],
)
def test_cache_rejects_offsets_that_are_not_monotone(first):
    # The arrays of ["ab", "ac", "b"] with first = [0, 2, 4, 4, 4, 4] load.
    blob = cache_blob(first, tokens=[97, 98, 98, 99], terminal=[0, 0, 1, 1, 1])
    with pytest.raises(TrieCacheError, match="monotone"):
        ConstraintTrie.from_bytes(blob)


def test_cache_rejects_a_child_placed_before_its_parent():
    # Node 3 owns slots 1 and 2, that is nodes 2 and 3: itself and an
    # earlier node. Offsets are monotone from 0 to 3.
    blob = cache_blob(first=[0, 1, 1, 1, 3], tokens=[97, 97, 98], terminal=[0, 1, 1, 1])
    with pytest.raises(TrieCacheError, match="before its parent"):
        ConstraintTrie.from_bytes(blob)


@pytest.mark.parametrize("second", [0x61, 0x62], ids=["a", "b"])
def test_cache_rejects_children_out_of_order(second):
    # Root with two leaf children: "b" then "a" (descending) or "b" twice.
    blob = cache_blob(first=[0, 2, 2, 2], tokens=[0x62, second], terminal=[0, 1, 1])
    with pytest.raises(TrieCacheError, match="ascending"):
        ConstraintTrie.from_bytes(blob)


def test_cache_rejects_a_dead_end():
    # Root -> "a", a leaf that ends no label: decoding could enter it and
    # never close the label.
    blob = cache_blob(first=[0, 1, 1], tokens=[97], terminal=[0, 0])
    with pytest.raises(TrieCacheError, match="dead end"):
        ConstraintTrie.from_bytes(blob)
    assert ConstraintTrie.from_bytes(cache_blob([0, 1, 1], [97], [0, 1])).label_count == 1


def test_cache_rejects_a_terminal_root():
    # A terminal root is an empty label, which build_trie refuses: a decoder
    # could close a subject label right after <sub>.
    for first, tokens in (([0, 1, 1], [97]), ([0, 0], [])):
        blob = cache_blob(first, tokens, [1] * len(first[1:]))
        with pytest.raises(TrieCacheError, match="root is terminal"):
            ConstraintTrie.from_bytes(blob)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    labels=st.lists(st.text("abcd", min_size=1, max_size=5), max_size=8),
    value=st.integers(0, 255),
)
def test_cache_roundtrip_and_corruption_property(labels, value):
    tok = ByteTokenizer()
    blob = build_trie(labels, tok).to_bytes()
    loaded = ConstraintTrie.from_bytes(blob)
    assert loaded.to_bytes() == blob
    encodings = [tuple(tok.encode(label)) for label in labels]
    prefixes = {enc[:cut] for enc in encodings for cut in range(len(enc) + 1)}
    for prefix in prefixes | {p + (ord("e"),) for p in prefixes}:
        tokens, complete = loaded.allowed_continuations(prefix)
        assert (set(tokens), complete) == bruteforce_continuations(encodings, prefix)
    walk_every_node(loaded)
    # Every truncation and, at every byte, two single-byte mutations either
    # fail to load with TrieCacheError or load a trie that walks in range.
    corrupted = [blob[:cut] for cut in range(len(blob))]
    for at, byte in enumerate(blob):
        for other in {value, byte ^ 1} - {byte}:
            corrupted.append(blob[:at] + bytes([other]) + blob[at + 1:])
    for bad in corrupted:
        try:
            trie = ConstraintTrie.from_bytes(bad)
        except TrieCacheError:
            continue
        walk_every_node(trie)


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
