"""Token-level prefix tries over label vocabularies.

A trie accepts exactly the tokenizer encodings of its label set and answers
the constrained decoder's one question: given the tokens generated so far
inside a label, which tokens may come next, and is the current prefix
itself a complete label? Tries are immutable after construction and safe
for concurrent readers.

Nodes are numbered breadth first, as in LOUDS (Jacobson 1989), with siblings
in ascending token order. The root is node 0, node ``n`` owns the child
slots ``first[n]:first[n + 1]``, which hold its children's token ids in
ascending order, and the child in slot ``s`` is node ``s + 1``. The decoder
keeps a node number as its position, so one step is one child lookup.

The binary cache is those arrays, every integer a little-endian uint32:
magic ``TRI2``, the node count ``n``, ``first`` (``n + 1`` of them), the
``n - 1`` slot tokens, then one terminal byte (0 or 1) per node. Loading
reads them whole and checks them in a few linear scans.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from itertools import chain, compress
from operator import ge, or_, sub
from typing import Iterable, NamedTuple, Sequence

from .tokenizers import SPECIAL_TOKENS, Tokenizer

TRIE_MAGIC = b"TRI2"

_ROOT = 0


class TrieError(Exception):
    pass


class TrieBuildError(TrieError):
    pass


class TrieCacheError(TrieError):
    """Corrupt, truncated or outdated binary cache."""


class Continuations(NamedTuple):
    """Allowed next tokens for a prefix, plus whether it is a full label."""

    tokens: tuple[int, ...]
    complete: bool


class ConstraintTrie:
    """A trie in flat arrays; build it with :func:`build_trie` or load it."""

    __slots__ = ("_first", "_tokens", "_terminal", "_label_count")

    def __init__(self, first: array, tokens: array, terminal: bytearray) -> None:
        """Wrap breadth-first arrays: ``tokens[s]`` labels the edge into node ``s + 1``."""
        self._first = first
        self._tokens = tokens
        self._terminal = terminal
        self._label_count = terminal.count(1)

    # -- node-level access, used by the decoder --------------------------

    def child(self, node: int, token_id: int) -> int:
        """The child of ``node`` along ``token_id``, or -1 if there is none."""
        hi = self._first[node + 1]
        slot = bisect_left(self._tokens, token_id, self._first[node], hi)
        if slot < hi and self._tokens[slot] == token_id:
            return slot + 1
        return -1

    def children(self, node: int) -> array:
        """Token ids of ``node``'s children, ascending."""
        return self._tokens[self._first[node]:self._first[node + 1]]

    def is_terminal(self, node: int) -> bool:
        return self._terminal[node] == 1

    def reserved_symbol(self, tokenizer: Tokenizer) -> str | None:
        """The reserved symbol some label's encoding holds, as for
        :func:`build_trie`'s error, found in one pass over the slot tokens;
        None if no label holds one."""
        return _held_symbol(self._tokens, tokenizer)

    def _walk(self, ids: Sequence[int]) -> int:
        node = _ROOT
        for token_id in ids:
            node = self.child(node, token_id)
            if node < 0:
                break
        return node

    # -- prefix-level queries --------------------------------------------

    def allowed_continuations(self, prefix: Sequence[int]) -> Continuations:
        """Exact next-token set for the prefix; empty and False off-trie."""
        node = self._walk(prefix)
        if node < 0:
            return Continuations((), False)
        return Continuations(tuple(self.children(node)), self.is_terminal(node))

    def accepts(self, ids: Sequence[int]) -> bool:
        node = self._walk(ids)
        return node >= 0 and self.is_terminal(node)

    @property
    def node_count(self) -> int:
        return len(self._terminal)

    @property
    def label_count(self) -> int:
        return self._label_count

    # -- binary cache --------------------------------------------------

    def to_bytes(self) -> bytes:
        header = TRIE_MAGIC + self.node_count.to_bytes(4, "little")
        arrays = (_little_endian(values).tobytes() for values in (self._first, self._tokens))
        return b"".join((header, *arrays, self._terminal))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ConstraintTrie":
        if blob[:4] != TRIE_MAGIC:
            raise TrieCacheError(f"bad magic bytes {blob[:4]!r}: rerun build-trie to rewrite it")
        n = int.from_bytes(blob[4:8], "little")
        if n < 1 or len(blob) != 8 + 9 * n:  # a truncated header included
            raise TrieCacheError(f"node count mismatch: {len(blob)} bytes for {n} nodes")
        tokens_at = 12 + 4 * n
        first = _little_endian(array("I", blob[8:tokens_at]))
        tokens = _little_endian(array("I", blob[tokens_at:8 + 8 * n]))
        terminal = bytearray(blob[8 + 8 * n:])
        if terminal.translate(None, b"\x00\x01"):
            raise TrieCacheError("a terminal byte is neither 0 nor 1")
        counts = list(map(sub, first[1:], first))  # children per node
        if first[0] != 0 or first[n] != n - 1 or min(counts) < 0:
            raise TrieCacheError("child offsets do not run monotone from 0 to node count - 1")
        # Node i's children start at node first[i] + 1, which must follow i.
        if not all(map(ge, first, range(n))):
            raise TrieCacheError("a child is numbered before its parent")
        # Slot s descends when its token is not above slot s - 1's (slot 0
        # always does). Every sibling run ascends strictly exactly when each
        # descent is the first slot of a run.
        descends = bytes(map(ge, chain((1 << 32,), tokens), tokens))
        if sum(map(descends.__getitem__, compress(first, counts))) != descends.count(1):
            raise TrieCacheError("sibling tokens are not in strictly ascending order")
        if terminal[0]:
            raise TrieCacheError("the root is terminal: an empty label")
        # Every node but the root must end a label or lead on to one.
        if not all(map(or_, counts[1:], terminal[1:])):
            raise TrieCacheError("a leaf node is not terminal: a dead end")
        return cls(first, tokens, terminal)

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "ConstraintTrie":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())


def build_trie(labels: Iterable[str], tokenizer: Tokenizer) -> ConstraintTrie:
    """Build a trie accepting exactly the encodings of the label set.

    Duplicate labels are harmless; an empty label is an error because the
    empty sequence must never be a completion, and so is a label whose
    encoding holds a reserved symbol: end-of-sequence always ends a
    hypothesis, and a marker inside a label breaks the parse of its target.
    """
    encodings = set()
    reserved_ids = frozenset(map(tokenizer.special_id, SPECIAL_TOKENS))
    for label in labels:
        if not label:
            raise TrieBuildError("empty label")
        ids = tuple(tokenizer.encode(label))
        if not ids:
            raise TrieBuildError(f"label {label!r} encodes to no tokens")
        if not reserved_ids.isdisjoint(ids):
            raise TrieBuildError(f"label {label!r} holds {_held_symbol(ids, tokenizer)}")
        encodings.add(ids)
    ordered = sorted(encodings)
    first = array("I", [0])
    tokens = array("I")
    terminal = bytearray()
    # Node: the run ordered[lo:hi] sharing its prefix of length depth.
    pending = deque([(0, len(ordered), 0)])
    while pending:
        lo, hi, depth = pending.popleft()
        # The prefix itself, if it is a label, sorts first in its run.
        is_label = lo < hi and len(ordered[lo]) == depth
        terminal.append(is_label)
        lo += is_label
        while lo < hi:
            token_id = ordered[lo][depth]
            end = lo + 1
            while end < hi and ordered[end][depth] == token_id:
                end += 1
            tokens.append(token_id)
            pending.append((lo, end, depth + 1))
            lo = end
        first.append(len(tokens))
    return ConstraintTrie(first, tokens, terminal)


def _held_symbol(ids: Iterable[int], tokenizer: Tokenizer) -> str | None:
    """``reserved symbol '<rel>' (id 258)`` for the lowest reserved id that
    ``ids`` holds, in one pass over ``ids``; None if it holds none."""
    reserved = {tokenizer.special_id(symbol): symbol for symbol in SPECIAL_TOKENS}
    held = reserved.keys() & ids
    if not held:
        return None
    token_id = min(held)
    return f"reserved symbol {reserved[token_id]!r} (id {token_id})"


def _little_endian(values: array) -> array:
    """``values`` itself on a little-endian host, else a byte-swapped copy."""
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return values
