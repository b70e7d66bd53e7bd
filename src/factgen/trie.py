"""Token-level prefix tries over label vocabularies.

A trie accepts exactly the tokenizer encodings of its label set and answers
the constrained decoder's one question: given the tokens generated so far
inside a label, which tokens may come next, and is the current prefix
itself a complete label? Tries are immutable after construction and safe
for concurrent readers.

Nodes live in flat arrays. They are numbered in preorder, the root is node
0, and node ``n`` owns the child slots ``first[n]:first[n + 1]``, which hold
its children's token ids in ascending order and their node numbers. The
decoder keeps a node number as its position, so one step is one child
lookup.

A binary cache format is provided so large vocabularies can be built once:
magic ``TRI1``, then the node count, then the nodes in preorder as
(token-id varint, child-count varint, terminal byte). Loading reads the
nodes in one loop, so label length is not limited by the call stack.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .tokenizers import Tokenizer

TRIE_MAGIC = b"TRI1"

_ROOT = 0


class TrieError(Exception):
    pass


class TrieBuildError(TrieError):
    pass


class TrieCacheError(TrieError):
    """Corrupt or truncated binary cache."""


class Continuations(NamedTuple):
    """Allowed next tokens for a prefix, plus whether it is a full label."""

    tokens: tuple[int, ...]
    complete: bool


class ConstraintTrie:
    """A trie in flat arrays; build it with :func:`build_trie` or load it."""

    __slots__ = ("_first", "_tokens", "_child", "_terminal", "_label_count")

    def __init__(self, token_of: array, parent_of: array, child_counts: array,
                 terminal: bytearray) -> None:
        """Lay out child slots from per-node arrays in preorder.

        ``token_of[n]`` and ``parent_of[n]`` describe the edge into node
        ``n`` (ignored for the root); siblings must appear in ascending
        token order.
        """
        # Stable sort by parent: slots grouped by parent in node order, and
        # within a parent in preorder, which is ascending token order.
        slots = sorted(range(1, len(terminal)), key=parent_of.__getitem__)
        self._first = array("I", accumulate(child_counts, initial=0))
        self._tokens = array("I", map(token_of.__getitem__, slots))
        self._child = array("I", slots)
        self._terminal = terminal
        self._label_count = terminal.count(1)

    # -- node-level access, used by the decoder --------------------------

    def child(self, node: int, token_id: int) -> int:
        """The child of ``node`` along ``token_id``, or -1 if there is none."""
        hi = self._first[node + 1]
        slot = bisect_left(self._tokens, token_id, self._first[node], hi)
        if slot < hi and self._tokens[slot] == token_id:
            return self._child[slot]
        return -1

    def children(self, node: int) -> array:
        """Token ids of ``node``'s children, ascending."""
        return self._tokens[self._first[node]:self._first[node + 1]]

    def is_terminal(self, node: int) -> bool:
        return self._terminal[node] == 1

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
        token_of = [0] * self.node_count
        for slot, node in enumerate(self._child):
            token_of[node] = self._tokens[slot]
        first = self._first
        out = bytearray(TRIE_MAGIC)
        _write_varint(out, self.node_count)
        for node, terminal in enumerate(self._terminal):
            _write_varint(out, token_of[node])
            _write_varint(out, first[node + 1] - first[node])
            out.append(terminal)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ConstraintTrie":
        if blob[: len(TRIE_MAGIC)] != TRIE_MAGIC:
            raise TrieCacheError("bad magic bytes")
        declared, pos = _read_varint(blob, len(TRIE_MAGIC))
        token_of = array("I")
        parent_of = array("I")
        child_counts = array("I")
        terminal = bytearray()
        # One entry per node whose children are still being read:
        # [node, children left, token id of the last child read].
        open_nodes: list[list[int]] = []
        try:
            while True:
                token_id, pos = _read_varint(blob, pos)
                children, pos = _read_varint(blob, pos)
                if pos >= len(blob):
                    raise TrieCacheError("truncated node")
                flag = blob[pos]
                pos += 1
                if flag > 1:
                    raise TrieCacheError(f"terminal byte {flag} is neither 0 nor 1")
                node = len(terminal)
                parent = _ROOT
                if open_nodes:
                    entry = open_nodes[-1]
                    parent = entry[0]
                    if token_id <= entry[2]:
                        raise TrieCacheError(
                            f"children of node {parent} are not in ascending token order"
                        )
                    entry[2] = token_id
                    entry[1] -= 1
                    if not entry[1]:
                        open_nodes.pop()
                token_of.append(token_id)
                parent_of.append(parent)
                child_counts.append(children)
                terminal.append(flag)
                if children:
                    open_nodes.append([node, children, -1])
                elif not open_nodes:
                    break
        except OverflowError:
            raise TrieCacheError("token id or child count out of range") from None
        if len(terminal) != declared:
            raise TrieCacheError(
                f"node count mismatch: header says {declared}, read {len(terminal)}"
            )
        if pos != len(blob):
            raise TrieCacheError(f"{len(blob) - pos} trailing bytes")
        return cls(token_of, parent_of, child_counts, terminal)

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
    empty sequence must never be a completion.
    """
    encodings = set()
    for label in labels:
        if not label:
            raise TrieBuildError("empty label")
        ids = tuple(tokenizer.encode(label))
        if not ids:
            raise TrieBuildError(f"label {label!r} encodes to no tokens")
        encodings.add(ids)
    token_of = array("I", [0])
    parent_of = array("I", [_ROOT])
    child_counts = array("I", [0])
    terminal = bytearray(1)
    # In sorted order each encoding shares a prefix with the previous one
    # and adds its remaining tokens as new nodes, which is preorder.
    path = [_ROOT]
    previous: tuple[int, ...] = ()
    for ids in sorted(encodings):
        shared = 0
        limit = min(len(ids), len(previous))
        while shared < limit and ids[shared] == previous[shared]:
            shared += 1
        del path[shared + 1:]
        node = path[-1]
        for token_id in ids[shared:]:
            child_counts[node] += 1
            token_of.append(token_id)
            parent_of.append(node)
            child_counts.append(0)
            terminal.append(0)
            node = len(terminal) - 1
            path.append(node)
        terminal[node] = 1
        previous = ids
    return ConstraintTrie(token_of, parent_of, child_counts, terminal)


def year_labels(first: int = 1, last: int = 2100) -> list[str]:
    """Year literals admitted in the tail position alongside entity labels."""
    return [str(year) for year in range(first, last + 1)]


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(blob: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(blob):
            raise TrieCacheError("truncated varint")
        byte = blob[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
