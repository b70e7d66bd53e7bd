"""Reserved symbols, the tokenizer interface and the byte-level tokenizer.

The nine reserved symbols of the linearized language are defined here, once.
Decoding constraints operate on token ids, so every tokenizer must map each
reserved symbol to exactly one id and must invert its own encoding exactly
on label strings, which hold no reserved symbol (:func:`factgen.kb.is_label`).
Production subword tokenizers plug in behind the same protocol; the
byte-level tokenizer here is the deterministic default used across the test
suite.
"""

from __future__ import annotations

import re
from typing import Iterable, Protocol, runtime_checkable

EOS_TOKEN = "</s>"
SUB_TOKEN = "<sub>"
REL_TOKEN = "<rel>"
OBJ_TOKEN = "<obj>"
END_TRIPLE_TOKEN = "<et>"
ENTITY_MARKER = "[ENTITY]"
TRIPLE_MARKER = "[TRIPLE]"
EL_PROMPT = "<#el#>"
IE_PROMPT = "<#tri#>"

#: Reserved symbols in id-assignment order; EOS first.
SPECIAL_TOKENS = (
    EOS_TOKEN,
    SUB_TOKEN,
    REL_TOKEN,
    OBJ_TOKEN,
    END_TRIPLE_TOKEN,
    ENTITY_MARKER,
    TRIPLE_MARKER,
    EL_PROMPT,
    IE_PROMPT,
)


@runtime_checkable
class Tokenizer(Protocol):
    def encode(self, text: str) -> list[int]:
        ...

    def decode(self, ids: Iterable[int]) -> str:
        ...

    def special_id(self, token: str) -> int:
        ...

    @property
    def eos_id(self) -> int:
        ...

    @property
    def vocab_size(self) -> int:
        ...


class ByteTokenizer:
    """UTF-8 bytes as ids 0..255, reserved symbols as single ids above.

    ``encode`` matches reserved symbol literals atomically wherever they
    occur, so special tokens never leak into byte sequences. ``decode``
    renders EOS as the empty string (it terminates, it is not text) and
    replaces invalid UTF-8 byte runs rather than failing, which keeps
    decoding total on arbitrary token sequences.
    """

    def __init__(self) -> None:
        self._special_ids = {tok: 256 + i for i, tok in enumerate(SPECIAL_TOKENS)}
        self._special_by_id = {i: tok for tok, i in self._special_ids.items()}
        self._split_re = re.compile(
            "(" + "|".join(re.escape(t) for t in SPECIAL_TOKENS) + ")"
        )

    @property
    def eos_id(self) -> int:
        return self._special_ids[EOS_TOKEN]

    @property
    def vocab_size(self) -> int:
        return 256 + len(SPECIAL_TOKENS)

    def special_id(self, token: str) -> int:
        try:
            return self._special_ids[token]
        except KeyError:
            raise KeyError(f"not a reserved symbol: {token!r}") from None

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for part in self._split_re.split(text):
            if not part:
                continue
            special = self._special_ids.get(part)
            if special is not None:
                ids.append(special)
            else:
                ids.extend(part.encode("utf-8"))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        parts: list[str] = []
        pending = bytearray()
        for token_id in ids:
            if token_id < 256:
                pending.append(token_id)
                continue
            if pending:
                parts.append(pending.decode("utf-8", errors="replace"))
                pending = bytearray()
            special = self._special_by_id.get(token_id)
            if special is None:
                raise KeyError(f"unknown token id {token_id}")
            if special != EOS_TOKEN:
                parts.append(special)
        if pending:
            parts.append(pending.decode("utf-8", errors="replace"))
        return "".join(parts)
