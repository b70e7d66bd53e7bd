"""Scorer stub for the factgen benchmark, spoken to over ``exec:``.

It implements only the line protocol factgen's README documents: one JSON
request per line on stdin, one JSON response per line on stdout, in order.

- ``{"type": "nli", "premise", "hypothesis"}`` -> ``{"entail": p}``. ``p`` is
  derived from a hash of the two texts and lies above 0.7 for a share
  ``NLI_KEEP_SHARE`` of hypotheses, so ``filter`` really drops triples.
- ``{"type": "lm", "prefix", "candidates"}`` -> ``{"logprobs": [...]}``. The
  scores depend on the prefix only through the rules in :func:`lm_logprobs`,
  which steer a ``partial``-mode beam search to ``[ENTITY]``, a copied run of
  source bytes, ``[TRIPLE]``, one or two triples and then EOS, far below
  ``max_len``.

The LM has no source field in the protocol, so the benchmark prefixes each
request's token prefix with the source sentence's bytes and ``SOURCE_SEP``,
as a decoder-only model would see its input. The scoring functions are
importable so the benchmark can rerun a decode in process with the same
scores and compare.

Usage: python3 bench/stub_scorer.py   (then speak the protocol on stdio)
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Sequence

NLI_KEEP_SHARE = 0.6
NLI_THRESHOLD = 0.7

# Token ids of factgen's ByteTokenizer: bytes are 0-255, reserved symbols
# follow in SPECIAL_TOKENS order. The benchmark checks these at start-up.
EOS = 256
SUB = 257
REL = 258
OBJ = 259
END_TRIPLE = 260
ENTITY_MARKER = 261
TRIPLE_MARKER = 262
SOURCE_SEP = 264  # "<#tri#>": separates the source bytes from the output
TRANSITIONS = (REL, OBJ, END_TRIPLE)

PREFERRED = -0.05
# Other candidates score -(2 + jitter), jitter in [0, 3). EOS, when not
# preferred, scores EARLY_EOS: far below the cost of finishing the triples,
# so an output with too few triples never wins.
EARLY_EOS = -9.0


def _hash(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def nli_entail(premise: str, hypothesis: str) -> float:
    unit = _hash(f"{premise}\x00{hypothesis}".encode("utf-8")) / 2.0**64
    cut = 1.0 - NLI_KEEP_SHARE
    if unit > cut:
        return NLI_THRESHOLD + (1.0 - NLI_THRESHOLD) * (unit - cut) / NLI_KEEP_SHARE
    return NLI_THRESHOLD * unit / cut


def _split_prefix(prefix: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    try:
        sep = prefix.index(SOURCE_SEP)
    except ValueError:
        return (), prefix
    return prefix[:sep], prefix[sep + 1 :]


def lm_logprobs(prefix: Sequence[int], candidates: Sequence[int]) -> list[float]:
    """Deterministic log-probs, each a function of prefix and candidate only.

    Free-form phase (no ``[TRIPLE]`` yet): ``[ENTITY]`` first, then a run of
    40-47 source bytes from a source-dependent offset, then ``[TRIPLE]``.
    Constrained phase: ``<sub>`` to open a triple, the label-closing symbol
    as soon as the trie offers it, otherwise a hash-chosen byte; EOS once
    one or two (source-dependent) triples are closed.
    """
    prefix = list(prefix)
    source, output = _split_prefix(prefix)
    source_key = _hash(bytes(b for b in source if b < 256))
    step_key = _hash(str(prefix[-8:]).encode("ascii") + len(output).to_bytes(2, "big"))
    preferred = _preferred(source, source_key, output, step_key, candidates)
    scores = []
    for c in candidates:
        if c == preferred:
            scores.append(PREFERRED)
        elif c == EOS:
            scores.append(EARLY_EOS)
        else:
            scores.append(-2.0 - ((c * 2654435761 + step_key) % 997) * (3.0 / 997))
    return scores


def _preferred(source, source_key, output, step_key, candidates) -> int | None:
    if TRIPLE_MARKER not in output:
        position = len(output)
        if position == 0:
            return ENTITY_MARKER
        run = 40 + source_key % 8
        if position > run or not source:
            return TRIPLE_MARKER
        start = (source_key >> 8) % max(1, len(source) - run)
        return source[(start + position - 1) % len(source)]
    after = output[output.index(TRIPLE_MARKER) + 1 :]
    wanted_triples = 1 + (source_key >> 16) % 2
    if EOS in candidates and after.count(END_TRIPLE) >= wanted_triples:
        return EOS
    if SUB in candidates:
        return SUB
    for token in TRANSITIONS:
        if token in candidates:
            return token
    if not candidates:
        return None
    return max(candidates, key=lambda c: (c * 40503 + step_key) % 65521)


def handle(request: dict) -> dict:
    if request.get("type") == "lm":
        return {"logprobs": lm_logprobs(request["prefix"], request["candidates"])}
    if request.get("type") == "nli":
        return {"entail": nli_entail(request["premise"], request["hypothesis"])}
    return {"error": f"unknown request type {request.get('type')!r}"}


def main() -> None:
    for line in sys.stdin:
        if line.strip():
            sys.stdout.write(json.dumps(handle(json.loads(line))) + "\n")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
