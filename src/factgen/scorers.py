"""Token and entailment scorers, in-process mocks and the wire protocol.

Trained models are out of scope here; decoding and filtering talk to
scorers through two small interfaces instead. For tests and offline runs
this module ships a deterministic n-gram token scorer (counts from provided
gold targets, add-one smoothing) and a table-backed entailment stub.

Real models attach through the external scorer protocol: newline-delimited
JSON over a connected socket, either one end of a Unix socket pair whose
other end is a child process's stdin and stdout, or a TCP connection; both
share one reader, writer and close path. Requests are
``{"type": "lm", "prefix": [ids], "candidates": [ids]}`` answered by
``{"logprobs": [floats]}`` aligned to the candidates, and
``{"type": "nli", "premise": str, "hypothesis": str}`` answered by
``{"entail": p}``. One request per line; responses come back in request
order, so a client may write several requests before reading their
responses.
"""

from __future__ import annotations

import errno
import json
import math
import shlex
import socket
import subprocess
import threading
from collections import Counter
from typing import Protocol, Sequence


# NLI requests the client writes before reading their responses; see
# ExternalScorerClient.nli_entail_batch.
NLI_WINDOW = 64

# Seconds ExternalScorerClient.close waits for an exec: child to exit once
# its input has ended, before it kills the child.
CHILD_EXIT_TIMEOUT = 10.0


class NliScorer(Protocol):
    """Entailment probabilities of hypotheses given premises, in [0, 1]."""

    def entail_batch(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """One probability per ``(premise, hypothesis)`` pair, in order."""
        ...


class ScorerProtocolError(Exception):
    """Malformed or missing response from an external scorer."""


class NgramScorer:
    """Deterministic n-gram language model with add-one smoothing.

    Counts come from gold target token sequences (EOS appended when
    missing), so the scorer prefers continuations it has seen after the
    same ``order - 1`` tokens of context. Unseen events get the smoothed
    floor instead of minus infinity; all values are finite and nonpositive.
    """

    BOS = -1

    def __init__(
        self,
        targets: Sequence[Sequence[int]],
        vocab_size: int,
        eos_id: int,
        order: int = 2,
    ) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.vocab_size = vocab_size
        self.order = order
        self._counts: dict[tuple[int, ...], Counter[int]] = {}
        for target in targets:
            tokens = list(target)
            if not tokens or tokens[-1] != eos_id:
                tokens.append(eos_id)
            padded = [self.BOS] * (order - 1) + tokens
            for i in range(order - 1, len(padded)):
                context = tuple(padded[i - order + 1 : i])
                self._counts.setdefault(context, Counter())[padded[i]] += 1

    def _context(self, prefix: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        padded = [self.BOS] * (self.order - 1) + list(prefix)
        return tuple(padded[len(padded) - self.order + 1 :])

    def score(self, prefix: Sequence[int], candidates: Sequence[int]) -> list[float]:
        counts = self._counts.get(self._context(prefix))
        total = sum(counts.values()) if counts else 0
        denominator = total + self.vocab_size
        return [
            math.log(((counts[c] if counts else 0) + 1) / denominator)
            for c in candidates
        ]


class TableNliScorer:
    """Entailment stub answering from a fixed (premise, hypothesis) table."""

    def __init__(
        self, table: dict[tuple[str, str], float] | None = None, default: float = 0.0
    ) -> None:
        self.table = dict(table or {})
        self.default = default

    def entail_batch(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return [self.table.get(pair, self.default) for pair in pairs]


def _is_number(value: object) -> bool:
    """A JSON number: int or float (NaN and infinities included), not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_response(line: str) -> dict:
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScorerProtocolError(f"bad scorer response line: {line!r}") from exc
    if not isinstance(response, dict):
        raise ScorerProtocolError(f"scorer response is not an object: {line!r}")
    return response


def _entail_value(response: dict) -> float:
    if "entail" not in response:
        raise ScorerProtocolError(f"response lacks 'entail': {response!r}")
    value = response["entail"]
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ScorerProtocolError(
            f"nli response 'entail' must be a number in [0, 1], got {value!r}"
        )
    return float(value)


class ExternalScorerClient:
    """Client side of the external scorer protocol.

    The scorer is a connected socket, with ``proc`` the child process on
    its far end for ``exec:``. Exchanges are serialized under an internal
    lock: an exchange writes its requests, then reads one response per
    request, relying on the protocol's in-order response guarantee.
    """

    def __init__(self, sock: socket.socket, proc: subprocess.Popen | None = None) -> None:
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8")
        self._writer = sock.makefile("w", encoding="utf-8")
        self._proc = proc
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "ExternalScorerClient":
        """Build from ``exec:<command>`` or ``tcp:<host>:<port>``."""
        if spec.startswith("exec:"):
            argv = shlex.split(spec[len("exec:") :])
            if not argv:
                raise ValueError(f"exec scorer spec names no command: {spec!r}")
            ours, theirs = socket.socketpair()
            try:
                proc = subprocess.Popen(argv, stdin=theirs, stdout=theirs)
            except BaseException:
                ours.close()
                raise
            finally:
                theirs.close()
            return cls(ours, proc)
        if spec.startswith("tcp:"):
            host, _, port = spec[len("tcp:") :].rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"bad tcp scorer spec {spec!r}")
            return cls(socket.create_connection((host, int(port))))
        raise ValueError(f"scorer spec must start with exec: or tcp:, got {spec!r}")

    def _exchange(self, payloads: Sequence[dict]) -> list[dict]:
        """Write every request in one flush, then read their responses."""
        with self._lock:
            try:
                self._writer.write("".join(json.dumps(payload) + "\n" for payload in payloads))
                self._writer.flush()
            except (BrokenPipeError, ConnectionResetError):  # it is gone already
                raise ScorerProtocolError(
                    f"scorer closed the stream before taking the {payloads[0]['type']} request"
                ) from None
            try:
                lines = [self._reader.readline() for _ in payloads]
            except ConnectionResetError:  # it hung up with requests unread
                lines = [""]
        if "" in lines:  # end of file: every later read returns "" at once
            raise ScorerProtocolError("scorer closed the stream before answering")
        return [_parse_response(line) for line in lines]

    def request(self, payload: dict) -> dict:
        return self._exchange([payload])[0]

    def lm_logprobs(self, prefix: Sequence[int], candidates: Sequence[int]) -> list[float]:
        response = self.request(
            {"type": "lm", "prefix": list(prefix), "candidates": list(candidates)}
        )
        logprobs = response.get("logprobs")
        if not isinstance(logprobs, list) or len(logprobs) != len(candidates):
            raise ScorerProtocolError(
                f"expected {len(candidates)} logprobs, got {logprobs!r}"
            )
        for value in logprobs:
            # NaN and positive values are beam_search's to reject (DecodeError).
            if not _is_number(value):
                raise ScorerProtocolError(f"lm response log-prob {value!r} is not a number")
        return [float(v) for v in logprobs]

    def nli_entail_batch(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Entailment probability per ``(premise, hypothesis)`` pair, in order.

        One ``nli`` request per pair, with the same bytes and order as one
        round trip per pair, but written in windows of ``NLI_WINDOW``
        requests before their responses are read. That cannot deadlock: at
        most ``NLI_WINDOW`` responses wait unread, and that many
        ``{"entail": p}`` lines (about 2 KB) stay far below what a connected
        socket buffers (Linux gives a Unix socket pair 208 KiB by default,
        ``net.core.wmem_default``), so the scorer never blocks writing a
        response while the client is still writing requests.
        """
        scores = []
        for start in range(0, len(pairs), NLI_WINDOW):
            requests = [
                {"type": "nli", "premise": premise, "hypothesis": hypothesis}
                for premise, hypothesis in pairs[start : start + NLI_WINDOW]
            ]
            scores.extend(map(_entail_value, self._exchange(requests)))
        return scores

    def close(self) -> None:
        """End the scorer's input, wait for an ``exec:`` child to exit (else
        kill it and raise), and close the stream."""
        try:
            self._writer.close()
            self._sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            # A peer that is gone needs no end of input, nor the requests
            # a failed _exchange left in the writer.
            if exc.errno not in (errno.ENOTCONN, errno.EPIPE, errno.ECONNRESET):
                raise
        finally:
            try:
                if self._proc is not None:
                    self._wait_for_child()
            finally:
                self._reader.close()
                self._sock.close()

    def _wait_for_child(self) -> None:
        try:
            self._proc.wait(timeout=CHILD_EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ScorerProtocolError(
                f"scorer {shlex.join(self._proc.args)!r} still ran "
                f"{CHILD_EXIT_TIMEOUT:g} s after its input ended; killed it"
            ) from None

    def __enter__(self) -> "ExternalScorerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ExternalLmScorer:
    """TokenScorer adapter over an :class:`ExternalScorerClient`."""

    def __init__(self, client: ExternalScorerClient) -> None:
        self.client = client

    def score(self, prefix: Sequence[int], candidates: Sequence[int]) -> list[float]:
        return self.client.lm_logprobs(prefix, candidates)


class ExternalNliScorer:
    """NliScorer adapter over an :class:`ExternalScorerClient`."""

    def __init__(self, client: ExternalScorerClient) -> None:
        self.client = client

    def entail_batch(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        return self.client.nli_entail_batch(pairs)
