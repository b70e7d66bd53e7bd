"""Token and entailment scorers, in-process mocks and the wire protocol.

Trained models are out of scope here; decoding and filtering talk to
scorers through two small interfaces instead. For tests and offline runs
this module ships a deterministic n-gram token scorer (counts from provided
gold targets, add-one smoothing) and a table-backed entailment stub.

Real models attach through the external scorer protocol: newline-delimited
JSON over a child process's standard streams or a TCP socket. Requests are
``{"type": "lm", "prefix": [ids], "candidates": [ids]}`` answered by
``{"logprobs": [floats]}`` aligned to the candidates, and
``{"type": "nli", "premise": str, "hypothesis": str}`` answered by
``{"entail": p}``. One request per line; responses come back in request
order.
"""

from __future__ import annotations

import json
import math
import shlex
import socket
import subprocess
import threading
from collections import Counter
from typing import Protocol, Sequence


class NliScorer(Protocol):
    """Entailment probability of hypothesis given premise, in [0, 1]."""

    def entail(self, premise: str, hypothesis: str) -> float:
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

    def entail(self, premise: str, hypothesis: str) -> float:
        return self.table.get((premise, hypothesis), self.default)


class _LineTransport:
    def send_line(self, line: str) -> None:
        raise NotImplementedError

    def recv_line(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _ProcessTransport(_LineTransport):
    def __init__(self, command: str) -> None:
        self.proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def send_line(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def recv_line(self) -> str:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise ScorerProtocolError("scorer process closed its output")
        return line

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.wait(timeout=10)
        if self.proc.stdout:
            self.proc.stdout.close()


class _TcpTransport(_LineTransport):
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.writer = self.sock.makefile("w", encoding="utf-8")

    def send_line(self, line: str) -> None:
        self.writer.write(line + "\n")
        self.writer.flush()

    def recv_line(self) -> str:
        line = self.reader.readline()
        if not line:
            raise ScorerProtocolError("scorer connection closed")
        return line

    def close(self) -> None:
        self.reader.close()
        self.writer.close()
        self.sock.close()


def _is_number(value: object) -> bool:
    """A JSON number: int or float (NaN and infinities included), not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ExternalScorerClient:
    """Client side of the external scorer protocol.

    Requests are serialized under an internal lock, one in flight at a
    time, matching the protocol's in-order response guarantee.
    """

    def __init__(self, transport: _LineTransport) -> None:
        self._transport = transport
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: str) -> "ExternalScorerClient":
        """Build from ``exec:<command>`` or ``tcp:<host>:<port>``."""
        if spec.startswith("exec:"):
            return cls(_ProcessTransport(spec[len("exec:") :]))
        if spec.startswith("tcp:"):
            host, _, port = spec[len("tcp:") :].rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"bad tcp scorer spec {spec!r}")
            return cls(_TcpTransport(host, int(port)))
        raise ValueError(f"scorer spec must start with exec: or tcp:, got {spec!r}")

    def request(self, payload: dict) -> dict:
        with self._lock:
            self._transport.send_line(json.dumps(payload))
            line = self._transport.recv_line()
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScorerProtocolError(f"bad scorer response line: {line!r}") from exc
        if not isinstance(response, dict):
            raise ScorerProtocolError(f"scorer response is not an object: {line!r}")
        return response

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

    def nli_entail(self, premise: str, hypothesis: str) -> float:
        response = self.request(
            {"type": "nli", "premise": premise, "hypothesis": hypothesis}
        )
        if "entail" not in response:
            raise ScorerProtocolError(f"response lacks 'entail': {response!r}")
        value = response["entail"]
        if not (_is_number(value) and 0.0 <= value <= 1.0):
            raise ScorerProtocolError(
                f"nli response 'entail' must be a number in [0, 1], got {value!r}"
            )
        return float(value)

    def close(self) -> None:
        self._transport.close()

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

    def entail(self, premise: str, hypothesis: str) -> float:
        return self.client.nli_entail(premise, hypothesis)
