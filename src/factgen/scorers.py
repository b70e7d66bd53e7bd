"""Token and entailment scorers, in-process mocks and the wire protocol.

Trained models are out of scope here; decoding and filtering talk to
scorers through two small interfaces instead. For tests and offline runs
this module ships a deterministic n-gram token scorer (counts from provided
gold targets, add-one smoothing) and a table-backed entailment stub.

Real models attach through the external scorer protocol: newline-delimited
JSON over a connected socket, either one end of a Unix socket pair whose
other end is a child process's stdin and stdout, or a TCP connection; both
share one exchange and close path. Requests are
``{"type": "lm", "prefix": [ids], "candidates": [ids]}`` answered by
``{"logprobs": [floats]}`` aligned to the candidates, and
``{"type": "nli", "premise": str, "hypothesis": str}`` answered by
``{"entail": p}``. One request per line; responses come back in request
order, and nothing else is sent: a line beyond an exchange's answers is a
protocol error. The client writes every request of a batch while it reads
the answers, so neither side waits on a full socket buffer whatever the
size of the batch. Closing a client ends the scorer's input; an ``exec:``
child then has ``CHILD_EXIT_TIMEOUT`` seconds to exit before it is killed.
"""

from __future__ import annotations

import errno
import json
import math
import os
import select
import shlex
import socket
import subprocess
import threading
from collections import Counter
from typing import Protocol, Sequence


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
    """Deterministic bigram language model with add-one smoothing.

    Counts come from gold target token sequences (EOS appended when
    missing), so the scorer prefers continuations it has seen after the
    same previous token (``BOS`` at the start). Unseen events get the
    smoothed floor instead of minus infinity; all values are finite and
    nonpositive.
    """

    BOS = -1

    def __init__(self, targets: Sequence[Sequence[int]], vocab_size: int, eos_id: int) -> None:
        self.vocab_size = vocab_size
        self._counts: dict[int, Counter[int]] = {}
        for target in targets:
            tokens = list(target)
            if not tokens or tokens[-1] != eos_id:
                tokens.append(eos_id)
            for previous, token in zip([self.BOS, *tokens], tokens):
                self._counts.setdefault(previous, Counter())[token] += 1

    def score(self, prefix: Sequence[int], candidates: Sequence[int]) -> list[float]:
        counts = self._counts.get(prefix[-1] if prefix else self.BOS)
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


def _parse_response(line: bytes) -> dict:
    """One response line, its newline included."""
    try:
        response = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        text = line.decode("utf-8", "replace")
        raise ScorerProtocolError(f"bad scorer response line: {text!r}") from exc
    if not isinstance(response, dict):
        text = line.decode("utf-8")
        raise ScorerProtocolError(f"scorer response is not an object: {text!r}")
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


def _wait_child(proc: subprocess.Popen, timeout: float) -> None:
    """Reap ``proc`` once it exits; raise ``subprocess.TimeoutExpired`` if
    it still runs after ``timeout`` seconds.

    The wait polls a pidfd (``os.pidfd_open``, Linux 5.3+), which wakes at
    the exit itself; ``Popen.wait`` notices it only at its next sleep step.
    Without a pidfd it falls back to ``Popen.wait``.
    """
    if proc.returncode is not None:
        return  # reaped already: its pid may now name another process
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # no pidfd_open here, or already reaped
        proc.wait(timeout=timeout)
        return
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(timeout * 1000):
            raise subprocess.TimeoutExpired(proc.args, timeout)
    finally:
        os.close(pidfd)
    proc.wait()


class ExternalScorerClient:
    """Client side of the external scorer protocol.

    The scorer is a connected socket, with ``proc`` the child process on
    its far end for ``exec:``. Exchanges are serialized under an internal
    lock: an exchange sends its requests and reads one response per
    request, relying on the protocol's in-order response guarantee. No
    bytes are kept from one exchange to the next.
    """

    def __init__(self, sock: socket.socket, proc: subprocess.Popen | None = None) -> None:
        sock.setblocking(False)
        self._sock = sock
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
        """Send every request while reading the responses, then parse them.

        The loop receives whenever the socket has data, so the scorer never
        blocks writing a response while requests are still being sent: no
        batch can deadlock, whatever the socket buffer sizes. A bad response
        raises only after the whole batch has been read, so the next
        exchange gets its own answers. Bytes read after the last answer are
        a stray line, also raised. The protocol has no request ids, so a
        stray line that arrives after the exchange has returned cannot be
        told from the next exchange's first answer.
        """
        sock = self._sock
        wanted = len(payloads)
        pending = memoryview("".join([json.dumps(p) + "\n" for p in payloads]).encode("utf-8"))
        with self._lock:
            received = bytearray()
            lines = 0
            poller = select.poll()
            poller.register(sock, select.POLLIN | select.POLLOUT)
            events = select.POLLOUT  # send before the first wait
            while True:
                # Write first: a scorer that is gone fails the write.
                if pending and events & ~select.POLLIN:
                    try:
                        pending = pending[sock.send(pending) :]
                    except BlockingIOError:
                        pass
                    except (BrokenPipeError, ConnectionResetError):
                        raise ScorerProtocolError(
                            "scorer closed the stream before taking the "
                            f"{payloads[0]['type']} request"
                        ) from None
                    if not pending:
                        poller.modify(sock, select.POLLIN)
                if events & ~select.POLLOUT:  # data, end of file or an error
                    try:
                        chunk = sock.recv(1 << 16)
                    except ConnectionResetError:  # it hung up with requests unread
                        chunk = b""
                    if not chunk:
                        raise ScorerProtocolError("scorer closed the stream before answering")
                    received += chunk
                    lines += chunk.count(b"\n")
                if not pending and lines >= wanted:
                    break
                [(_, events)] = poller.poll()
        *answers, extra = bytes(received).split(b"\n", wanted)
        if extra:
            raise ScorerProtocolError(
                f"scorer sent more than {wanted} response line(s) for {wanted} "
                f"{payloads[0]['type']} request(s)"
            )
        return [_parse_response(line + b"\n") for line in answers]

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
        """Entailment probability per ``(premise, hypothesis)`` pair, in order:
        one ``nli`` request per pair, all of them in one exchange."""
        requests = [
            {"type": "nli", "premise": premise, "hypothesis": hypothesis}
            for premise, hypothesis in pairs
        ]
        return [_entail_value(response) for response in self._exchange(requests)]

    def close(self) -> None:
        """End the scorer's input, wait up to ``CHILD_EXIT_TIMEOUT`` seconds
        for an ``exec:`` child to exit (else kill it and raise), and close
        the stream."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            # A peer that is gone needs no end of input.
            if exc.errno not in (errno.ENOTCONN, errno.EPIPE, errno.ECONNRESET):
                raise
        finally:
            try:
                if self._proc is not None:
                    _wait_child(self._proc, CHILD_EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
                raise ScorerProtocolError(
                    f"scorer {shlex.join(self._proc.args)!r} still ran "
                    f"{CHILD_EXIT_TIMEOUT:g} s after its input ended; killed it"
                ) from None
            finally:
                self._sock.close()

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
