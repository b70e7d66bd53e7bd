from __future__ import annotations

import contextlib
import json
import math
import os
import select
import signal
import socket
import socketserver
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from factgen import scorers
from factgen.scorers import (
    ExternalLmScorer,
    ExternalNliScorer,
    ExternalScorerClient,
    NgramScorer,
    ScorerProtocolError,
    TableNliScorer,
)

STUB = Path(__file__).parent / "stub_scorer.py"
BAD_STUB = Path(__file__).parent / "bad_stub_scorer.py"


def stub_lm_logprob(token_id: int) -> float:
    return -1.0 - (token_id % 7) / 10.0


def stub_nli_entail(premise: str, hypothesis: str) -> float:
    return ((len(premise) + len(hypothesis)) % 10) / 10.0


# -- n-gram mock -----------------------------------------------------------------


def test_ngram_counts_follow_targets(tok):
    target = tok.encode("ab")
    scorer = NgramScorer([target], tok.vocab_size, tok.eos_id)
    a, b = tok.encode("a")[0], tok.encode("b")[0]
    first = scorer.score((), [a, b])
    # "a" opens the only target; "b" never appears sentence-initially.
    assert first[0] == math.log(2 / (1 + tok.vocab_size))
    assert first[1] == math.log(1 / (1 + tok.vocab_size))
    after_a = scorer.score((a,), [b, a])
    assert after_a[0] > after_a[1]


def test_ngram_appends_eos_to_targets(tok):
    a = tok.encode("a")[0]
    scorer = NgramScorer([[a]], tok.vocab_size, tok.eos_id)
    after_a = scorer.score((a,), [tok.eos_id, a])
    assert after_a[0] > after_a[1]


def test_ngram_values_are_finite_and_nonpositive(tok):
    scorer = NgramScorer([tok.encode("<sub>Italy<et>"), [tok.eos_id]], tok.vocab_size, tok.eos_id)
    for prefix in ((), tuple(tok.encode("It")), (1, 2, 3)):
        for value in scorer.score(prefix, list(range(tok.vocab_size))):
            assert value <= 0.0
            assert math.isfinite(value)


def test_ngram_deterministic_and_batch_independent(tok):
    scorer = NgramScorer([tok.encode("abc")], tok.vocab_size, tok.eos_id)
    prefix = tuple(tok.encode("a"))
    b = tok.encode("b")[0]
    alone = scorer.score(prefix, [b])[0]
    batched = scorer.score(prefix, list(range(260)))[b]
    assert alone == batched


# -- NLI table stub ----------------------------------------------------------------


def test_table_nli_scorer_lookup_and_default():
    scorer = TableNliScorer({("p", "h"): 0.9}, default=0.2)
    assert scorer.entail_batch([("p", "h"), ("p", "other")]) == [0.9, 0.2]
    assert scorer.entail_batch([]) == []


# -- external protocol: a child process or a tcp server, one client path ------------


def stub_response(line: str | bytes) -> dict:
    request = json.loads(line)
    if request["type"] == "lm":
        return {"logprobs": [stub_lm_logprob(c) for c in request["candidates"]]}
    return {"entail": stub_nli_entail(request["premise"], request["hypothesis"])}


class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            self.wfile.write((json.dumps(stub_response(raw)) + "\n").encode("utf-8"))
            self.wfile.flush()


class _TestServer(socketserver.ThreadingTCPServer):
    """Closing joins no handler thread, so a test that fails while its
    client is still connected fails at once instead of hanging."""

    daemon_threads = True
    block_on_close = False


@contextlib.contextmanager
def tcp_spec(handler: type[socketserver.BaseRequestHandler]):
    """The ``tcp:`` spec of a local server answering with ``handler``."""
    server = _TestServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        yield f"tcp:{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(params=["exec", "tcp"])
def client(request):
    with contextlib.ExitStack() as stack:
        if request.param == "exec":
            spec = f"exec:{sys.executable} {STUB}"
        else:
            spec = stack.enter_context(tcp_spec(_StubHandler))
        yield stack.enter_context(ExternalScorerClient.from_spec(spec))


def test_tcp_scorer_roundtrip():
    with tcp_spec(_StubHandler) as spec, ExternalScorerClient.from_spec(spec) as client:
        assert client.lm_logprobs([5], [2, 9]) == [stub_lm_logprob(2), stub_lm_logprob(9)]
        assert client.nli_entail_batch([("pp", "hh")]) == [stub_nli_entail("pp", "hh")]


def test_lm_scorer_roundtrip(client):
    scorer = ExternalLmScorer(client)
    candidates = [0, 3, 17, 256]
    assert scorer.score((1, 2), candidates) == [stub_lm_logprob(c) for c in candidates]


def test_nli_scorer_roundtrip(client):
    scorer = ExternalNliScorer(client)
    assert scorer.entail_batch([("abc", "defg")]) == [stub_nli_entail("abc", "defg")]


def test_many_requests_in_order(client):
    scorer = ExternalLmScorer(client)
    for i in range(50):
        assert scorer.score((i,), [i % 300]) == [stub_lm_logprob(i % 300)]


def nli_pairs(count: int) -> list[tuple[str, str]]:
    """Pairs whose stub scores differ from their neighbours', so a response
    read out of order or against the wrong request shows."""
    return [("p" * (i % 7), "h" * (i % 5 + i // 35)) for i in range(count)]


def test_pipelined_nli_roundtrip(client):
    # A batch of 133 requests, then an lm request on the same stream: every
    # response is matched to its own request.
    pairs = nli_pairs(133)
    assert client.nli_entail_batch(pairs) == [stub_nli_entail(*p) for p in pairs]
    assert client.lm_logprobs([5], [3]) == [stub_lm_logprob(3)]
    assert client.nli_entail_batch([]) == []


# Answers each request as it arrives or, given a count, reads that many
# requests before it answers any.
BATCH_STUB = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from stub_scorer import handle\n"
    "hoard = int(sys.argv[2])\n"
    "lines = [sys.stdin.readline() for _ in range(hoard)] if hoard else sys.stdin\n"
    "for line in lines:\n"
    "    sys.stdout.write(json.dumps(handle(line)) + '\\n'); sys.stdout.flush()\n"
)

# Run in a subprocess with a timeout, so that a deadlock fails the test: one
# batch of 20000 nli requests (over 1 MB) whose responses (over 256 KiB) no
# socket buffer holds, answered in order; then, from a stub still answering,
# an lm request.
BIG_BATCH_CHECK = """
import json, socketserver, sys, threading
tests_dir, stub, transport, hoard = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path.insert(0, tests_dir)
from stub_scorer import handle, lm_logprob, nli_entail
from factgen.scorers import ExternalScorerClient


class Handler(socketserver.StreamRequestHandler):
    def handle(self):
        lines = [self.rfile.readline() for _ in range(hoard)] if hoard else self.rfile
        for line in lines:
            self.wfile.write((json.dumps(handle(line)) + "\\n").encode("utf-8"))


pairs = [(f"premise {i:05d} " + "p" * (i % 40), "h" * (i % 13)) for i in range(20000)]
requests = [json.dumps({"type": "nli", "premise": p, "hypothesis": h}) for p, h in pairs]
assert sum(map(len, requests)) + len(requests) > 1 << 20
if transport == "exec":
    spec = f"exec:{sys.executable} {stub} {tests_dir} {hoard}"
else:
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    spec = "tcp:%s:%d" % server.server_address
with ExternalScorerClient.from_spec(spec) as client:
    scores = client.nli_entail_batch(pairs)
    assert scores == [nli_entail(*pair) for pair in pairs]
    responses = [json.dumps({"entail": score}) for score in scores]
    assert sum(map(len, responses)) + len(responses) > 256 << 10
    if not hoard:
        assert client.lm_logprobs([5], [3]) == [lm_logprob(3)]
print("answered in order")
"""


@pytest.mark.parametrize("hoard", [0, 20000], ids=["answering", "reading-the-batch-first"])
@pytest.mark.parametrize("transport", ["exec", "tcp"])
def test_batch_larger_than_socket_buffers_is_answered_in_order(tmp_path, transport, hoard):
    stub = tmp_path / "batch_scorer.py"
    stub.write_text(BATCH_STUB, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", BIG_BATCH_CHECK, str(STUB.parent), str(stub), transport,
         str(hoard)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "answered in order"


# The scorer's end of the stream on descriptor 1500: select.select cannot
# watch a descriptor of 1024 or more, and the exchange must not depend on it.
# In a subprocess, which raises its own open-file limit when it must.
HIGH_FD_CHECK = """
import os, resource, socket, subprocess, sys
tests_dir, stub = sys.argv[1], sys.argv[2]
sys.path.insert(0, tests_dir)
from stub_scorer import lm_logprob, nli_entail
from factgen.scorers import ExternalScorerClient

soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
if soft != resource.RLIM_INFINITY and soft <= 1500:
    if hard != resource.RLIM_INFINITY and hard <= 1500:
        sys.exit("skip: the open-file limit is %d" % hard)
    resource.setrlimit(resource.RLIMIT_NOFILE, (1501, hard))
ours, theirs = socket.socketpair()
fd = os.dup2(ours.fileno(), 1500)
high = socket.socket(fileno=fd)
ours.close()
proc = subprocess.Popen([sys.executable, stub], stdin=theirs, stdout=theirs)
theirs.close()
pairs = [("p" * i, "h") for i in range(300)]
with ExternalScorerClient(high, proc) as client:
    assert client.lm_logprobs([5], [3]) == [lm_logprob(3)]
    assert client.nli_entail_batch(pairs) == [nli_entail(*pair) for pair in pairs]
print("answered on fd", fd)
"""


def test_stream_on_a_descriptor_above_1024_is_answered():
    proc = subprocess.run(
        [sys.executable, "-c", HIGH_FD_CHECK, str(STUB.parent), str(STUB)],
        capture_output=True, text=True, timeout=60,
    )
    if proc.stderr.startswith("skip:"):
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "answered on fd 1500"


# Answers three requests, read one byte at a time, then hangs up with the
# rest of the batch unread: the client sees end of file or a reset.
HANGING_UP_STUB = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from stub_scorer import handle\n"
    "for _ in range(3):\n"
    "    line = sys.stdin.buffer.raw.readline()\n"
    "    sys.stdout.write(json.dumps(handle(line)) + '\\n'); sys.stdout.flush()\n"
)


class _HangingUpHandler(socketserver.BaseRequestHandler):
    def handle(self):
        requests = self.request.makefile("rb", buffering=0)
        for _ in range(3):
            reply = json.dumps(stub_response(requests.readline())) + "\n"
            self.request.sendall(reply.encode("utf-8"))


@pytest.mark.parametrize("transport", ["exec", "tcp"])
def test_scorer_that_stops_answering_gives_one_error(tmp_path, transport):
    with contextlib.ExitStack() as stack:
        if transport == "exec":
            hanging_up = tmp_path / "hanging_up_scorer.py"
            hanging_up.write_text(HANGING_UP_STUB, encoding="utf-8")
            spec = f"exec:{sys.executable} {hanging_up} {STUB.parent}"
        else:
            spec = stack.enter_context(tcp_spec(_HangingUpHandler))
        client = ExternalScorerClient.from_spec(spec)
        with pytest.raises(
            ScorerProtocolError, match=r"^scorer closed the stream before answering$"
        ):
            client.nli_entail_batch(nli_pairs(5))
        client.close()
    assert client._sock.fileno() == -1
    if transport == "exec":
        assert client._proc.returncode == 0


class _ResettingHandler(socketserver.BaseRequestHandler):
    """Resets the connection before reading a request, then sets ``gone``."""

    gone = threading.Event()

    def handle(self):
        self.request.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.request.close()
        self.gone.set()


@pytest.mark.parametrize("transport", ["exec", "tcp"])
def test_scorer_gone_before_the_write_gives_one_error(transport):
    with contextlib.ExitStack() as stack:
        if transport == "exec":
            client = ExternalScorerClient.from_spec("exec:true")
            client._proc.wait()
        else:
            _ResettingHandler.gone.clear()
            client = ExternalScorerClient.from_spec(stack.enter_context(tcp_spec(_ResettingHandler)))
            assert _ResettingHandler.gone.wait(10)
            select.select([client._sock], [], [], 10)  # the reset has arrived
        with pytest.raises(
            ScorerProtocolError, match=r"^scorer closed the stream before taking the nli request$"
        ):
            client.nli_entail_batch(nli_pairs(5))
        with pytest.raises(
            ScorerProtocolError, match=r"^scorer closed the stream before taking the lm request$"
        ):
            client.lm_logprobs([5], [3])
        client.close()  # the unwritten requests are dropped, not raised again
    assert client._sock.fileno() == -1
    if transport == "exec":
        assert client._proc.returncode == 0


# Writes each answer and then one line no request asked for, in one write.
STRAY_LINE = '{"logprobs": [0.0, 0.0]}\n'
STRAY_LINE_STUB = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from stub_scorer import handle\n"
    "for line in sys.stdin:\n"
    f"    sys.stdout.write(json.dumps(handle(line)) + '\\n' + {STRAY_LINE!r})\n"
    "    sys.stdout.flush()\n"
)


class _StrayLineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            self.wfile.write((json.dumps(stub_response(raw)) + "\n" + STRAY_LINE).encode("utf-8"))


@pytest.mark.parametrize("transport", ["exec", "tcp"])
def test_stray_response_line_is_an_error_not_the_next_answer(tmp_path, transport):
    with contextlib.ExitStack() as stack:
        if transport == "exec":
            stray = tmp_path / "stray_line_scorer.py"
            stray.write_text(STRAY_LINE_STUB, encoding="utf-8")
            spec = f"exec:{sys.executable} {stray} {STUB.parent}"
        else:
            spec = stack.enter_context(tcp_spec(_StrayLineHandler))
        # Closed by the stack (before the server stops), which fails the
        # test if close raises.
        client = stack.enter_context(ExternalScorerClient.from_spec(spec))
        for kind in ("lm", "nli", "lm", "lm"):
            message = f"scorer sent more than 1 response line(s) for 1 {kind} request(s)"
            with pytest.raises(ScorerProtocolError) as caught:
                if kind == "lm":
                    client.lm_logprobs([], [4, 5])
                else:
                    client.nli_entail_batch([("p", "h")])
            assert str(caught.value) == message
    assert client._sock.fileno() == -1
    if transport == "exec":
        assert client._proc.returncode == 0


def test_close_waits_for_the_child_not_a_grandchild_holding_the_stream(monkeypatch, tmp_path):
    # The grandchild keeps the child's end of the socket open for 30 s after
    # the child has exited, so the stream does not end when the child does.
    monkeypatch.setattr(scorers, "CHILD_EXIT_TIMEOUT", 5)
    pidfile = tmp_path / "sleep.pid"
    client = ExternalScorerClient.from_spec(
        f"exec:sh -c 'sleep 30 & echo $! > {pidfile}; exec {sys.executable} {STUB}'"
    )
    try:
        assert client.lm_logprobs([], [4]) == [stub_lm_logprob(4)]
        began = time.monotonic()
        client.close()
        assert time.monotonic() - began < 2
        assert client._proc.returncode == 0
        assert client._sock.fileno() == -1
    finally:
        client._proc.kill()  # no-op once reaped
        if pidfile.exists():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_close_kills_a_child_that_outlives_its_input(monkeypatch):
    monkeypatch.setattr(scorers, "CHILD_EXIT_TIMEOUT", 0.2)
    client = ExternalScorerClient.from_spec("exec:sleep 30")
    with pytest.raises(
        ScorerProtocolError,
        match=r"^scorer 'sleep 30' still ran 0.2 s after its input ended; killed it$",
    ):
        client.close()
    assert client._proc.returncode is not None
    assert client._sock.fileno() == -1


def test_close_bounds_the_reap_of_a_child_that_ends_its_stream_and_runs_on(monkeypatch):
    # The child closes its end of the socket at once, then sleeps: the end of
    # the stream arrives, but the child cannot be reaped before it is killed.
    monkeypatch.setattr(scorers, "CHILD_EXIT_TIMEOUT", 0.2)
    command = "sh -c 'exec 0<&- 1>&-; exec sleep 30'"
    client = ExternalScorerClient.from_spec(f"exec:{command}")
    began = time.monotonic()
    with pytest.raises(ScorerProtocolError) as caught:
        client.close()
    assert str(caught.value) == (
        f"scorer {command!r} still ran 0.2 s after its input ended; killed it"
    )
    assert time.monotonic() - began < 5
    assert client._proc.returncode is not None
    assert client._sock.fileno() == -1


@pytest.fixture(params=["pidfd", "no-pidfd-open", "pidfd-open-fails"])
def close_wait(request, monkeypatch) -> tuple[bool, list[int]]:
    """Each way close can wait for an exec: child: on a pidfd, and on
    Popen.wait where os.pidfd_open is missing or raises OSError. Returns
    whether the wait is on a pidfd, and the pids a pidfd was opened for."""
    opened: list[int] = []
    if request.param == "pidfd":
        if sys.platform != "linux":
            pytest.skip("pidfds are Linux-only")
        real = os.pidfd_open

        def recording_pidfd_open(pid, *flags):
            fd = real(pid, *flags)
            opened.append(pid)
            return fd

        monkeypatch.setattr(os, "pidfd_open", recording_pidfd_open)
    elif request.param == "no-pidfd-open":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    else:

        def failing_pidfd_open(pid, *flags):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(os, "pidfd_open", failing_pidfd_open, raising=False)
    return request.param == "pidfd", opened


def test_close_reaps_a_child_that_exits_on_each_wait(close_wait):
    client = ExternalScorerClient.from_spec(f"exec:{sys.executable} {STUB}")
    assert client.lm_logprobs([], [4]) == [stub_lm_logprob(4)]
    began = time.monotonic()
    client.close()
    assert time.monotonic() - began < 2
    assert client._proc.returncode == 0
    assert client._sock.fileno() == -1
    on_pidfd, opened = close_wait
    assert opened == ([client._proc.pid] if on_pidfd else [])


def test_close_kills_a_child_that_outlives_its_input_on_each_wait(monkeypatch, close_wait):
    monkeypatch.setattr(scorers, "CHILD_EXIT_TIMEOUT", 0.2)
    client = ExternalScorerClient.from_spec("exec:sleep 30")
    began = time.monotonic()
    with pytest.raises(ScorerProtocolError) as caught:
        client.close()
    assert 0.2 <= time.monotonic() - began < 5
    assert str(caught.value) == "scorer 'sleep 30' still ran 0.2 s after its input ended; killed it"
    assert client._proc.returncode == -signal.SIGKILL
    assert client._sock.fileno() == -1
    on_pidfd, opened = close_wait
    assert opened == ([client._proc.pid] if on_pidfd else [])


def test_failed_spawn_closes_both_socket_ends(monkeypatch, tmp_path):
    made = []

    def recording_socketpair():
        pair = real_socketpair()
        made.extend(pair)
        return pair

    real_socketpair = socket.socketpair
    monkeypatch.setattr(socket, "socketpair", recording_socketpair)
    with pytest.raises(FileNotFoundError):
        ExternalScorerClient.from_spec(f"exec:{tmp_path / 'no-such-scorer'}")
    assert len(made) == 2 and all(end.fileno() == -1 for end in made)


def test_spec_parsing_errors():
    with pytest.raises(ValueError):
        ExternalScorerClient.from_spec("magic:wand")
    with pytest.raises(ValueError):
        ExternalScorerClient.from_spec("tcp:no-port")
    for spec in ("exec:", "exec:   "):
        with pytest.raises(ValueError, match="^exec scorer spec names no command"):
            ExternalScorerClient.from_spec(spec)


def test_protocol_error_on_bad_response(tmp_path):
    bad = tmp_path / "bad_scorer.py"
    bad.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.write('not json\\n'); sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with ExternalScorerClient.from_spec(f"exec:{sys.executable} {bad}") as client:
        with pytest.raises(ScorerProtocolError):
            client.lm_logprobs([], [1])


def test_protocol_error_on_a_response_that_is_not_utf8(tmp_path):
    bad = tmp_path / "latin1_scorer.py"
    bad.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.buffer.write(bytes([255, 10])); sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with ExternalScorerClient.from_spec(f"exec:{sys.executable} {bad}") as client:
        with pytest.raises(ScorerProtocolError, match="^bad scorer response line: '\ufffd\\\\n'$"):
            client.nli_entail_batch([("p", "h")])


def test_protocol_error_on_length_mismatch(tmp_path):
    short = tmp_path / "short_scorer.py"
    short.write_text(
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.write(json.dumps({'logprobs': [-1.0]}) + '\\n')\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with ExternalScorerClient.from_spec(f"exec:{sys.executable} {short}") as client:
        with pytest.raises(ScorerProtocolError):
            client.lm_logprobs([], [1, 2, 3])


@pytest.mark.parametrize(
    "variant", ["nli-nan", "nli-above-one", "nli-negative", "nli-string", "nli-null"]
)
def test_protocol_error_on_bad_entail_value(variant):
    spec = f"exec:{sys.executable} {BAD_STUB} {variant}"
    with ExternalScorerClient.from_spec(spec) as client:
        with pytest.raises(ScorerProtocolError, match=r"^nli response 'entail' must be"):
            client.nli_entail_batch([("premise", "hypothesis")])


@pytest.mark.parametrize(
    "variant, message",
    [
        ("nli-list", "scorer response is not an object: '[0.5]\\n'"),
        ("nli-no-entail", "response lacks 'entail': {'score': 0.5}"),
    ],
    ids=["list", "no-entail"],
)
def test_protocol_error_on_a_misshapen_nli_response(variant, message):
    spec = f"exec:{sys.executable} {BAD_STUB} {variant}"
    with ExternalScorerClient.from_spec(spec) as client:
        with pytest.raises(ScorerProtocolError) as raised:
            client.nli_entail_batch([("premise", "hypothesis")])
    assert str(raised.value) == message


@pytest.mark.parametrize("variant", ["lm-null", "lm-string", "lm-bool"])
def test_protocol_error_on_non_numeric_logprob(variant):
    spec = f"exec:{sys.executable} {BAD_STUB} {variant}"
    with ExternalScorerClient.from_spec(spec) as client:
        with pytest.raises(ScorerProtocolError, match=r"^lm response log-prob .* not a number"):
            client.lm_logprobs([], [1, 2])


def test_entail_bounds_are_inclusive(tmp_path):
    edges = tmp_path / "edge_scorer.py"
    edges.write_text(
        "import sys, json\n"
        "values = iter([0, 1.0])\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.write(json.dumps({'entail': next(values)}) + '\\n')\n"
        "    sys.stdout.flush()\n",
        encoding="utf-8",
    )
    with ExternalScorerClient.from_spec(f"exec:{sys.executable} {edges}") as client:
        assert client.nli_entail_batch([("p", "h")]) == [0.0]
        assert client.nli_entail_batch([("p", "h")]) == [1.0]


GARBLING_STUB = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from stub_scorer import handle\n"
    "for count, line in enumerate(sys.stdin):\n"
    "    reply = 'not json' if count == 70 else json.dumps(handle(line))\n"
    "    sys.stdout.write(reply + '\\n'); sys.stdout.flush()\n"
)


@pytest.mark.parametrize("bad", ["nan", "garbled"])
def test_bad_response_mid_window_leaves_no_response_unread(tmp_path, bad):
    # The 71st response of a 100-request batch is bad: the batch fails
    # naming it, and every response of the batch has been read, so the
    # next request on the client gets its own answer.
    if bad == "nan":
        spec = f"exec:{sys.executable} {BAD_STUB} nli-nan 70"
        message = r"^nli response 'entail' .* nan"
    else:
        garbling = tmp_path / "garbling_scorer.py"
        garbling.write_text(GARBLING_STUB, encoding="utf-8")
        spec = f"exec:{sys.executable} {garbling} {STUB.parent}"
        message = r"^bad scorer response line: 'not json\\n'"
    with ExternalScorerClient.from_spec(spec) as client:
        with pytest.raises(ScorerProtocolError, match=message):
            client.nli_entail_batch(nli_pairs(100))
        assert client.lm_logprobs([], [4]) == [stub_lm_logprob(4)]
