from __future__ import annotations

import contextlib
import json
import math
import select
import socket
import socketserver
import struct
import sys
import threading
from pathlib import Path

import pytest

from factgen import scorers
from factgen.scorers import (
    NLI_WINDOW,
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
    scorer = NgramScorer([target], tok.vocab_size, tok.eos_id, order=2)
    a, b = tok.encode("a")[0], tok.encode("b")[0]
    first = scorer.score((), [a, b])
    # "a" opens the only target; "b" never appears sentence-initially.
    assert first[0] == math.log(2 / (1 + tok.vocab_size))
    assert first[1] == math.log(1 / (1 + tok.vocab_size))
    after_a = scorer.score((a,), [b, a])
    assert after_a[0] > after_a[1]


def test_ngram_appends_eos_to_targets(tok):
    a = tok.encode("a")[0]
    scorer = NgramScorer([[a]], tok.vocab_size, tok.eos_id, order=2)
    after_a = scorer.score((a,), [tok.eos_id, a])
    assert after_a[0] > after_a[1]


def test_ngram_values_are_finite_and_nonpositive(tok):
    scorer = NgramScorer(
        [tok.encode("<sub>Italy<et>"), [tok.eos_id]], tok.vocab_size, tok.eos_id, order=3
    )
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


def test_ngram_rejects_bad_order(tok):
    with pytest.raises(ValueError):
        NgramScorer([], tok.vocab_size, tok.eos_id, order=0)


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


@contextlib.contextmanager
def tcp_spec(handler: type[socketserver.BaseRequestHandler]):
    """The ``tcp:`` spec of a local server answering with ``handler``."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
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
    # Three windows, the last one partial, then an lm request on the same
    # stream: every response is matched to its own request.
    pairs = nli_pairs(2 * NLI_WINDOW + 5)
    assert client.nli_entail_batch(pairs) == [stub_nli_entail(*p) for p in pairs]
    assert client.lm_logprobs([5], [3]) == [stub_lm_logprob(3)]
    assert client.nli_entail_batch([]) == []


# Answers three requests, read one byte at a time, then hangs up with the
# rest of the window unread: the client sees end of file or a reset.
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
    assert client._reader.closed and client._sock.fileno() == -1
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
    assert client._reader.closed and client._sock.fileno() == -1
    if transport == "exec":
        assert client._proc.returncode == 0


def test_close_kills_a_child_that_outlives_its_input(monkeypatch):
    monkeypatch.setattr(scorers, "CHILD_EXIT_TIMEOUT", 0.2)
    client = ExternalScorerClient.from_spec("exec:sleep 30")
    with pytest.raises(
        ScorerProtocolError,
        match=r"^scorer 'sleep 30' still ran 0.2 s after its input ended; killed it$",
    ):
        client.close()
    assert client._proc.returncode is not None
    assert client._reader.closed and client._sock.fileno() == -1


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
    # naming it, and every response of its window has been read, so the
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
