from __future__ import annotations

import json
import math
import socketserver
import sys
import threading
from pathlib import Path

import pytest

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
    assert scorer.entail("p", "h") == 0.9
    assert scorer.entail("p", "other") == 0.2


# -- external protocol: child process ----------------------------------------------


@pytest.fixture()
def exec_client():
    client = ExternalScorerClient.from_spec(f"exec:{sys.executable} {STUB}")
    yield client
    client.close()


def test_exec_lm_scorer_roundtrip(exec_client):
    scorer = ExternalLmScorer(exec_client)
    candidates = [0, 3, 17, 256]
    assert scorer.score((1, 2), candidates) == [stub_lm_logprob(c) for c in candidates]


def test_exec_nli_scorer_roundtrip(exec_client):
    scorer = ExternalNliScorer(exec_client)
    assert scorer.entail("abc", "defg") == stub_nli_entail("abc", "defg")


def test_exec_many_requests_in_order(exec_client):
    scorer = ExternalLmScorer(exec_client)
    for i in range(50):
        assert scorer.score((i,), [i % 300]) == [stub_lm_logprob(i % 300)]


def test_spec_parsing_errors():
    with pytest.raises(ValueError):
        ExternalScorerClient.from_spec("magic:wand")
    with pytest.raises(ValueError):
        ExternalScorerClient.from_spec("tcp:no-port")


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
            client.nli_entail("premise", "hypothesis")


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
        assert client.nli_entail("p", "h") == 0.0
        assert client.nli_entail("p", "h") == 1.0


# -- external protocol: tcp ---------------------------------------------------------


class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            request = json.loads(raw)
            if request["type"] == "lm":
                response = {
                    "logprobs": [stub_lm_logprob(c) for c in request["candidates"]]
                }
            else:
                response = {
                    "entail": stub_nli_entail(request["premise"], request["hypothesis"])
                }
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()


@pytest.fixture()
def tcp_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()


def test_tcp_scorer_roundtrip(tcp_server):
    host, port = tcp_server
    with ExternalScorerClient.from_spec(f"tcp:{host}:{port}") as client:
        assert client.lm_logprobs([5], [2, 9]) == [stub_lm_logprob(2), stub_lm_logprob(9)]
        assert client.nli_entail("pp", "hh") == stub_nli_entail("pp", "hh")
