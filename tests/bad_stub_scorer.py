"""Misbehaving variants of ``stub_scorer.py`` for protocol-validation tests.

Usage: ``python bad_stub_scorer.py VARIANT [GOOD]``. Each variant answers
like the stub but puts one bad value in its responses: the ``entail`` value
of every ``nli`` response, the whole of every ``nli`` response, or the first
log-prob of every ``lm`` response. With ``GOOD``, the first ``GOOD``
responses are left as they are.
"""

import json
import sys

from stub_scorer import handle

VARIANTS = {
    "nli-nan": ("entail", float("nan")),
    "nli-above-one": ("entail", 5.0),
    "nli-negative": ("entail", -1),
    "nli-string": ("entail", "0.5"),
    "nli-null": ("entail", None),
    "nli-list": ("response", [0.5]),
    "nli-no-entail": ("response", {"score": 0.5}),
    "lm-null": ("logprobs", None),
    "lm-string": ("logprobs", "-1.0"),
    "lm-bool": ("logprobs", False),
    "lm-huge-negative": ("logprobs", -(10**400)),  # an int past the float range
    "lm-huge-positive": ("logprobs", 10**400),
}


def main() -> None:
    key, bad = VARIANTS[sys.argv[1]]
    good = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    for line in sys.stdin:
        if not line.strip():
            continue
        response = handle(line)
        if good:
            good -= 1
        elif key == "entail" and "entail" in response:
            response["entail"] = bad
        elif key == "response" and "entail" in response:
            response = bad
        elif key == "logprobs" and response.get("logprobs"):
            response["logprobs"][0] = bad
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
