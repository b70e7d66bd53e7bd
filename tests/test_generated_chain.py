"""Every stage's bytes on a generated corpus, pinned.

The chain runs in process through ``cli.main`` on ``bench/gen.py`` data
(2,000 entities, 300 sentences, seed 1) with relative paths, so that the
manifests hold no temporary prefix. A change that alters bytes on purpose
updates the entries it changes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
from pathlib import Path

from factgen import cli

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("gen", _ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen)

STUB = Path(__file__).resolve().parent / "stub_scorer.py"
# The stub is copied beside the data and started by name, so that the
# manifests that record the scorer spec name no interpreter path.
SCORER = "exec:python3 stub_scorer.py"
KB = ["--kb-entities", "entities.tsv", "--kb-relations", "relations.tsv",
      "--kb-triples", "triples.tsv"]
TRIES = ["--entity-trie", "entity.trie", "--relation-trie", "relation.trie",
         "--tail-trie", "tail.trie"]

CHAIN = [
    ["build-trie", *KB, "--out-entity", "entity.trie", "--out-relation", "relation.trie",
     "--out-tail", "tail.trie"],
    ["extract", "--input", "sentences.jsonl", *KB, "--out", "extracted.jsonl"],
    ["filter", "--input", "extracted.jsonl", *KB, "--templates", "templates.jsonl",
     "--threshold", "0.5", "--scorer", SCORER, "--out", "filtered.jsonl"],
    ["negatives", "--input", "filtered.jsonl", "--neg-fraction", "0.5", "--seed", "7",
     "--out", "dataset.jsonl"],
    ["split", "--input", "dataset.jsonl", "--split", "80,10,10", "--seed", "7",
     "--out-dir", "splits"],
    *(["targets", "--input", "dataset.jsonl", *KB, "--mode", mode, "--out", f"{mode}.jsonl"]
      for mode in cli.TARGET_MODES),
    *(["decode", "--input", "splits/test.jsonl", *TRIES, "--mode", mode, "--scorer", SCORER,
       "--out", f"{mode}.pred.jsonl"]
      for mode in ("constrained", "partial")),
    ["decode", "--input", "splits/test.jsonl", "--mode", "unconstrained", "--scorer", SCORER,
     "--max-len", "24", "--out", "unconstrained.pred.jsonl"],
    ["score", "--pred", "constrained.pred.jsonl", "--gold", "splits/test.jsonl", *KB,
     "--out", "report.json"],
]

# SHA-256 of every file the generator and the chain write. Under the stub's
# scores every search returns the empty output, so the three prediction files
# are alike; their manifests pin the requests and candidates each mode scored.
PINNED_DIGESTS = {
    "artificial-prompt.jsonl": "12fe15a38d877bc1c8fed3430f293188abf3e79b815324fc7595929be78e18ca",
    "artificial-prompt.jsonl.manifest.json": "f7f1440fc4e4319711e9bbc2a6c8330b82703aa9f4c0baba47dd13847f54db6a",
    "constrained.pred.jsonl": "06e13b972e32c25c8e7286abbd99102c2cdc4c1b4366140f30a42f8df6bd45a4",
    "constrained.pred.jsonl.manifest.json": "07b15dc47e00d87889c251965dd73b80194cb7c4991d82e5a4239312b31d4ec1",
    "dataset.jsonl": "e48650fedddad193ab8d654cb84f7c1d508f127c75687969077425022c210d6e",
    "dataset.jsonl.manifest.json": "3c30e0c07d50520a91942050fbc6773e4c369170ee84fc08ea2da75d5d349886",
    "dual-head.jsonl": "cd222219faebfd44dc56145fb29c51a901245370e821955a5bfb5aded2cc2764",
    "dual-head.jsonl.manifest.json": "fa45de9027f8c7c5c19042f0a09cc28fb24f04ae7416c83ba2489b85d86f318c",
    "entities.tsv": "34c47bd8bc587c755c14b957fa4812c6ae6e7f59f571ef477bf08cd3ec08f0f7",
    "entity-prompt.jsonl": "85cc0d375044804a9681ed2ad316a884ce281470a0c94180a01764ab193245ae",
    "entity-prompt.jsonl.manifest.json": "c473a17391fcb014eb0dee9ba0004728b8b17c2879f03d09abfa0e1515650cac",
    "entity.trie": "6fde1c018596b9f11a416d36e732934aeb9f6b354217c2ee5b1d2256a3ee7cca",
    "entity.trie.manifest.json": "d97b1a18fa529558b0b81496c446392d6c36ec4586bed464a53657c39db53994",
    "extracted.jsonl": "59ad07e7a80323cfa36f9c2c59c22e77ede11be5b82d9438177dafcb40c6f0d9",
    "extracted.jsonl.manifest.json": "a590b48a31a9fd89d0f3c6794e83d327cae4744424e413df13e0f43814eb76fe",
    "filtered.jsonl": "27b5429495325d16792ccbd9720dbe68c99cf0f1b871ffe89917d9061ed6aa9e",
    "filtered.jsonl.manifest.json": "c1d0af173a28473a711a20c0db6279dc66237106d15033b7f8a5526d1be09072",
    "gold.jsonl": "1094de510b64b674deaaec1a2c69cfbf61bd39b096f91ec5e0659adf4f455e80",
    "partial.pred.jsonl": "06e13b972e32c25c8e7286abbd99102c2cdc4c1b4366140f30a42f8df6bd45a4",
    "partial.pred.jsonl.manifest.json": "f03e2bf87ff5e69ba620733fb0308e352a04a4550980ccb29c8f4204d6671946",
    "relation.trie": "67c057b7d07bd64999a9a58cd4bd146cdd73d42884f39b66bc9cb8cecf598e15",
    "relations.tsv": "d1e5e5f22ccd6639bf666014ac98e3383232cdbdca7a6c08fdfd36c4d9e99f1a",
    "report.json": "be18a45a59e6fe664bad41cfd8ca8f50a941a7f54691cec910480e6d193fb119",
    "report.json.manifest.json": "7bf9386ba3391e143614f99f8a2da434580293324e70e411c269c5ee2fef712d",
    "sentences.jsonl": "3908119f5af89674e33ac71d86439502533342e55e1f0c61616909a9f0af10b1",
    "shares.json": "fa218e96290015df580def6f3c1141002a3e6e433e067f9503099951e38ffa21",
    "splits/split.manifest.json": "2faae2ee744081160125963ce10dd588f6e4f8e559b2462a0ffb2b0a23fe8322",
    "splits/test.jsonl": "417b439419fc5500c66e1f3042dcbb7359875f5f013f79a602fd9d289e8aace9",
    "splits/train.jsonl": "68e1751d9f8fab60735369f69065e386c8fb97dcab64a6fe6951280653bb58d9",
    "splits/validation.jsonl": "e537c16ca2931d727e682c45b95b14b30422ceee511d02ed12af7565c6be4b57",
    "standard.jsonl": "351ccba7869d30a2144bc95e5e830aea826bff4430d13243edf589055385b333",
    "standard.jsonl.manifest.json": "ef47ad8738b0fdd3453fab9fbef9777df63a8919e39b10072e6f2e04aa16485e",
    "tail.trie": "9d35bbf534abf43090689c34e916e3857c4b646c705d06dd396318d3661f4565",
    "templates.jsonl": "11974fe9230294ee7648d1a2f563752bc5480d539b1e3ef02097aa5f8ee23f84",
    "triples.tsv": "73d5ecdca12c4a21745c998b041f5955c01fb9a502d78441265b1c929a2aca33",
    "unconstrained.pred.jsonl": "06e13b972e32c25c8e7286abbd99102c2cdc4c1b4366140f30a42f8df6bd45a4",
    "unconstrained.pred.jsonl.manifest.json": "0fdc4b3bcb618e3ea9ac2d261fce5b5753d0b787aaf3fea16491fdf40c09a603",
}


def test_every_stage_writes_its_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # python3 is this interpreter, whatever else PATH holds.
    monkeypatch.setenv("PATH", os.pathsep.join([str(Path(sys.executable).parent),
                                                os.environ.get("PATH", "")]))
    gen.generate(1, 2000, 300, ".")
    shutil.copy(STUB, "stub_scorer.py")
    for argv in CHAIN:
        assert cli.main(argv) == 0, argv
    digests = {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.name != "stub_scorer.py"
    }
    assert digests.keys() == PINNED_DIGESTS.keys()
    for name, digest in PINNED_DIGESTS.items():
        assert digests[name] == digest, name
