"""The README's CLI example stays a valid command line for every stage."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from factgen import cli

README = Path(__file__).resolve().parent.parent / "README.md"
STAGES = {
    "build-kb", "build-trie", "extract", "filter", "negatives", "split", "targets", "decode",
    "score",
}


def readme_cli_commands() -> list[list[str]]:
    """The argument lists of the ``factgen`` lines in the ``## CLI`` sh block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("factgen ")]


def test_every_readme_cli_command_parses():
    parser = cli.build_parser()
    seen = set()
    for argv in readme_cli_commands():
        # The README writes "..." for a path it gave before, and elides the
        # --kb-relations/--kb-triples that accompany --kb-entities.
        filled = ["path" if token == "..." else token for token in argv]
        if "--kb-entities" in filled and "--kb-relations" not in filled:
            filled += ["--kb-relations", "path", "--kb-triples", "path"]
        try:
            args = parser.parse_args(filled)
        except SystemExit:
            pytest.fail(f"the README's command does not parse: factgen {shlex.join(argv)}")
        seen.add(args.command)
    assert seen == STAGES
