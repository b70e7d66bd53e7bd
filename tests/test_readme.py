"""The README's CLI example is a valid command line for every stage, and
runs end to end on the micro corpus."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from factgen import cli

from .corpus import write_kb_fixture, write_micro_corpus

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


def filled_readme_commands() -> list[list[str]]:
    """The README's commands as they run. The README writes "..." for a path
    it gave the same flag before, and elides the --kb-relations/--kb-triples
    that accompany --kb-entities."""
    given: dict[str, str] = {}
    commands = []
    for argv in readme_cli_commands():
        filled = [given[argv[i - 1]] if token == "..." else token for i, token in enumerate(argv)]
        if "--kb-entities" in filled and "--kb-relations" not in filled:
            filled += ["--kb-relations", given["--kb-relations"],
                       "--kb-triples", given["--kb-triples"]]
        given.update(zip(filled, filled[1:]))
        commands.append(filled)
    return commands


def test_every_readme_cli_command_parses():
    parser = cli.build_parser()
    seen = set()
    for argv in filled_readme_commands():
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README's command does not parse: factgen {shlex.join(argv)}")
        seen.add(args.command)
    assert seen == STAGES


def test_every_readme_cli_command_runs_on_the_micro_corpus(tmp_path, monkeypatch, capsys):
    # The files the README names, in the directory the commands run in.
    write_kb_fixture(tmp_path)
    write_micro_corpus(tmp_path)
    template = {"pid": "P36", "templates": ["{tail} is the capital of {head}."]}
    (tmp_path / "templates.jsonl").write_text(json.dumps(template) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in filled_readme_commands():
        code = cli.main(argv)
        assert code == 0, f"factgen {shlex.join(argv)}: {capsys.readouterr().err}"
