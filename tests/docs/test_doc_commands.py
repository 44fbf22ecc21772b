"""Every ``alock-experiments`` command the prose documents show must
parse.  A deleted subcommand or flag otherwise survives in the docs
and fails only for the reader who pastes it, so each command — the
fenced lines (``$`` prompt or not, ``\\`` continuations joined) and the
backticked ones — in the five documents ``test_doc_paths.py`` reads is
fed to the CLI's own parser, without running it.  A command is checked
up to its first placeholder (``<id>``, ``…``), and a backticked one may
be a prefix (``alock-experiments run``): every word it names must
parse, only what it leaves out may be missing."""

import argparse
import re
import shlex

import pytest

from repro.experiments.cli import build_parser
from tests.docs.test_doc_paths import DOCS, FENCED_BLOCK, REPO_ROOT

PROGRAM = "alock-experiments"
#: a word standing for one the reader fills in: ``<id>``, ``{a,b}``,
#: ``[S ...]``, ``…``, ``...`` or an upper-case metavar such as ``S``
PLACEHOLDER = re.compile(r"[<{\[…]|\.\.\.|^[A-Z]+$")
#: what argparse says of a command that only leaves something out
INCOMPLETE = ("the following arguments are required",
              "expected one argument", "expected at least one argument")


def commands(doc: str) -> list[tuple[str, bool]]:
    """``(command, fenced)`` for each ``alock-experiments`` command of
    one document, as written."""
    text = (REPO_ROOT / doc).read_text()
    found = []
    for block in FENCED_BLOCK.findall(text):
        lines = iter(block.splitlines())
        for line in lines:
            line = line.strip().removeprefix("$ ")
            if not line.startswith(PROGRAM):
                continue            # output, or another program
            while line.endswith("\\"):
                line = line[:-1] + next(lines).strip()
            found.append((line, True))
    for token in re.findall(r"`([^`]+)`", FENCED_BLOCK.sub("", text)):
        if token.startswith(PROGRAM):
            found.append((" ".join(token.split()), False))
    return found


class Refused(Exception):
    pass


def refuse(_parser, message):
    raise Refused(message)


@pytest.mark.parametrize("doc", DOCS)
def test_every_documented_command_parses(doc, monkeypatch):
    found = commands(doc)
    assert found, "the pattern no longer finds this document's commands"
    monkeypatch.setattr(argparse.ArgumentParser, "error", refuse)
    refused = []
    for command, fenced in found:
        words = shlex.split(command, comments=True)[1:]
        if "|" in words:
            words = words[:words.index("|")]
        cut = next((i for i, word in enumerate(words)
                    if PLACEHOLDER.search(word)), len(words))
        # a fenced command is pasted whole; prose may name a prefix
        fragment = cut < len(words) or not fenced
        try:
            build_parser().parse_args(words[:cut])
        except Refused as exc:
            if not (fragment and any(m in str(exc) for m in INCOMPLETE)):
                refused.append(f"{command!r}: {exc}")
    assert not refused, f"{doc} shows commands the CLI refuses: {refused}"
