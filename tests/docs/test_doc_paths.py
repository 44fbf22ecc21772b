"""The prose documents point at files: tests that assert a claim, modules
that implement it, scripts that regenerate it.  A pointer whose file was
renamed or deleted keeps reading as if the guard still existed, so every
backticked repo path — every bare ``test_*.py`` / ``bench_*.py`` name,
and the script of every ``python <path>.py`` command in a fenced block —
in the five documents has to resolve to a file of this checkout."""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/architecture.md",
        "docs/tutorial.md")
#: what the documents' spellings are relative to: ``tests/...``,
#: ``repro/obs/log.py``, ``rdma/network.py``, ``alock/peterson.py``
BASES = [REPO_ROOT / base for base in ("", "src", "src/repro",
                                       "src/repro/locks")]
#: first components that mark an extension-less token as a directory path
TOP_LEVEL = {"src", "repro", "tests", "docs", "scripts", "examples",
             "benchmarks", ".github"}
FENCED_BLOCK = re.compile(r"^```.*?^```", re.M | re.S)


def cited(doc: str) -> tuple[set[str], set[str]]:
    """``(paths, bare test-file names)`` among a document's backticked
    tokens and fenced commands; ``file.py::TestClass::test_x`` cites
    ``file.py``."""
    text = (REPO_ROOT / doc).read_text()
    paths, bare = set(), set()
    for block in FENCED_BLOCK.findall(text):
        paths.update(re.findall(r"\bpython3?\s+([\w./-]+\.py)\b", block))
    for token in re.findall(r"`([^`\n]+)`", text):
        token = token.split("::")[0]
        if not re.fullmatch(r"[\w./-]+", token):
            continue            # a command, a glob, an expression
        if "/" not in token:
            if re.fullmatch(r"(bench|test)_\w+\.py", token):
                bare.add(token)
        elif (token.endswith("/") or Path(token).suffix
                or token.split("/")[0] in TOP_LEVEL):
            paths.add(token)
    return paths, bare


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_resolves(doc):
    paths, bare = cited(doc)
    assert paths, "the pattern no longer finds this document's paths"
    dangling = sorted(
        path for path in paths
        if not any((base / path).exists() for base in BASES))
    dangling += sorted(
        name for name in bare
        if not any(REPO_ROOT.glob(f"*/**/{name}")))
    assert not dangling, f"{doc} cites files that do not exist: {dangling}"
