"""docs/architecture.md's "ALock beside Algorithms 2–4" table cites, for
each label of ``verification/spec.py``, the statement of the one cohort
body that takes the step.  It is the seed of the trace → spec
projection (ROADMAP item 3), so it must not rot: every cited
``file.py:N`` has to say what the table quotes for it, and every label
of the spec's procedures has to have a row."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def _section() -> str:
    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    return text.split("## ALock beside Algorithms 2–4", 1)[1].split("\n## ", 1)[0]


def test_every_cited_line_says_what_the_table_says():
    citations = re.findall(r"`(\w+\.py):(\d+)` `([^`]+)`", _section())
    assert len(citations) >= 20  # the pattern still finds the table
    for file, line, statement in citations:
        source = (SRC / "locks" / "alock" / file).read_text().splitlines()
        assert source[int(line) - 1].strip().startswith(statement), \
            f"{file}:{line} is {source[int(line) - 1].strip()!r}"


def test_every_procedure_label_of_the_spec_has_a_row():
    labels = set(re.findall(
        r'label == "(\w+)"', (SRC / "verification" / "spec.py").read_text()))
    first_cells = " ".join(row.split("|")[1] for row in _section().splitlines()
                           if row.startswith("| `"))
    outer_loop = {"p1", "ncs", "enter", "cs"}
    assert labels - outer_loop <= set(re.findall(r"`(\w+)`", first_cells))
