"""The typing gate: strict mypy over the analyzer (``repro.lint``) and
the simulator core, as configured in ``[tool.mypy]``.

CI's lint tier always runs mypy; locally the run is optional (the
toolchain image may not ship it), but the config's shape — scope,
strictness, the ``py.typed`` marker — is asserted unconditionally so a
drive-by edit can't silently unscope the gate.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import read_toml

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.lint
class TestTypingGate:
    def test_py_typed_marker_is_shipped(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").is_file()
        data = read_toml(REPO_ROOT / "pyproject.toml")
        assert "py.typed" in data["tool"]["setuptools"]["package-data"]["repro"]

    def test_config_scopes_strict_to_analyzer_and_core(self):
        data = read_toml(REPO_ROOT / "pyproject.toml")
        mypy = data["tool"]["mypy"]
        assert mypy["strict"] is True
        assert set(mypy["files"]) == {"src/repro/lint", "src/repro/sim/core.py"}
        assert "mypy>=1.8" in data["project"]["optional-dependencies"]["ci"]

    def test_mypy_clean_when_available(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
