"""Package metadata: what ``pyproject.toml`` ships is what the tree provides.

The importable version is the one ``pyproject.toml`` declares, every console
script resolves to a working argument parser, and the HTML reporting layer
stays a leaf: the library's runtime entry points and the other console
scripts import without loading :mod:`repro.report`.
"""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _table(name: str) -> str:
    """Body of the ``[name]`` table of ``pyproject.toml`` (3.10 has no ``tomllib``)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    table = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table is not None, f"pyproject.toml has no [{name}] table"
    return table.group(1)


SCRIPTS = dict(re.findall(r'^([\w-]+)\s*=\s*"([\w.]+:\w+)"', _table("project.scripts"), re.M))
REPORT_SCRIPT_MODULE = "repro.report.cli"
LIGHT_MODULES = ("repro", "repro.sweep", "repro.fault", "repro.vp") + tuple(
    sorted(target.split(":")[0] for target in SCRIPTS.values() if not target.startswith(REPORT_SCRIPT_MODULE))
)


def test_version_matches_pyproject():
    version = re.search(r'^version\s*=\s*"([^"]+)"', _table("project"), re.M)
    assert version is not None, "[project] declares no version"
    assert repro.__version__ == version.group(1)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_console_script_answers_help(script, capsys):
    module_name, _, attribute = SCRIPTS[script].partition(":")
    main = getattr(importlib.import_module(module_name), attribute)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("module", LIGHT_MODULES)
def test_import_does_not_load_reporting(module):
    probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'report']))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
