"""Documentation names only what exists: repository paths and stated defaults.

Every repository path a document cites (``src/...``, ``docs/...``,
``benchmarks/...``, a root ``README.md`` and so on) must be in the tree, and
a glob such as ``tests/corpus/*.va`` must match at least one file.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.common import DEFAULT_TIME_SCALE

ROOT = Path(__file__).resolve().parents[1]

DOCUMENT_GLOBS = (
    "README.md",
    "docs/*.md",
    ".github/workflows/*.yml",
    ".claude/skills/*/SKILL.md",
    "src/repro/__init__.py",
    "examples/*.py",
    "benchmarks/*.py",
)
DOCUMENTS = sorted({path.relative_to(ROOT).as_posix() for pattern in DOCUMENT_GLOBS for path in ROOT.glob(pattern)})

# A path under a top-level directory, or a root file named in capitals
# (``README.md``, ``BENCHMARK.json``) or a ``*.toml``.
REPO_PATH = re.compile(r"(?<![\w./-])((?:src|tests|docs|examples|benchmarks|perfbench|\.github|\.claude)/[\w./*-]*[\w*])")
ROOT_FILE = re.compile(r"(?<![\w/.-])([A-Z][A-Z0-9_]*\.(?:md|json)|[\w-]+\.toml)\b")


def cited_paths(text: str) -> set[str]:
    return {match.group(1) for pattern in (REPO_PATH, ROOT_FILE) for match in pattern.finditer(text)}


def test_cited_paths_finds_both_forms():
    text = "See ``README.md`` and `docs/performance.md`; run src/repro/x.py over tests/corpus/*.va."
    assert cited_paths(text) == {"README.md", "docs/performance.md", "src/repro/x.py", "tests/corpus/*.va"}


@pytest.mark.parametrize("document", DOCUMENTS)
def test_cited_repository_paths_exist(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    missing = [
        path
        for path in sorted(cited_paths(text))
        if not (any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists())
    ]
    assert not missing, f"{document} cites paths that do not exist: {missing}"


def test_reproduce_tables_states_the_default_time_scale():
    text = (ROOT / "examples" / "reproduce_tables.py").read_text(encoding="utf-8")
    stated = re.search(r"\((\d+)/(\d+) of the paper's durations\)", text)
    assert stated is not None, "reproduce_tables.py no longer states its default time scale"
    assert int(stated.group(1)) / int(stated.group(2)) == pytest.approx(DEFAULT_TIME_SCALE)
