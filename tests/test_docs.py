"""Documentation names only what exists: repository paths, CLI flags and
stated defaults.

Every repository path a document cites (``src/...``, ``docs/...``,
``benchmarks/...``, a root ``README.md`` and so on) must be in the tree, and
a glob such as ``tests/corpus/*.va`` must match at least one file.  Every
flag a document, CI step or skill passes to a console script
(``repro-trace trace.json --validate``, ``python -m repro.obs.cli ...``)
must be one that script's ``--help`` lists.  Every keyword a document or
example passes to ``SweepRunner``, ``PlatformSweepRunner``,
``FaultCampaignRunner`` or ``AbstractionFlow`` must be one it accepts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
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


# -- CLI flags ---------------------------------------------------------------------------
FLAG_DOCUMENT_GLOBS = ("README.md", "docs/*.md", ".github/workflows/*.yml", ".claude/skills/*/SKILL.md")
FLAG_DOCUMENTS = sorted(
    {path.relative_to(ROOT).as_posix() for pattern in FLAG_DOCUMENT_GLOBS for path in ROOT.glob(pattern)}
)

#: Console script -> ``module:function``, as ``pyproject.toml`` declares them.
SCRIPTS = dict(
    re.findall(r'^(repro-[\w-]+)\s*=\s*"([\w.]+:\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
)
MODULE_TOOLS = {target.partition(":")[0]: script for script, target in SCRIPTS.items()}

# A tool invocation (``repro-trace`` or ``python -m repro.obs.cli``) and its
# arguments, up to the end of the command: a closing backtick, a comment, a
# pipe, a list separator, a parenthesis, the next tool name or the end of
# the line.
INVOCATION = re.compile(
    r"(?<![\w./-])(?:(repro-[a-z]+)|python3? -m (repro(?:\.\w+)+))(?![\w-])((?:(?!repro-[a-z])[^`#|;()\n])*)"
)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


@functools.cache
def help_options(script: str) -> frozenset[str]:
    """The ``--`` option strings in the options section of ``script --help``."""
    module_name, _, attribute = SCRIPTS[script].partition(":")
    main = getattr(importlib.import_module(module_name), attribute)
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream), pytest.raises(SystemExit):
        main(["--help"])
    section = re.search(r"^(?:options|optional arguments):\n(.*?)(?=^\S|\Z)", stream.getvalue(), re.M | re.S)
    assert section is not None, f"{script} --help has no options section"
    options: set[str] = set()
    for line in section.group(1).splitlines():
        if line.strip().startswith("-"):
            invocation = re.split(r"\s{2,}", line.strip(), maxsplit=1)[0]
            options.update(FLAG.findall(invocation))
    return frozenset(options)


def cited_flags(text: str) -> list[tuple[str, str, str]]:
    """``(script, flag, command)`` for every flag passed to a console script,
    with backslash-continued lines joined into one command."""
    text = re.sub(r"\\\n[ \t]*", " ", text)
    cited = []
    for match in INVOCATION.finditer(text):
        script = match.group(1) or MODULE_TOOLS.get(match.group(2))
        if script not in SCRIPTS:
            continue
        command = match.group(0).strip()
        cited.extend((script, flag, command) for flag in FLAG.findall(match.group(3)))
    return cited


def test_cited_flags_joins_continued_lines_and_ends_at_the_command():
    text = (
        "PYTHONPATH=src python -m repro.obs.cli trace.json --validate \\\n"
        "    --expect-counter a=1 | tee log  # --not-a-flag\n"
        "run `repro-report --telemetry t.json` with `--out`; python -m pytest --lf\n"
        "repro-report reads repro-trace --quiet\n"
    )
    assert [(script, flag) for script, flag, _ in cited_flags(text)] == [
        ("repro-trace", "--validate"),
        ("repro-trace", "--expect-counter"),
        ("repro-report", "--telemetry"),
        ("repro-trace", "--quiet"),
    ]


@pytest.mark.parametrize("document", FLAG_DOCUMENTS)
def test_cited_cli_flags_exist(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    unknown = [
        f"{flag} in `{command}`"
        for script, flag, command in cited_flags(text)
        if flag not in help_options(script)
    ]
    assert not unknown, f"{document} passes flags its CLI does not have: {unknown}"


def test_reproduce_tables_states_the_default_time_scale():
    text = (ROOT / "examples" / "reproduce_tables.py").read_text(encoding="utf-8")
    stated = re.search(r"\((\d+)/(\d+) of the paper's durations\)", text)
    assert stated is not None, "reproduce_tables.py no longer states its default time scale"
    assert int(stated.group(1)) / int(stated.group(2)) == pytest.approx(DEFAULT_TIME_SCALE)


# -- keyword arguments -------------------------------------------------------------------
KEYWORD_DOCUMENT_GLOBS = ("README.md", "docs/*.md", "examples/*.py")
KEYWORD_DOCUMENTS = sorted(
    {path.relative_to(ROOT).as_posix() for pattern in KEYWORD_DOCUMENT_GLOBS for path in ROOT.glob(pattern)}
)

CALL = re.compile(r"(?<![\w.])(SweepRunner|PlatformSweepRunner|FaultCampaignRunner|AbstractionFlow)\(")
KEYWORD = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*=(?!=)")


def _parameters(callable_) -> frozenset[str]:
    kinds = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    return frozenset(
        name for name, parameter in inspect.signature(callable_).parameters.items() if parameter.kind in kinds
    )


@functools.cache
def accepted_keywords() -> dict[str, frozenset[str]]:
    """The keywords each checked callable accepts."""
    from repro.core import AbstractionFlow
    from repro.fault import FaultCampaignRunner
    from repro.sweep import PlatformSweepRunner, SweepRunner

    platform = _parameters(PlatformSweepRunner)
    return {
        "SweepRunner": _parameters(SweepRunner),
        "PlatformSweepRunner": platform,
        # The campaign runner forwards its other keywords to the platform
        # runner, and sets these two itself.
        "FaultCampaignRunner": _parameters(FaultCampaignRunner) | platform - {"record_analog", "capture_errors"},
        "AbstractionFlow": _parameters(AbstractionFlow),
    }


def cited_keywords(text: str) -> list[tuple[str, str]]:
    """``(callable, keyword)`` for every keyword passed at the top level of a
    call to a checked callable.  Nested brackets, one-line string literals
    and ``#`` comments are skipped; a call left unclosed is ignored."""
    cited = []
    for match in CALL.finditer(text):
        depth, top, index = 1, [], match.end()
        while depth and index < len(text):
            char = text[index]
            if char in "\"'#":
                # Skip to the end of the comment or the string's closing quote.
                line_end = text.find("\n", index)
                line_end = len(text) if line_end < 0 else line_end
                closing = line_end if char == "#" else text.find(char, index + 1, line_end)
                if closing > 0:
                    index, char = closing, " "
            if char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
            if depth == 1:
                top.append(char)
            index += 1
        if depth == 0:
            cited.extend((match.group(1), keyword) for keyword in KEYWORD.findall("".join(top)))
    return cited


def test_cited_keywords_reads_the_top_level_of_each_call():
    text = (
        "runner = SweepRunner(build, \"V(out)\", {\"vin\": Wave(period=1)},  # not=a keyword\n"
        "    timestep=1e-6, backend = \"numpy\")\n"
        "`FaultCampaignRunner(..., lint=True)`; x == AbstractionFlow(dt) and AbstractionFlow(\n"
    )
    assert cited_keywords(text) == [
        ("SweepRunner", "timestep"),
        ("SweepRunner", "backend"),
        ("FaultCampaignRunner", "lint"),
    ]


@pytest.mark.parametrize("document", KEYWORD_DOCUMENTS)
def test_cited_keyword_arguments_exist(document):
    text = (ROOT / document).read_text(encoding="utf-8")
    unknown = [
        f"{name}({keyword}=)"
        for name, keyword in cited_keywords(text)
        if keyword not in accepted_keywords()[name]
    ]
    assert not unknown, f"{document} passes keywords the callable does not take: {unknown}"
