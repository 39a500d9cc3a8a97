"""Layer 2: the repo determinism self-lint.

A Python ``ast``-walking checker run over ``src/repro`` itself, flagging
the hazards that would break the bit-identical-resume contract the
campaign store depends on:

* ``unseeded-rng`` — RNG construction without an explicit seed, or use of
  the global ``random``/``numpy.random`` state, anywhere outside
  ``sweep/seeds.py`` (the one designated seed-derivation module);
* ``wall-clock-in-key-path`` — reading the clock inside ``store/``: keys,
  fingerprints and digests must not depend on *when* they are computed;
* ``nonatomic-write`` — file writes inside ``store/`` that bypass
  :mod:`repro.store.atomic` (a crash mid-write would corrupt the store);
* ``dict-order-digest`` — ``json.dumps`` without ``sort_keys=True`` inside
  ``store/`` (digests must not depend on insertion order);
* ``bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and masks
  real failures anywhere in the library;
* ``unused-import`` — not a determinism hazard but dead code: an imported
  name the module never reads.  A name listed in ``__all__`` or read in a
  string annotation counts as read, and ``from __future__`` imports are
  exempt.

CI runs this over ``src/repro`` and fails on any finding: the library is
expected to stay clean.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import SEVERITY_ERROR, LintReport

#: Relative paths (posix) where seeded-RNG derivation is the module's job.
RNG_ALLOWED = frozenset({"sweep/seeds.py"})

#: Relative path prefix of the store-key/fingerprint code paths.
STORE_PREFIX = "store/"

#: The one module allowed to write files non-atomically (it implements atomic).
ATOMIC_MODULE = "store/atomic.py"

_GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.gauss",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.seed",
        "random.getrandbits",
    }
)

_WALL_CLOCK_FUNCTIONS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock_gettime",
    }
)

#: numpy.random module-level helpers that are deterministic constructors,
#: not draws from the unseeded global state.
_NP_RANDOM_SAFE = frozenset(
    {"default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64", "Philox"}
)


def _dotted(node: ast.AST) -> str:
    """Render a call target as a dotted name (``np.random.default_rng``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _write_mode(call: ast.Call) -> bool:
    """True when an ``open()``-style call requests a writing mode."""
    mode: "ast.expr | None" = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return False


def _unused_imports(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """``(bound name, import statement)`` for every import never read."""
    imported: dict[str, ast.stmt] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.setdefault(alias.asname or alias.name.split(".")[0], node)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in [
            getattr(target, "id", None) for target in node.targets
        ]:
            elements = getattr(node.value, "elts", ())
            read.update(item.value for item in elements if isinstance(item, ast.Constant))
        # Parameters and ``AnnAssign`` carry ``annotation``, functions ``returns``.
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                read |= _string_annotation_names(annotation)
    return [(name, node) for name, node in imported.items() if name not in read]


def _string_annotation_names(annotation: ast.expr) -> set[str]:
    """Names read by the string parts of an annotation (``"np.ndarray"``)."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
            )
    return names


def lint_python_file(
    path: "str | Path", root: "str | Path | None" = None
) -> LintReport:
    """Self-lint one python source file.

    ``root`` anchors the relative path used both for scoping (which rules
    apply where) and for the diagnostic's ``file`` field.
    """
    path = Path(path)
    relative = (
        path.relative_to(root).as_posix() if root is not None else path.as_posix()
    )
    report = LintReport()
    try:
        tree = ast.parse(path.read_text())
    except SyntaxError as error:  # pragma: no cover - the repo always parses
        report.add(
            "py-syntax-error",
            SEVERITY_ERROR,
            f"file does not parse: {error.msg}",
            file=relative,
            line=error.lineno or 0,
            column=error.offset or 1,
        )
        return report

    in_store = relative.startswith(STORE_PREFIX)
    rng_allowed = relative in RNG_ALLOWED

    for name, node in _unused_imports(tree):
        report.add(
            "unused-import",
            SEVERITY_ERROR,
            f"{name!r} is imported but never used",
            file=relative,
            line=node.lineno,
            column=node.col_offset + 1,
            hint="delete the import, or list a re-export in __all__",
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            report.add(
                "bare-except",
                SEVERITY_ERROR,
                "bare 'except:' swallows KeyboardInterrupt and masks failures",
                file=relative,
                line=node.lineno,
                column=node.col_offset + 1,
                hint="catch a specific exception type (ReproError at widest)",
            )
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        tail = dotted.rsplit(".", 1)[-1]

        if not rng_allowed:
            if tail == "default_rng" and not node.args and not node.keywords:
                report.add(
                    "unseeded-rng",
                    SEVERITY_ERROR,
                    "default_rng() without a seed is non-reproducible",
                    file=relative,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    hint="derive the seed via repro.sweep.seeds",
                )
            elif dotted == "random.Random" and not node.args:
                report.add(
                    "unseeded-rng",
                    SEVERITY_ERROR,
                    "random.Random() without a seed is non-reproducible",
                    file=relative,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    hint="derive the seed via repro.sweep.seeds",
                )
            elif dotted in _GLOBAL_RANDOM_FUNCTIONS:
                report.add(
                    "unseeded-rng",
                    SEVERITY_ERROR,
                    f"{dotted}() draws from the unseeded global RNG state",
                    file=relative,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    hint="use a Generator from repro.sweep.seeds instead",
                )
            elif (
                ".random." in f".{dotted}"
                and dotted.split(".")[-2:][0] == "random"
                and dotted.split(".")[0] in ("np", "numpy")
                and tail not in _NP_RANDOM_SAFE
            ):
                report.add(
                    "unseeded-rng",
                    SEVERITY_ERROR,
                    f"{dotted}() uses numpy's global RNG state",
                    file=relative,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    hint="use a Generator from repro.sweep.seeds instead",
                )

        if in_store:
            if dotted in _WALL_CLOCK_FUNCTIONS or (
                "datetime" in dotted and tail in ("now", "utcnow", "today")
            ):
                report.add(
                    "wall-clock-in-key-path",
                    SEVERITY_ERROR,
                    f"{dotted}() makes store keys/fingerprints depend on the "
                    "wall clock",
                    file=relative,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    hint="store paths and digests must be time-independent",
                )
            if relative != ATOMIC_MODULE:
                if (tail == "open" and _write_mode(node)) or tail in (
                    "write_text",
                    "write_bytes",
                ):
                    report.add(
                        "nonatomic-write",
                        SEVERITY_ERROR,
                        f"{dotted or tail}() writes a file without going "
                        "through store.atomic",
                        file=relative,
                        line=node.lineno,
                        column=node.col_offset + 1,
                        hint="use atomic_write_text/bytes/json (crash-safe rename)",
                    )
            if tail == "dumps" and dotted in ("json.dumps", "dumps"):
                sorted_keys = any(
                    keyword.arg == "sort_keys"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in node.keywords
                )
                if not sorted_keys:
                    report.add(
                        "dict-order-digest",
                        SEVERITY_ERROR,
                        "json.dumps without sort_keys=True makes digests "
                        "depend on dict insertion order",
                        file=relative,
                        line=node.lineno,
                        column=node.col_offset + 1,
                        hint="pass sort_keys=True (see store.keys.canonical_json)",
                    )
    return report


def lint_repo(root: "str | Path") -> LintReport:
    """Self-lint every ``*.py`` file under ``root`` (deterministic order)."""
    root = Path(root)
    report = LintReport()
    for path in sorted(root.rglob("*.py")):
        report.extend(lint_python_file(path, root=root))
    return report
