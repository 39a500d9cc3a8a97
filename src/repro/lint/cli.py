"""``repro-lint``: the static-analysis command line front-end.

Lints Verilog-AMS netlists (files, directories of ``*.va``, the paper
benchmark sources, generated zoo netlists) and, with ``--selfcheck``, runs
the determinism self-lint over a python source tree.

Exit status: 0 when no error was found, 1 when errors were found, 2 on
bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diagnostics import LintReport
from .emit import to_json, to_text
from .netlist_rules import lint_netlist, lint_source
from .selfcheck import lint_repo


def _collect_va_files(paths: "list[str]") -> "list[Path]":
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.va")))
        else:
            files.append(path)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis: netlist semantic lint over Verilog-AMS "
            "sources, plus the repo determinism self-lint."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="*.va files or directories to lint (directories recurse)",
    )
    parser.add_argument(
        "--benchmarks",
        action="store_true",
        help="lint the Verilog-AMS sources of the paper benchmark circuits",
    )
    parser.add_argument(
        "--generated",
        type=int,
        default=0,
        metavar="N",
        help="lint N generated zoo netlists (see --seed)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for --generated netlists (default 0)",
    )
    parser.add_argument(
        "--selfcheck",
        metavar="DIR",
        default=None,
        help="run the determinism self-lint over a python source tree",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default text)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="additionally write the JSON report to FILE (dashboard input)",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.paths and not args.benchmarks and not args.generated and not args.selfcheck:
        print(
            "repro-lint: nothing to lint (give paths, --benchmarks, "
            "--generated N or --selfcheck DIR)",
            file=sys.stderr,
        )
        return 2

    report = LintReport()
    for path in _collect_va_files(args.paths):
        if not path.exists():
            print(f"repro-lint: no such file: {path}", file=sys.stderr)
            return 2
        report.extend(lint_source(path.read_text(), file=str(path)))

    if args.benchmarks:
        from ..circuits import paper_benchmarks

        for benchmark in paper_benchmarks():
            report.extend(
                lint_source(
                    benchmark.vams_source, file=f"<benchmark:{benchmark.name}>"
                )
            )

    if args.generated:
        from ..zoo.generate import generate_netlist

        for index in range(args.generated):
            report.extend(lint_netlist(generate_netlist(args.seed, index)))

    if args.selfcheck:
        root = Path(args.selfcheck)
        if not root.is_dir():
            print(f"repro-lint: no such directory: {root}", file=sys.stderr)
            return 2
        report.extend(lint_repo(root))

    if args.format == "json":
        print(to_json(report))
    elif report:
        print(to_text(report))

    if args.json:
        Path(args.json).write_text(to_json(report) + "\n")

    print(f"repro-lint: {report.summary()}", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
