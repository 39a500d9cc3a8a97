"""Command-line entry point regenerating the paper's tables.

Installed as the ``repro-tables`` console script::

    repro-tables --table 1            # Table I  (isolation, vs Verilog-AMS)
    repro-tables --table 2            # Table II (isolation, vs SC-AMS/ELN)
    repro-tables --table 3            # Table III (virtual platform)
    repro-tables --table cost         # abstraction-cost sweep
    repro-tables --table all          # everything
    repro-tables --components RC1 OA  # restrict the component set
    repro-tables --json               # one JSON object on stdout
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .abstraction_cost import format_sweep, run_sweep
from .common import simulated_time_scale
from .table1 import run_table1
from .table2 import abstraction_processing_times, run_table2
from .table3 import run_table3


def _print_processing_times(times: dict[str, dict[str, float]]) -> None:
    print("\nAbstraction-tool processing time (paper: 7.67 s for RC20):")
    for name, entry in times.items():
        print(
            f"  {name:5s}: total {entry['total'] * 1e3:8.2f} ms "
            f"(|N| = {int(entry.get('nodes', 0))}, |B| = {int(entry.get('branches', 0))})"
        )


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-tables`` script."""
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--table",
        default="all",
        choices=["1", "2", "3", "cost", "all"],
        help="which table to regenerate (default: all)",
    )
    parser.add_argument(
        "--components",
        nargs="*",
        default=None,
        help="restrict to these components (2IN, RC1, RC20, OA)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object (the tables' rows, the processing times "
        "under 'processing_times', the cost study under 'abstraction_cost') "
        "instead of formatted text",
    )
    arguments = parser.parse_args(argv)

    scale = simulated_time_scale()
    print(
        f"# simulated-time scale factor: {scale:g} "
        "(set REPRO_SIM_TIME_SCALE=1 for paper-size runs)",
        file=sys.stderr,
    )

    tables = []
    if arguments.table in ("1", "all"):
        tables.append(run_table1(arguments.components))
    if arguments.table in ("2", "all"):
        tables.append(run_table2(arguments.components))
    if arguments.table in ("3", "all"):
        tables.append(run_table3(arguments.components))

    payload: dict = {table.title: table.as_dicts() for table in tables}
    if not arguments.json:
        for table in tables:
            print()
            print(table.to_text())

    if arguments.table in ("2", "all"):
        times = abstraction_processing_times(arguments.components)
        if arguments.json:
            payload["processing_times"] = times
        else:
            _print_processing_times(times)

    if arguments.table in ("cost", "all"):
        samples = run_sweep()
        if arguments.json:
            payload["abstraction_cost"] = [asdict(sample) for sample in samples]
        else:
            print()
            print(format_sweep(samples))

    if arguments.json:
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
