#!/usr/bin/env python3
"""Regenerate the paper's result tables from the command line.

This is a thin wrapper over :mod:`repro.experiments.report` (also installed as
the ``repro-tables`` console script).  Examples::

    python examples/reproduce_tables.py --table 1
    python examples/reproduce_tables.py --table 3 --components RC1 OA
    REPRO_SIM_TIME_SCALE=1 python examples/reproduce_tables.py --table all

The default simulated-time scale (1/100 of the paper's durations) keeps the
full regeneration in the minutes range on a laptop; the reported speed-ups
and NRMSE values are ratios, essentially independent of the scale.  See
``README.md`` for the architecture behind each table and
``docs/performance.md`` for the measured effect of each execution tier.
"""

from __future__ import annotations

import sys

from repro.experiments.report import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
