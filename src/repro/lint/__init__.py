"""Static analysis for the whole reproduction stack.

Two layers share one diagnostic model (:class:`Diagnostic`):

* **Layer 1 — netlist semantic lint** (:mod:`repro.lint.netlist_rules`):
  topology and value checks over Verilog-AMS modules and generated zoo
  netlists, *before* the solver sees them.
* **Layer 2 — determinism self-lint** (:mod:`repro.lint.selfcheck`): a
  Python AST walker over ``src/repro`` itself flagging reproducibility
  hazards (unseeded RNGs, wall clocks in key paths, non-atomic writes,
  order-dependent digests, bare ``except``) and unused imports.

The signal-flow IR every backend consumes is checked by
:meth:`~repro.core.signalflow.SignalFlowModel.validate`, not here.  The
``repro-lint`` command line front-end lives in :mod:`repro.lint.cli`.
"""

from .diagnostics import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    LintReport,
)
from .emit import from_json, to_json, to_text
from .netlist_rules import lint_module, lint_netlist, lint_source
from .selfcheck import lint_repo, lint_python_file

__all__ = [
    "Diagnostic",
    "LintReport",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "from_json",
    "lint_module",
    "lint_netlist",
    "lint_python_file",
    "lint_repo",
    "lint_source",
    "to_json",
    "to_text",
]
