"""Static analysis for the whole reproduction stack.

Three layers share one diagnostic model (:class:`Diagnostic`):

* **Layer 1 — netlist semantic lint** (:mod:`repro.lint.netlist_rules`):
  topology and value checks over Verilog-AMS modules, generated zoo
  netlists and typed circuits, *before* the solver sees them.
* **Layer 2 — signal-flow IR checks** (:mod:`repro.lint.artifact_rules`):
  contract checks over the abstracted model every backend consumes,
  *before* it runs.
* **Layer 3 — determinism self-lint** (:mod:`repro.lint.selfcheck`): a
  Python AST walker over ``src/repro`` itself flagging reproducibility
  hazards (unseeded RNGs, wall clocks in key paths, non-atomic writes,
  order-dependent digests, bare ``except``) and unused imports.

The ``repro-lint`` command line front-end lives in :mod:`repro.lint.cli`.
"""

from .artifact_rules import lint_model
from .baseline import baseline_keys, load_baseline, write_baseline
from .diagnostics import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    Diagnostic,
    LintError,
    LintReport,
)
from .emit import from_json, to_json, to_markdown, to_text
from .netlist_rules import lint_circuit, lint_module, lint_netlist, lint_source
from .selfcheck import lint_repo, lint_python_file

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "baseline_keys",
    "from_json",
    "lint_circuit",
    "lint_model",
    "lint_module",
    "lint_netlist",
    "lint_python_file",
    "lint_repo",
    "lint_source",
    "load_baseline",
    "to_json",
    "to_markdown",
    "to_text",
    "write_baseline",
]
