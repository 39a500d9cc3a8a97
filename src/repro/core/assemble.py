"""Step 3 — Assemble (paper Section IV.C, Algorithm 2).

Starting from the output(s) of interest, the assemble step walks the enriched
equation table and picks, for every unknown quantity it encounters, one
defining equation — disabling the equation's whole equivalence class so that
each physical relation is used at most once.  The result is the sub-set of
the input-state-output equations that determines the chosen outputs (the gray
boxes of the paper's Figure 3): all other equations, and the sub-circuits
they describe, are dropped.  Residual un-delayed couplings between the
selected unknowns (the occurrences of the left value on the right side that
the paper removes in Figure 7) are eliminated afterwards by
:mod:`repro.core.linsolve`.

The selection is a depth-first search with backtracking: whenever a greedy
choice leaves some quantity without an available definition, the most recent
choice is undone and the next candidate is tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AssembleError
from ..expr.ast import Expr
from ..expr.equation import Equation
from .enrichment import EnrichmentResult
from .table import EquationTable, TableEntry

#: Safety bound on the number of candidate trials during backtracking.
MAX_TRIALS = 200_000


@dataclass
class AssembledModel:
    """Outcome of the assemble step: one chosen definition per unknown."""

    outputs: list[str]
    resolutions: dict[str, Expr]
    order: list[str]
    used_origins: set[str] = field(default_factory=set)
    dropped_unknowns: set[str] = field(default_factory=set)

    @property
    def cone_size(self) -> int:
        """Number of quantities retained in the cone of influence of the outputs."""
        return len(self.resolutions)


def normalise_output(name: str, ground: str = "gnd") -> str:
    """Normalise an output designation to the canonical ``V(node)``/``I(branch)`` form.

    Accepted spellings: ``"out"`` (a node name), ``"V(out)"``, ``"V(out,gnd)"``
    and ``"I(branch)"``.
    """
    name = name.strip()
    if name.startswith("V(") or name.startswith("I("):
        inner = name[2:-1]
        parts = [part.strip() for part in inner.split(",")]
        if len(parts) == 2 and parts[1] == ground:
            return f"{name[0]}({parts[0]})"
        return f"{name[0]}({inner.replace(' ', '')})"
    return f"V({name})"


class Assembler:
    """Depth-first resolver over the enriched equation table."""

    def __init__(self, enrichment: EnrichmentResult) -> None:
        self.enrichment = enrichment
        self.table: EquationTable = enrichment.table
        self._resolvable = set(enrichment.unknowns) | set(enrichment.integrator_updates)
        self._inputs = set(enrichment.inputs)
        self._trials = 0

    # -- public API ---------------------------------------------------------------------
    def assemble(self, outputs: list[str]) -> AssembledModel:
        """Resolve the cone of influence of ``outputs``."""
        self.table.reset_disabled()
        resolutions: dict[str, Expr] = {}
        order: list[str] = []
        journal: list[tuple[str, str]] = []
        self._trials = 0

        for output in outputs:
            if output in self._inputs:
                continue
            if output not in self._resolvable:
                raise AssembleError(
                    f"{output!r} is not a quantity of the description; known "
                    f"quantities are {sorted(self._resolvable)}"
                )
            if not self._resolve(output, resolutions, order, journal, set()):
                raise AssembleError(
                    f"no combination of equations defines the output {output!r}; "
                    "check that it names an existing node or branch quantity"
                )

        used_origins = {origin for kind, origin in journal if kind == "origin"}
        dropped = set(self.enrichment.unknowns) - set(resolutions)
        return AssembledModel(
            outputs=list(outputs),
            resolutions=resolutions,
            order=order,
            used_origins=used_origins,
            dropped_unknowns=dropped,
        )

    # -- resolution ---------------------------------------------------------------------
    def _resolve(
        self,
        name: str,
        resolutions: dict[str, Expr],
        order: list[str],
        journal: list[tuple[str, str]],
        resolving: set[str],
    ) -> bool:
        if name in resolutions or name in resolving:
            return True
        if name not in self._resolvable:
            # Inputs, time and parameters need no definition.
            return True
        candidates = self._ranked_candidates(name, resolutions, resolving)
        if not candidates:
            return False

        resolving.add(name)
        try:
            for entry in candidates:
                self._trials += 1
                if self._trials > MAX_TRIALS:
                    raise AssembleError(
                        "the assemble step exceeded its backtracking budget; "
                        "the description is probably over- or under-determined"
                    )
                if self.table.is_origin_disabled(entry.origin):
                    continue
                mark = len(journal)
                self.table.disable_origin(entry.origin)
                journal.append(("origin", entry.origin))

                success = True
                for dependency in self._unknown_references(entry.equation):
                    if not self._resolve(dependency, resolutions, order, journal, resolving):
                        success = False
                        break
                if success:
                    resolutions[name] = entry.equation.rhs
                    order.append(name)
                    journal.append(("resolution", name))
                    return True
                self._undo(journal, mark, resolutions, order)
            return False
        finally:
            resolving.discard(name)

    def _undo(
        self,
        journal: list[tuple[str, str]],
        mark: int,
        resolutions: dict[str, Expr],
        order: list[str],
    ) -> None:
        while len(journal) > mark:
            kind, value = journal.pop()
            if kind == "origin":
                self.table.enable_origin(value)
            else:
                resolutions.pop(value, None)
                if value in order:
                    order.remove(value)

    def _unknown_references(self, equation: Equation) -> list[str]:
        return sorted(
            name for name in equation.rhs.variables() if name in self._resolvable
        )

    # -- candidate ranking ----------------------------------------------------------------
    def _ranked_candidates(
        self,
        name: str,
        resolutions: dict[str, Expr],
        resolving: set[str],
    ) -> list[TableEntry]:
        candidates = self.table.candidates(name)

        def score(entry: TableEntry) -> tuple:
            origin = entry.origin
            if origin.startswith("dipole:"):
                origin_rank = 0
            elif origin.startswith("idt:"):
                origin_rank = 1
            elif origin.startswith("kcl:"):
                origin_rank = 2
            else:
                origin_rank = 3

            rhs = entry.equation.rhs
            # Prefer definitions anchored to the quantity's own previous value
            # (storage elements): they terminate the recursion.
            anchored = 0 if name in rhs.previous_values() else 1
            # Prefer the dipole equation of the branch whose flow we define.
            own_branch = 1
            if name.startswith("I(") and origin == f"dipole:{name[2:-1]}":
                own_branch = 0
            unresolved = sum(
                1
                for reference in rhs.variables()
                if reference in self._resolvable
                and reference not in resolutions
                and reference not in resolving
            )
            return (anchored, origin_rank, own_branch, unresolved, entry.equation.name)

        return sorted(candidates, key=score)
