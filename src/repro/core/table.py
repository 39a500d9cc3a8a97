"""The equation multimap ("hash table") shared by the abstraction steps.

Step 1 of the methodology stores the dipole equations "in an optimized data
structure, i.e. a Multimap, with average-case insertion time O(1)"; step 2
enriches it with Kirchhoff equations and with every equation re-solved for
every term, chaining derived equations to their origin so that an entire
equivalence class of linearly dependent relations can be disabled at once
(paper Figure 5).  :class:`EquationTable` is that structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..expr.equation import Equation


@dataclass
class TableEntry:
    """One equation stored in the table.

    ``origin`` identifies the equivalence class: every equation derived by
    re-solving the same source relation shares the origin of that relation,
    so using any member of the class "consumes" the underlying physical
    constraint and the whole class must be disabled (``element.disable()`` in
    Algorithm 2 of the paper).
    """

    equation: Equation

    @property
    def origin(self) -> str:
        return self.equation.origin or self.equation.name


class EquationTable:
    """Multimap from defined variable name to candidate defining equations."""

    def __init__(self) -> None:
        self._by_variable: dict[str, list[TableEntry]] = {}
        self._all: list[TableEntry] = []
        self._disabled_origins: set[str] = set()

    # -- insertion -----------------------------------------------------------------
    def insert(self, equation: Equation) -> TableEntry:
        """Insert an equation; it is indexed by its defined variable, if any."""
        entry = TableEntry(equation)
        self._all.append(entry)
        variable = equation.defined_variable()
        if variable is not None:
            self._by_variable.setdefault(variable, []).append(entry)
        return entry

    def extend(self, equations: list[Equation]) -> None:
        """Insert several equations."""
        for equation in equations:
            self.insert(equation)

    # -- lookup --------------------------------------------------------------------
    def candidates(self, variable: str) -> list[TableEntry]:
        """Return the equations that define ``variable``, minus disabled classes."""
        return [
            entry
            for entry in self._by_variable.get(variable, [])
            if entry.origin not in self._disabled_origins
        ]

    def defined_variables(self) -> list[str]:
        """Every variable for which at least one defining equation exists."""
        return list(self._by_variable)

    def origins(self) -> set[str]:
        """The set of equivalence-class identifiers present in the table."""
        return {entry.origin for entry in self._all}

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._all)

    # -- equivalence classes -----------------------------------------------------------
    def disable_origin(self, origin: str) -> None:
        """Disable the whole equivalence class derived from ``origin``."""
        self._disabled_origins.add(origin)

    def enable_origin(self, origin: str) -> None:
        """Re-enable a previously disabled equivalence class (used by backtracking)."""
        self._disabled_origins.discard(origin)

    def is_origin_disabled(self, origin: str) -> bool:
        """Return whether the equivalence class ``origin`` is currently disabled."""
        return origin in self._disabled_origins

    def reset_disabled(self) -> None:
        """Re-enable every equivalence class."""
        self._disabled_origins.clear()
