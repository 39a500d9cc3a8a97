"""Pinned netlist-lint reports and elaborated circuits.

The lint tests check single rules on hand-written netlists, so a rewrite of
how the linter or the netlist builder recognises a component law could change
a report or a circuit unnoticed.  This test compares against a committed
table instead.  It holds:

* the SHA-256 of ``lint.emit.to_json`` for every committed ``*.va`` corpus
  file, for the Verilog-AMS source of every paper benchmark, and for
  ``generate_netlist(7, i)`` with ``i < 50``, both clean and with each
  planted ``BREAKABLE_RULES`` defect;
* for every one of those netlists that elaborates, a digest of its
  ``to_circuit`` result: the circuit name, ground and nodes, and each
  branch's name, terminals, component type and constitutive relation
  (``component.dipole_equation``).  A source's relation need not name its
  own terminals, so they are digested too; the component's fields are not,
  so a field that changes no relation changes no digest.

The table was recorded before the linter read the builder's recognition.
Re-record it only for a deliberate change of lint findings or of
elaborated circuits:
``PYTHONPATH=src python tests/test_lint_outcomes.py --record``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.circuits import paper_benchmarks
from repro.errors import ReproError
from repro.lint import lint_source
from repro.lint.emit import to_json
from repro.vams import parse_source, to_circuit
from repro.zoo.generate import BREAKABLE_RULES, generate_netlist, plant_defect, render

TABLE = Path(__file__).parent / "corpus" / "lint_outcomes.json"
ROOT = Path(__file__).resolve().parents[1]
CORPORA = ("src/repro/zoo/corpus", "tests/corpus")
SEED = 7
GENERATED = 50


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sources() -> "dict[str, str]":
    """Every pinned netlist source, keyed by a stable name."""
    named = {}
    for corpus in CORPORA:
        for path in sorted((ROOT / corpus).rglob("*.va")):
            named[path.relative_to(ROOT).as_posix()] = path.read_text()
    for benchmark in paper_benchmarks():
        named[f"<benchmark:{benchmark.name}>"] = benchmark.vams_source
    for index in range(GENERATED):
        netlist = generate_netlist(SEED, index)
        named[f"<zoo:{netlist.name}>"] = render(netlist)
        for rule in BREAKABLE_RULES:
            named[f"<zoo:{netlist.name}:{rule}>"] = render(plant_defect(netlist, rule))
    return named


def circuit_digest(source: str) -> "str | None":
    """Digest of every module's circuit, or ``None`` when one does not elaborate."""
    lines = []
    try:
        for module in parse_source(source):
            circuit = to_circuit(module)
            lines.append(f"{circuit.name} {circuit.ground} {circuit.node_names()}")
            for branch in circuit:
                relation = branch.component.dipole_equation(branch, circuit.ground)
                lines.append(
                    f"{branch.name} {branch.positive} {branch.negative} "
                    f"{type(branch.component).__name__} {relation.lhs} == {relation.rhs}"
                )
    except (ReproError, ValueError):
        return None
    return digest("\n".join(lines))


def outcomes() -> dict:
    """The pinned reports and circuits, computed on the current tree."""
    lint, circuits = {}, {}
    for name, source in sources().items():
        lint[name] = digest(to_json(lint_source(source, file=name)))
        circuit = circuit_digest(source)
        if circuit is not None:
            circuits[name] = circuit
    return {"lint": lint, "circuits": circuits}


@pytest.fixture(scope="module")
def current() -> dict:
    return outcomes()


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("part", ["lint", "circuits"])
def test_outcomes_match_the_pinned_table(part, current, table):
    differing = sorted(
        name
        for name in set(current[part]) | set(table[part])
        if current[part].get(name) != table[part].get(name)
    )
    assert not differing, differing


def test_table_covers_every_source_and_a_planted_defect_of_each_rule(table):
    assert set(sources()) == set(table["lint"])
    for rule in BREAKABLE_RULES:
        assert any(name.endswith(f":{rule}>") for name in table["lint"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: tests/test_lint_outcomes.py --record")
    TABLE.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
