"""Seeded generation of random-but-valid Verilog-AMS conservative networks.

The circuit-zoo fuzz harness rests on this module: every case derives
deterministically from a :class:`numpy.random.SeedSequence` (``entropy`` =
campaign seed, ``spawn_key`` = case index), so any generated netlist can be
re-produced from its ``(seed, index)`` pair alone.

A generated case is held twice: as a structured :class:`ZooNetlist` (typed
components over named nodes — the form the shrinker mutates) and as rendered
Verilog-AMS source (the form the frontend parses).  The renderer exercises
the supported subset on purpose: ``parameter real`` declarations with
defaults, named branches next to anonymous pair/implicit-ground accesses,
``ddt`` and ``idt`` contributions, ``if``/``else`` and ternary conditionals
over parameters, both comment styles, and SI-suffixed literals.

Topologies are constrained to be *well-posed by construction*: a resistive/
capacitive spine from the input to the output node, every non-input node
shunted to ground, and gain stages (VCVS/VCCS) only at feed-forward section
boundaries — the resulting system is block-triangular with passive blocks,
hence uniquely solvable and stable under backward-Euler discretisation, so
any cross-engine disagreement the oracle finds is an engine or frontend
defect, never a pathological input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

# Component kinds.
RESISTOR = "resistor"
CAPACITOR = "capacitor"
INDUCTOR = "inductor"
VSOURCE = "vsource"
ISOURCE = "isource"
VCVS = "vcvs"
VCCS = "vccs"

# Access rendering: a declared named branch, an anonymous two-node access, or
# a single-net access implicitly referencing ground.
NAMED = "named"
PAIR = "pair"
GROUND = "ground"

#: SI suffixes the renderer may attach to literals (subset of the lexer's
#: scale-factor table chosen so every engineering value has a clean form).
_SI_SUFFIXES = (("M", 1e6), ("k", 1e3), ("", 1.0), ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12))

_FILLER_COMMENTS = (
    "nominal corner",
    "values from the datasheet",
    "see the schematic for the reference direction",
    "generated - do not edit by hand",
    "loading network",
)


@dataclass(frozen=True)
class ZooComponent:
    """One typed component of a generated netlist.

    ``style`` selects among the equivalent Verilog-AMS spellings of the
    component's constitutive relation (e.g. a capacitor as ``I <+ C*ddt(V)``
    or as ``V <+ idt(I)/C``); ``param`` lifts the value into a
    ``parameter real`` of that name; conditional gain stages carry the
    inactive arm in ``alt_value`` and the parameter threshold the generated
    ``if``/ternary tests against in ``threshold``.
    """

    kind: str
    name: str
    positive: str
    negative: str
    value: float
    access: str = NAMED
    style: str = "direct"
    param: str | None = None
    control: tuple[str, str] | None = None
    alt_value: float | None = None
    threshold: float | None = None
    si: bool = False


@dataclass(frozen=True)
class ZooNetlist:
    """A structured generated circuit: the shrinker's unit of mutation."""

    name: str
    inputs: tuple[str, ...]
    output: str
    components: tuple[ZooComponent, ...]
    decorate: bool = True
    seed: "int | None" = None
    index: int = 0

    def parameters(self) -> dict[str, float]:
        """``parameter real`` names and default values, in declaration order."""
        params: dict[str, float] = {}
        for component in self.components:
            if component.param is not None and component.param not in params:
                params[component.param] = component.value
        return params

    def nodes(self) -> list[str]:
        """Every node the components touch (ports first, ground excluded)."""
        names = [*self.inputs, self.output]
        for component in self.components:
            for node in (component.positive, component.negative, *(component.control or ())):
                if node != "gnd" and node not in names:
                    names.append(node)
        return names

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random topology generator (all probabilities in [0, 1])."""

    max_internal_nodes: int = 5
    max_extras: int = 3
    max_gain_stages: int = 2
    gain_probability: float = 0.35
    second_input_probability: float = 0.3
    inductor_probability: float = 0.08
    param_probability: float = 0.5
    si_probability: float = 0.35
    decorate_probability: float = 0.6
    conditional_probability: float = 0.4

    def __post_init__(self) -> None:
        if self.max_internal_nodes < 1:
            raise ValueError("the generator needs at least one internal node")
        if self.max_extras < 0 or self.max_gain_stages < 0:
            raise ValueError("extras and gain-stage counts must be non-negative")


# -- value sampling ------------------------------------------------------------------
def _log_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    value = float(np.exp(rng.uniform(np.log(low), np.log(high))))
    # Three significant digits: rendered literals round-trip through the
    # lexer without surprising long mantissas.
    from math import floor, log10

    digits = 2 - floor(log10(abs(value)))
    return round(value, digits)


def _resistance(rng: np.random.Generator) -> float:
    return _log_uniform(rng, 2e2, 2e5)


def _capacitance(rng: np.random.Generator) -> float:
    return _log_uniform(rng, 2e-9, 2e-7)


def _inductance(rng: np.random.Generator) -> float:
    return _log_uniform(rng, 1e-3, 5e-2)


def _gain(rng: np.random.Generator) -> float:
    magnitude = round(float(rng.uniform(0.25, 8.0)), 3)
    return magnitude if rng.random() < 0.5 else -magnitude


# -- generation ----------------------------------------------------------------------
class _Builder:
    """Accumulates components with per-kind counters and rng-driven styles."""

    def __init__(self, rng: np.random.Generator, config: GeneratorConfig) -> None:
        self.rng = rng
        self.config = config
        self.components: list[ZooComponent] = []
        self._counters: dict[str, int] = {}

    def _name(self, prefix: str) -> str:
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        return f"{prefix}{self._counters[prefix]}"

    def _maybe_param(self, prefix: str) -> "str | None":
        if self.rng.random() < self.config.param_probability:
            return self._name(prefix).upper()
        return None

    def _access(self, negative: str, allow_ground: bool = True) -> str:
        choices = [NAMED, PAIR]
        if allow_ground and negative == "gnd":
            choices.append(GROUND)
        return str(self.rng.choice(choices))

    def resistor(self, positive: str, negative: str) -> None:
        self.components.append(
            ZooComponent(
                kind=RESISTOR,
                name=self._name("r"),
                positive=positive,
                negative=negative,
                value=_resistance(self.rng),
                access=self._access(negative),
                style=str(self.rng.choice(["potential", "flow"])),
                param=self._maybe_param("r"),
                si=bool(self.rng.random() < self.config.si_probability),
            )
        )

    def capacitor(self, positive: str, negative: str) -> None:
        self.components.append(
            ZooComponent(
                kind=CAPACITOR,
                name=self._name("c"),
                positive=positive,
                negative=negative,
                value=_capacitance(self.rng),
                access=self._access(negative),
                style=str(self.rng.choice(["ddt", "idt"])),
                param=self._maybe_param("c"),
                si=bool(self.rng.random() < self.config.si_probability),
            )
        )

    def inductor(self, positive: str, negative: str) -> None:
        self.components.append(
            ZooComponent(
                kind=INDUCTOR,
                name=self._name("l"),
                positive=positive,
                negative=negative,
                value=_inductance(self.rng),
                access=str(self.rng.choice([NAMED, PAIR])),
                style=str(self.rng.choice(["ddt", "idt"])),
                param=self._maybe_param("l"),
                si=bool(self.rng.random() < self.config.si_probability),
            )
        )

    def shunt(self, node: str, force_resistor: bool = False) -> None:
        if force_resistor or self.rng.random() < 0.5:
            self.resistor(node, "gnd")
        else:
            self.capacitor(node, "gnd")

    def series(self, positive: str, negative: str) -> None:
        roll = self.rng.random()
        if roll < self.config.inductor_probability:
            self.inductor(positive, negative)
        elif roll < 0.75:
            self.resistor(positive, negative)
        else:
            self.capacitor(positive, negative)

    def gain_stage(self, control: str, driven: str) -> str:
        """A feed-forward controlled source driving ``driven`` from ``control``."""
        kind = VCVS if self.rng.random() < 0.7 else VCCS
        gain = _gain(self.rng)
        style = "plain"
        alt_value = threshold = None
        param = self._maybe_param("g")
        if param is not None and self.rng.random() < self.config.conditional_probability:
            style = str(self.rng.choice(["ifelse", "ternary"]))
            alt_value = _gain(self.rng)
            # Pick the threshold so the *then* arm is active for the default
            # parameter value about half of the time.
            offset = round(float(self.rng.uniform(0.1, 1.0)), 3)
            threshold = gain - offset if self.rng.random() < 0.5 else gain + offset
        control_pair = (control, "gnd")
        self.components.append(
            ZooComponent(
                kind=kind,
                name=self._name("amp" if kind == VCVS else "gm"),
                positive=driven,
                negative="gnd",
                value=gain,
                access=NAMED,
                style=style,
                param=param,
                control=control_pair,
                alt_value=alt_value,
                threshold=threshold,
            )
        )
        return kind

    def dc_current(self, node: str) -> None:
        value = round(float(self.rng.uniform(-1e-3, 1e-3)), 6)
        if value == 0.0:
            value = 1e-4
        self.components.append(
            ZooComponent(
                kind=ISOURCE,
                name=self._name("is"),
                positive=node,
                negative="gnd",
                value=value,
                access=str(self.rng.choice([NAMED, PAIR, GROUND])),
                si=bool(self.rng.random() < self.config.si_probability),
            )
        )

    def shifted_shunt(self, node: str, shift_node: str) -> None:
        """A level-shifted shunt leg: node --R-- shift_node --Vdc-- gnd."""
        self.resistor(node, shift_node)
        self.components.append(
            ZooComponent(
                kind=VSOURCE,
                name=self._name("vs"),
                positive=shift_node,
                negative="gnd",
                value=round(float(self.rng.uniform(-2.0, 2.0)), 3),
                access=str(self.rng.choice([NAMED, PAIR, GROUND])),
            )
        )


def generate_netlist(
    seed: int,
    index: int = 0,
    config: "GeneratorConfig | None" = None,
) -> ZooNetlist:
    """Generate the ``index``-th random conservative netlist of campaign ``seed``."""
    config = config or GeneratorConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    builder = _Builder(rng, config)

    internal = int(rng.integers(1, config.max_internal_nodes + 1))
    spine = ["vin"] + [f"n{i}" for i in range(1, internal)] + ["out"]

    # Section ids partition the spine at gain-stage boundaries; passive
    # extras later only ever connect nodes of one section, keeping the
    # system block-triangular (see the module docstring).
    sections = [0] * len(spine)
    gain_budget = config.max_gain_stages
    vccs_driven: set[str] = set()
    for position in range(1, len(spine)):
        previous, current = spine[position - 1], spine[position]
        if gain_budget > 0 and rng.random() < config.gain_probability:
            kind = builder.gain_stage(previous, current)
            if kind == VCCS:
                vccs_driven.add(current)
            gain_budget -= 1
            boundary = sections[position - 1] + 1
        else:
            builder.series(previous, current)
            boundary = sections[position - 1]
        sections[position] = boundary

    # Every non-input spine node is shunted to ground; VCCS-driven nodes get
    # a resistive shunt so their potential is stiffly defined.
    for node in spine[1:]:
        builder.shunt(node, force_resistor=node in vccs_driven)

    inputs = ["vin"]
    if rng.random() < config.second_input_probability:
        inputs.append("in2")
        target = spine[int(rng.integers(1, len(spine)))]
        builder.resistor("in2", target)

    extra_count = int(rng.integers(0, config.max_extras + 1))
    shift_counter = 0
    for _ in range(extra_count):
        roll = rng.random()
        node = spine[int(rng.integers(1, len(spine)))]
        if roll < 0.45:
            builder.shunt(node)
        elif roll < 0.75:
            # A bridge between two spine nodes of the same section.
            position = int(rng.integers(1, len(spine)))
            peers = [
                other
                for other, section in zip(spine, sections)
                if section == sections[position] and other != spine[position]
            ]
            if peers:
                builder.resistor(spine[position], str(rng.choice(peers)))
            else:
                builder.shunt(spine[position])
        elif roll < 0.9:
            builder.dc_current(node)
        else:
            shift_counter += 1
            builder.shifted_shunt(node, f"s{shift_counter}")

    return ZooNetlist(
        name=f"zoo_s{seed}_c{index}",
        inputs=tuple(inputs),
        output="out",
        components=tuple(builder.components),
        decorate=bool(rng.random() < config.decorate_probability),
        seed=seed,
        index=index,
    )


def generate_cases(
    seed: int,
    count: int,
    config: "GeneratorConfig | None" = None,
) -> Iterator[ZooNetlist]:
    """Yield ``count`` deterministic netlists for campaign ``seed``."""
    for index in range(count):
        yield generate_netlist(seed, index, config)


# -- defect planting -----------------------------------------------------------------
#: Lint rules plant_defect() knows how to trigger (the linter-recall surface).
BREAKABLE_RULES = (
    "floating-node",
    "vsource-loop",
    "nonphysical-value",
    "dead-arm",
    "zero-value",
)


def plant_defect(netlist: ZooNetlist, rule: str) -> ZooNetlist:
    """Return a copy of ``netlist`` with exactly one defect for ``rule`` planted.

    Generated netlists are lint-clean by construction, which makes the
    linter's *recall* untestable from the zoo alone; this hook deliberately
    breaks one invariant so ``repro-lint`` can be fuzz-tested against known
    defects (``repro-fuzz --break <rule>``).  The planted netlists are for
    linting only — they are not meant to simulate.
    """
    if rule not in BREAKABLE_RULES:
        raise ValueError(
            f"unknown breakable rule {rule!r} (choose from {', '.join(BREAKABLE_RULES)})"
        )
    anchor = netlist.output
    if rule == "floating-node":
        # A branch to a node nothing else touches: degree-one, not a port.
        extra = ZooComponent(
            RESISTOR, "r_broken", anchor, "dangle", 3300.0, access=PAIR, style="flow"
        )
    elif rule == "vsource-loop":
        # Parallels the implicit input-drive source on the first input port.
        extra = ZooComponent(
            VSOURCE, "v_broken", netlist.inputs[0], "gnd", 1.0, access=GROUND
        )
    elif rule == "nonphysical-value":
        extra = ZooComponent(
            RESISTOR, "r_broken", anchor, "gnd", -3300.0, access=GROUND
        )
    elif rule == "dead-arm":
        extra = ZooComponent(
            RESISTOR, "r_broken", anchor, "gnd", 3300.0, access=GROUND, style="deadif"
        )
    else:  # zero-value
        # A zero scale factor collapses the component law to a short.
        extra = ZooComponent(RESISTOR, "r_broken", anchor, "gnd", 0.0, access=GROUND)
    return replace(
        netlist,
        name=f"{netlist.name}_broken_{rule.replace('-', '_')}",
        components=(*netlist.components, extra),
    )


# -- rendering -----------------------------------------------------------------------
def _render_value(value: float, si: bool) -> str:
    """Render a literal, optionally with an engineering SI suffix."""
    if value == 0.0:
        return "0.0"
    if si:
        magnitude = abs(value)
        for suffix, factor in _SI_SUFFIXES:
            mantissa = value / factor
            if suffix and 1.0 <= abs(mantissa) < 1000.0:
                text = f"{mantissa:.6g}"
                # The lexer requires the suffix to trail the mantissa
                # directly; exponent forms cannot take one.
                if "e" not in text and "E" not in text:
                    return f"{text}{suffix}"
        _ = magnitude
    return f"{value:g}"


def _potential(component: ZooComponent) -> str:
    if component.access == NAMED:
        return f"V({component.name})"
    if component.access == PAIR:
        return f"V({component.positive}, {component.negative})"
    return f"V({component.positive})"


def _flow(component: ZooComponent) -> str:
    if component.access == NAMED:
        return f"I({component.name})"
    if component.access == PAIR:
        return f"I({component.positive}, {component.negative})"
    return f"I({component.positive})"


def _control_ref(component: ZooComponent) -> str:
    control_positive, control_negative = component.control or ("gnd", "gnd")
    if control_negative == "gnd":
        return f"V({control_positive})"
    return f"V({control_positive}, {control_negative})"


def _contribution(component: ZooComponent) -> list[str]:
    """Render the analog statement(s) of one component."""
    value = component.param or _render_value(component.value, component.si)
    potential = _potential(component)
    flow = _flow(component)
    kind, style = component.kind, component.style
    if kind == RESISTOR:
        if style == "flow":
            return [f"{flow} <+ {potential} / {value};"]
        if style == "deadif":
            # Only plant_defect() emits this: a literal-constant condition
            # whose first arm can never execute (the 'dead-arm' lint rule).
            return [
                "if (1 < 0)",
                f"  {potential} <+ 2 * {value} * {flow};",
                "else",
                f"  {potential} <+ {value} * {flow};",
            ]
        return [f"{potential} <+ {value} * {flow};"]
    if kind == CAPACITOR:
        if style == "idt":
            return [f"{potential} <+ idt({flow}) / {value};"]
        return [f"{flow} <+ {value} * ddt({potential});"]
    if kind == INDUCTOR:
        if style == "idt":
            return [f"{flow} <+ idt({potential}) / {value};"]
        return [f"{potential} <+ {value} * ddt({flow});"]
    if kind == VSOURCE:
        return [f"{potential} <+ {value};"]
    if kind == ISOURCE:
        return [f"{flow} <+ {value};"]
    if kind in (VCVS, VCCS):
        target = potential if kind == VCVS else flow
        control = _control_ref(component)
        if style in ("ifelse", "ternary") and component.param is not None:
            alt = _render_value(component.alt_value or 1.0, False)
            threshold = _render_value(component.threshold or 0.0, False)
            if style == "ternary":
                return [
                    f"{target} <+ (({component.param} >= {threshold}) ? "
                    f"{component.param} : {alt}) * {control};"
                ]
            return [
                f"if ({component.param} >= {threshold})",
                f"  {target} <+ {component.param} * {control};",
                "else",
                f"  {target} <+ {alt} * {control};",
            ]
        return [f"{target} <+ {value} * {control};"]
    raise ValueError(f"unknown zoo component kind {kind!r}")


def render(netlist: ZooNetlist) -> str:
    """Render the netlist as Verilog-AMS source accepted by :mod:`repro.vams`."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=netlist.seed or 0, spawn_key=(netlist.index, 0xC0))
    )
    decorate = netlist.decorate

    def filler() -> str:
        return str(rng.choice(_FILLER_COMMENTS))

    lines: list[str] = ['`include "disciplines.vams"', ""]
    if decorate:
        lines.append(f"/* {filler()}\n   (seed {netlist.seed}, case {netlist.index}) */")
    ports = ", ".join([*netlist.inputs, netlist.output])
    lines.append(f"module {netlist.name}({ports});")
    for name in netlist.inputs:
        lines.append(f"  input {name};")
    lines.append(f"  output {netlist.output};")
    lines.append(f"  electrical {', '.join([*netlist.nodes(), 'gnd'])};")
    lines.append("  ground gnd;")
    for name, default in netlist.parameters().items():
        lines.append(f"  parameter real {name} = {_render_value(default, False)};")
    for component in netlist.components:
        if component.access == NAMED:
            declaration = (
                f"  branch ({component.positive}, {component.negative}) {component.name};"
            )
            if decorate and rng.random() < 0.2:
                declaration += f"  // {filler()}"
            lines.append(declaration)
    lines.append("  analog begin")
    for component in netlist.components:
        if decorate and rng.random() < 0.15:
            lines.append(f"    // {filler()}")
        for statement in _contribution(component):
            lines.append(f"    {statement}")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# -- shrinking mutations --------------------------------------------------------------
def drop_component(netlist: ZooNetlist, position: int) -> ZooNetlist:
    """The netlist with the ``position``-th component removed."""
    components = list(netlist.components)
    del components[position]
    return replace(netlist, components=tuple(components))


def plainify_component(netlist: ZooNetlist, position: int) -> "ZooNetlist | None":
    """Rewrite one component in its simplest spelling (``None`` = already plain).

    Simplification collapses rendering indirection while preserving the
    component's elaborated value: conditional gain arms fold to the active
    arm, ``idt`` forms become ``ddt`` forms, conductance divisions become
    potential products, parameters inline into literals, SI suffixes and
    named-branch declarations drop to plain anonymous accesses.
    """
    component = netlist.components[position]
    plain_style = {
        RESISTOR: "potential",
        CAPACITOR: "ddt",
        INDUCTOR: "ddt",
        VSOURCE: "dc",
        ISOURCE: "dc",
        VCVS: "plain",
        VCCS: "plain",
    }[component.kind]
    value = component.value
    if component.style in ("ifelse", "ternary") and component.threshold is not None:
        value = (
            component.value
            if component.value >= component.threshold
            else (component.alt_value or 1.0)
        )
    access = component.access
    if access == NAMED:
        access = GROUND if component.negative == "gnd" else PAIR
    simplified = replace(
        component,
        style=plain_style,
        value=value,
        param=None,
        alt_value=None,
        threshold=None,
        si=False,
        access=access,
    )
    if simplified == component and not netlist.decorate:
        return None
    components = list(netlist.components)
    components[position] = simplified
    return replace(netlist, components=tuple(components), decorate=False)


def round_component(netlist: ZooNetlist, position: int) -> "ZooNetlist | None":
    """Round the component's value to one significant digit (``None`` = no-op)."""
    component = netlist.components[position]
    value = component.value
    if value == 0.0:
        return None
    from math import floor, log10

    rounded = round(value, -floor(log10(abs(value))))
    if rounded == 0.0 or rounded == value:
        return None
    components = list(netlist.components)
    components[position] = replace(component, value=rounded)
    return replace(netlist, components=tuple(components))
