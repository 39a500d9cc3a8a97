"""Recursive-descent parser for the Verilog-AMS analog subset.

The parser covers the constructs the paper relies on (Figure 2 and Section
III): module headers with ports, discipline and ground declarations,
``parameter real`` declarations, named branches, local ``real`` variables and
an analog block made of contribution statements (``<+``), procedural
assignments and ``if``/``else`` conditionals.  Expressions are parsed directly
into :mod:`repro.expr` trees, with access functions (``V``/``I``) becoming
variables named canonically (``V(a,b)``, ``I(br)``) and the analog operators
``ddt``/``idt`` becoming :class:`~repro.expr.ast.Derivative` /
:class:`~repro.expr.ast.Integral` nodes.
"""

from __future__ import annotations

from ..errors import VamsParseError
from ..expr.ast import (
    KNOWN_FUNCTIONS,
    Access,
    BinaryOp,
    Call,
    Conditional,
    Constant,
    Derivative,
    Expr,
    Integral,
    UnaryOp,
    Variable,
)
from .ast import (
    INOUT,
    AccessRef,
    Assignment,
    Block,
    BranchDeclaration,
    Contribution,
    IfStatement,
    Parameter,
    Port,
    VamsModule,
)
from .lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PUNCT,
    SYSTEM_IDENT,
    Token,
    parse_number,
    tokenize,
)

#: System functions accepted inside analog expressions; they become plain
#: variables that the simulation environment binds (e.g. the current time).
SYSTEM_FUNCTIONS = ("$abstime", "$temperature", "$vt", "$realtime")

_ACCESS_FUNCTIONS = ("V", "I")


class Parser:
    """Token-stream parser producing :class:`~repro.vams.ast.VamsModule` trees."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._position = 0

    # -- token helpers -------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != EOF:
            self._position += 1
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            expected = value if value is not None else kind
            raise VamsParseError(
                f"expected {expected!r} but found {token.value!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _error(self, message: str) -> VamsParseError:
        token = self._peek()
        return VamsParseError(message, token.line, token.column)

    # -- top level -----------------------------------------------------------------
    def parse(self) -> list[VamsModule]:
        """Parse every module in the source."""
        modules: list[VamsModule] = []
        while not self._check(EOF):
            modules.append(self.parse_module())
        if not modules:
            raise VamsParseError("no module found in the source")
        return modules

    def parse_module(self) -> VamsModule:
        """Parse a single ``module ... endmodule`` definition."""
        self._expect(KEYWORD, "module")
        name = self._expect(IDENT).value
        module = VamsModule(name)
        if self._accept(PUNCT, "("):
            if not self._check(PUNCT, ")"):
                while True:
                    port_token = self._expect(IDENT)
                    module.ports.append(
                        Port(
                            port_token.value,
                            INOUT,
                            line=port_token.line,
                            column=port_token.column,
                        )
                    )
                    if not self._accept(PUNCT, ","):
                        break
            self._expect(PUNCT, ")")
        self._expect(PUNCT, ";")
        while not self._check(KEYWORD, "endmodule"):
            if self._check(EOF):
                raise self._error(f"missing 'endmodule' for module {name!r}")
            self._parse_module_item(module)
        self._expect(KEYWORD, "endmodule")
        return module

    # -- module items ----------------------------------------------------------------
    def _parse_module_item(self, module: VamsModule) -> None:
        token = self._peek()
        if token.kind == KEYWORD and token.value in ("input", "output", "inout"):
            self._parse_direction_declaration(module)
        elif token.kind == KEYWORD and token.value in ("electrical", "voltage", "current", "wire"):
            self._parse_discipline_declaration(module)
        elif token.kind == KEYWORD and token.value == "ground":
            self._parse_ground_declaration(module)
        elif token.kind == KEYWORD and token.value == "parameter":
            self._parse_parameter_declaration(module)
        elif token.kind == KEYWORD and token.value in ("real", "integer"):
            self._parse_variable_declaration(module)
        elif token.kind == KEYWORD and token.value == "branch":
            self._parse_branch_declaration(module)
        elif token.kind == KEYWORD and token.value == "analog":
            self._parse_analog_block(module)
        else:
            raise self._error(f"unexpected token {token.value!r} in module body")

    def _parse_direction_declaration(self, module: VamsModule) -> None:
        direction = self._advance().value
        discipline: str | None = None
        if self._check(KEYWORD) and self._peek().value in ("electrical", "voltage", "current", "wire"):
            discipline = self._advance().value
        tokens = self._parse_identifier_tokens()
        self._expect(PUNCT, ";")
        for token in tokens:
            name = token.value
            self._record_position(module, token)
            port = module.port(name)
            if port is None:
                port = Port(name, line=token.line, column=token.column)
                module.ports.append(port)
            port.direction = direction
            if discipline is not None:
                port.discipline = discipline
                module.disciplines[name] = discipline

    def _parse_discipline_declaration(self, module: VamsModule) -> None:
        discipline = self._advance().value
        tokens = self._parse_identifier_tokens()
        self._expect(PUNCT, ";")
        for token in tokens:
            name = token.value
            self._record_position(module, token)
            module.disciplines[name] = discipline
            port = module.port(name)
            if port is not None:
                port.discipline = discipline

    def _parse_ground_declaration(self, module: VamsModule) -> None:
        self._advance()
        tokens = self._parse_identifier_tokens()
        self._expect(PUNCT, ";")
        for token in tokens:
            self._record_position(module, token)
            module.grounds.add(token.value)

    def _parse_parameter_declaration(self, module: VamsModule) -> None:
        self._advance()
        kind = "real"
        if self._check(KEYWORD) and self._peek().value in ("real", "integer"):
            kind = self._advance().value
        name_token = self._expect(IDENT)
        self._expect(OPERATOR, "=")
        value_expr = self.parse_expression()
        self._expect(PUNCT, ";")
        value = _fold_constant(value_expr, module)
        module.parameters.append(
            Parameter(
                name_token.value,
                value,
                kind,
                line=name_token.line,
                column=name_token.column,
                uses=tuple(sorted(value_expr.variables())),
            )
        )

    def _parse_variable_declaration(self, module: VamsModule) -> None:
        self._advance()
        tokens = self._parse_identifier_tokens()
        self._expect(PUNCT, ";")
        for token in tokens:
            self._record_position(module, token)
            module.real_variables.append(token.value)

    def _parse_branch_declaration(self, module: VamsModule) -> None:
        self._advance()
        self._expect(PUNCT, "(")
        positive = self._expect(IDENT).value
        self._expect(PUNCT, ",")
        negative = self._expect(IDENT).value
        self._expect(PUNCT, ")")
        tokens = self._parse_identifier_tokens()
        self._expect(PUNCT, ";")
        for token in tokens:
            module.branches.append(
                BranchDeclaration(
                    token.value,
                    positive,
                    negative,
                    line=token.line,
                    column=token.column,
                )
            )

    def _parse_identifier_tokens(self) -> list[Token]:
        tokens = [self._expect(IDENT)]
        while self._accept(PUNCT, ","):
            tokens.append(self._expect(IDENT))
        return tokens

    @staticmethod
    def _record_position(module: VamsModule, token: Token) -> None:
        """Remember where a name was first declared (for lint diagnostics)."""
        module.declaration_positions.setdefault(
            token.value, (token.line, token.column)
        )

    # -- analog block ------------------------------------------------------------------
    def _parse_analog_block(self, module: VamsModule) -> None:
        self._expect(KEYWORD, "analog")
        statement = self._parse_statement()
        if isinstance(statement, Block):
            module.analog.extend(statement.statements)
        else:
            module.analog.append(statement)

    def _parse_statement(self):
        if self._accept(KEYWORD, "begin"):
            block = Block()
            while not self._check(KEYWORD, "end"):
                if self._check(EOF):
                    raise self._error("missing 'end' in analog block")
                block.statements.append(self._parse_statement())
            self._expect(KEYWORD, "end")
            return block
        if_token = self._accept(KEYWORD, "if")
        if if_token is not None:
            self._expect(PUNCT, "(")
            condition = self.parse_expression()
            self._expect(PUNCT, ")")
            then_statement = self._parse_statement()
            else_statements: list = []
            if self._accept(KEYWORD, "else"):
                else_statement = self._parse_statement()
                else_statements = _as_statement_list(else_statement)
            return IfStatement(
                condition,
                _as_statement_list(then_statement),
                else_statements,
                line=if_token.line,
                column=if_token.column,
            )
        return self._parse_simple_statement()

    def _parse_simple_statement(self):
        token = self._peek()
        if token.kind == IDENT and token.value in _ACCESS_FUNCTIONS and self._peek(1).value == "(":
            access = self._parse_access_reference()
            if self._accept(OPERATOR, "<+"):
                expression = self.parse_expression()
                self._expect(PUNCT, ";")
                return Contribution(
                    access, expression, line=access.line, column=access.column
                )
            raise self._error("expected the contribution operator '<+'")
        if token.kind == IDENT and self._peek(1).value == "(":
            # An identifier called like an access function but spelled wrong
            # (``Q(a,b) <+ ...``): name the real problem instead of a generic
            # unexpected-token complaint.
            raise VamsParseError(
                f"unknown access function {token.value!r} in contribution "
                f"target; expected one of {', '.join(_ACCESS_FUNCTIONS)}",
                token.line,
                token.column,
            )
        if token.kind == IDENT and self._peek(1).value == "=":
            name_token = self._advance()
            self._expect(OPERATOR, "=")
            expression = self.parse_expression()
            self._expect(PUNCT, ";")
            return Assignment(
                name_token.value,
                expression,
                line=name_token.line,
                column=name_token.column,
            )
        raise self._error(f"unexpected token {token.value!r} in analog statement")

    def _parse_access_reference(self) -> AccessRef:
        kind_token = self._expect(IDENT)
        kind = kind_token.value
        self._expect(PUNCT, "(")
        first = self._expect(IDENT).value
        second: str | None = None
        if self._accept(PUNCT, ","):
            second = self._expect(IDENT).value
        self._expect(PUNCT, ")")
        if second is None:
            # A single argument can be either a net (implicit reference to
            # ground) or a declared branch; the distinction is resolved by the
            # netlist extraction, which knows the declarations.  The raw name
            # is kept in ``positive`` and, redundantly, in ``branch``.
            return AccessRef(
                kind,
                positive=first,
                branch=first,
                line=kind_token.line,
                column=kind_token.column,
            )
        return AccessRef(
            kind,
            positive=first,
            negative=second,
            line=kind_token.line,
            column=kind_token.column,
        )

    # -- expressions -----------------------------------------------------------------
    def parse_expression(self) -> Expr:
        """Parse a full (conditional) expression."""
        condition = self._parse_logical_or()
        if self._accept(OPERATOR, "?"):
            then_value = self.parse_expression()
            self._expect(OPERATOR, ":")
            else_value = self.parse_expression()
            return Conditional(condition, then_value, else_value)
        return condition

    def _parse_logical_or(self) -> Expr:
        left = self._parse_logical_and()
        while self._check(OPERATOR, "||"):
            self._advance()
            left = BinaryOp("||", left, self._parse_logical_and())
        return left

    def _parse_logical_and(self) -> Expr:
        left = self._parse_equality()
        while self._check(OPERATOR, "&&"):
            self._advance()
            left = BinaryOp("&&", left, self._parse_equality())
        return left

    def _parse_equality(self) -> Expr:
        left = self._parse_relational()
        while self._check(OPERATOR, "==") or self._check(OPERATOR, "!="):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expr:
        left = self._parse_additive()
        while self._peek().kind == OPERATOR and self._peek().value in ("<", "<=", ">", ">="):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._peek().kind == OPERATOR and self._peek().value in ("+", "-"):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._peek().kind == OPERATOR and self._peek().value in ("*", "/"):
            operator = self._advance().value
            left = BinaryOp(operator, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self._peek().kind == OPERATOR and self._peek().value in ("-", "+", "!"):
            operator = self._advance().value
            return UnaryOp(operator, self._parse_unary())
        return self._parse_power()

    def _parse_power(self) -> Expr:
        base = self._parse_primary()
        if self._check(OPERATOR, "**"):
            self._advance()
            exponent = self._parse_unary()
            return BinaryOp("**", base, exponent)
        return base

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            return Constant(parse_number(token.value))
        if token.kind == SYSTEM_IDENT:
            self._advance()
            if token.value not in SYSTEM_FUNCTIONS:
                raise VamsParseError(
                    f"unsupported system function {token.value!r}", token.line, token.column
                )
            return Variable(token.value)
        if token.kind == PUNCT and token.value == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect(PUNCT, ")")
            return inner
        if token.kind == IDENT:
            return self._parse_identifier_expression()
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parse_identifier_expression(self) -> Expr:
        name_token = self._advance()
        name = name_token.value
        if not self._check(PUNCT, "("):
            return Variable(name)
        if name in _ACCESS_FUNCTIONS:
            self._position -= 1
            access = self._parse_access_reference()
            return Access(access.canonical_name(), access.kind)
        self._expect(PUNCT, "(")
        arguments: list[Expr] = []
        if not self._check(PUNCT, ")"):
            arguments.append(self.parse_expression())
            while self._accept(PUNCT, ","):
                arguments.append(self.parse_expression())
        self._expect(PUNCT, ")")
        if name == "ddt":
            if len(arguments) != 1:
                raise VamsParseError(
                    "ddt() takes exactly one argument", name_token.line, name_token.column
                )
            return Derivative(arguments[0])
        if name == "idt":
            if len(arguments) not in (1, 2):
                raise VamsParseError(
                    "idt() takes one or two arguments", name_token.line, name_token.column
                )
            initial = arguments[1] if len(arguments) == 2 else None
            return Integral(arguments[0], initial)
        if name in KNOWN_FUNCTIONS:
            return Call(name, arguments)
        raise VamsParseError(
            f"unknown function {name!r}", name_token.line, name_token.column
        )


def _as_statement_list(statement) -> list:
    if isinstance(statement, Block):
        return list(statement.statements)
    return [statement]


def _fold_constant(expression: Expr, module: VamsModule) -> float:
    """Evaluate a parameter default, allowing references to earlier parameters."""
    from ..expr.evaluate import evaluate

    bindings = module.parameter_values()
    return evaluate(expression, bindings)


def parse_source(source: str) -> list[VamsModule]:
    """Parse Verilog-AMS source text and return every module it defines."""
    return Parser(source).parse()


def parse_module(source: str) -> VamsModule:
    """Parse source text expected to contain exactly one module."""
    modules = parse_source(source)
    if len(modules) != 1:
        raise VamsParseError(
            f"expected exactly one module, found {len(modules)}"
        )
    return modules[0]
