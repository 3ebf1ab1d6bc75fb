"""Expression DSL and system-definition file parsing, plus formatting.

Grammar (precedence low to high): + -, * /, unary -, ^ (right-assoc),
atoms NUMBER | IDENT | IDENT(expr) | (expr). Numbers are exact integers;
rationals come out of the division operator. Reserved identifiers are t,
q1..qn, p1..pn and the jet tokens dq./dp. (ddq./ddp. for second order);
everything else must be a declared parameter or function name.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp

from .expressions import FUNCTIONS, parameter, symbol_info
from .systems import (
    HamiltonianSystem,
    HamsymError,
    PointSymmetry,
    Relation,
    SystemDefinition,
)

__all__ = [
    "ParseError",
    "SchemaError",
    "ParseContext",
    "parse_expression",
    "format_expression",
    "parse_system_file",
]


class ParseError(HamsymError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SchemaError(HamsymError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ParseContext:
    n: int
    parameters: frozenset[str] = frozenset()
    allow_jet: bool = True

    def __post_init__(self):
        for name in self.parameters:
            try:
                parameter(name)  # raises on reserved collisions
            except ValueError as exc:
                raise SchemaError(str(exc), "parameters") from None


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx: ParseContext):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        return self.next()

    def parse(self) -> sp.Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> sp.Expr:
        out = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if text == "+" else out - rhs
            else:
                return out

    def term(self) -> sp.Expr:
        out = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                if text == "*":
                    out = out * rhs
                else:
                    if rhs == 0:
                        raise ParseError("division by literal zero", pos)
                    out = out / rhs
            else:
                return out

    def unary(self) -> sp.Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> sp.Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.next()
            exponent = self.unary()
            exponent = sp.nsimplify(exponent) if not exponent.is_Rational else exponent
            if not exponent.is_Rational:
                raise ParseError("exponent must be a rational constant", pos)
            if base == 0 and exponent < 0:
                raise ParseError("zero raised to a negative power", pos)
            return base**exponent
        return base

    def atom(self) -> sp.Expr:
        kind, text, pos = self.next()
        if kind == "number":
            return sp.Integer(int(text))
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.next()
                arg = self.expr()
                self.expect(")")
                return FUNCTIONS[text](arg)
            return self.identifier(text, pos)
        raise ParseError(f"expected an expression, found {text or 'end of input'!r}", pos)

    def identifier(self, name: str, pos: int) -> sp.Expr:
        # a reserved name is the jet symbol of the same name
        symbol = sp.Symbol(name, real=True)
        info = symbol_info(symbol)
        if info is None:
            if name in self.ctx.parameters:
                return parameter(name)
            raise ParseError(f"unknown identifier {name!r}", pos)
        kind, index, order = info
        if order > 0 and not self.ctx.allow_jet:
            raise ParseError(f"jet symbol {name!r} not allowed here", pos)
        if kind != "t" and not 1 <= index <= self.ctx.n:
            raise ParseError(f"index {index} out of range 1..{self.ctx.n}", pos)
        return symbol


def parse_expression(text: str, ctx: ParseContext) -> sp.Expr:
    """Parse text; an input that sympy rewrites into a node the formatter
    cannot print (sqrt(q1^2) into Abs, arctan(1) into pi) is refused."""
    if not isinstance(text, str):
        raise ParseError("input is not text", 0)
    e = _Parser(_tokenize(text), ctx).parse()
    try:
        format_expression(e)
    except ValueError as exc:
        raise ParseError(f"input has no written form: {exc}", 0) from None
    return e


# --- formatting ----------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_ATOM = 4

# sqrt is a function, not a class: it builds a power and prints as one
_FUNC_NAMES = {cls: name for name, cls in FUNCTIONS.items() if isinstance(cls, type)}


def format_expression(e: sp.Expr) -> str:
    """Render in DSL syntax so that parse(format(e)) == e structurally.

    Fixed choices: negative/rational powers keep exponent form (q1^-3,
    q1^(3/2)); half powers render as sqrt.
    """
    return _fmt(sp.sympify(e), _PREC_ADD)


def _paren(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def _fmt(e: sp.Expr, parent: int) -> str:
    if e is sp.E:
        return "exp(1)"
    if e.is_Integer:
        s = str(e)
        return _paren(s, e < 0 and parent > _PREC_UNARY)
    if e.is_Rational:
        s = f"{e.p}/{e.q}"
        return _paren(s, parent > _PREC_MUL)
    if e.is_Symbol:
        return e.name
    if e.is_Add:
        terms = e.as_ordered_terms()
        parts = [_fmt(terms[0], _PREC_ADD + 0)]
        for term in terms[1:]:
            coeff = term.as_ordered_factors()[0]
            if coeff.is_Number and coeff < 0:
                parts.append(" - " + _fmt(-term, _PREC_MUL))
            else:
                parts.append(" + " + _fmt(term, _PREC_MUL))
        return _paren("".join(parts), parent > _PREC_ADD)
    if e.is_Mul:
        coeff, rest = e.as_coeff_Mul()
        if coeff.is_Number and coeff < 0:
            return _paren("-" + _fmt(-e, _PREC_UNARY), parent > _PREC_UNARY)
        factors = e.as_ordered_factors()
        parts = [_fmt(f, _PREC_UNARY) for f in factors]
        return _paren("*".join(parts), parent > _PREC_MUL)
    if e.is_Pow:
        if e.exp == sp.Rational(1, 2):
            return f"sqrt({_fmt(e.base, _PREC_ADD)})"
        base = _fmt(e.base, _PREC_ATOM)
        if e.exp.is_Integer:
            out = f"{base}^{e.exp}"
        else:
            out = f"{base}^({_fmt(e.exp, _PREC_ADD)})"
        # the grammar only allows atoms left of ^, so a Pow serving as a
        # base must be wrapped
        return _paren(out, parent >= _PREC_ATOM)
    for cls, name in _FUNC_NAMES.items():
        if isinstance(e, cls):
            return f"{name}({_fmt(e.args[0], _PREC_ADD)})"
    raise ValueError(f"cannot format node {e} of type {type(e).__name__}")


# --- system definition files ---------------------------------------------

_SECTION_RE = re.compile(r"^\[\[(?P<rep>[a-z]+)\]\]$|^\[(?P<single>[a-z]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)\s*=\s*(.+)$")
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:\s*/\s*(\d+))?$")
# a '#' comment that starts outside a quoted string
_COMMENT_RE = re.compile(r'^((?:[^"#]|"[^"]*")*)#.*')


def _parse_value(raw: str, path: str):
    raw = raw.strip()
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise SchemaError("unterminated string", path)
        return raw[1:-1]
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise SchemaError("unterminated list", path)
        body = raw[1:-1].strip()
        if not body:
            return []
        items = [item.strip() for item in _split_top_level(body)]
        out = []
        for item in items:
            if not (item.startswith('"') and item.endswith('"')):
                raise SchemaError("list items must be quoted strings", path)
            out.append(item[1:-1])
        return out
    if raw.startswith("{"):
        if not raw.endswith("}"):
            raise SchemaError("unterminated table", path)
        body = raw[1:-1].strip()
        table: dict[str, Fraction] = {}
        if not body:
            return table
        for entry in _split_top_level(body):
            m = _KEY_RE.match(entry.strip())
            if not m:
                raise SchemaError(f"bad table entry {entry.strip()!r}", path)
            table[m.group(1)] = _parse_rational(m.group(2).strip(), f"{path}.{m.group(1)}")
        return table
    return _parse_rational(raw, path)


def _parse_rational(raw: str, path: str) -> Fraction:
    m = _RATIONAL_RE.match(raw)
    if not m:
        raise SchemaError(f"expected integer or rational, found {raw!r}", path)
    denominator = int(m.group(2) or 1)
    if denominator == 0:
        raise SchemaError(f"zero denominator in {raw!r}", path)
    return Fraction(int(m.group(1)), denominator)


def _split_top_level(body: str) -> list[str]:
    parts, depth, start, in_str = [], 0, 0, False
    for i, ch in enumerate(body):
        if ch == '"':
            in_str = not in_str
        elif not in_str:
            if ch in "[{(":
                depth += 1
            elif ch in ")}]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(body[start:i])
                start = i + 1
    parts.append(body[start:])
    return parts


@dataclass
class _Section:
    name: str
    repeated: bool
    entries: dict = field(default_factory=dict)
    line: int = 0


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.sub(r"\1", raw).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group("rep") or m.group("single")
            current = _Section(name, repeated=m.group("rep") is not None, line=lineno)
            sections.append(current)
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise SchemaError(f"cannot parse line {lineno}: {line!r}", "file")
        if current is None:
            raise SchemaError(f"key outside any section at line {lineno}", "file")
        key = m.group(1)
        if key in current.entries:
            raise SchemaError(f"duplicate key {key!r}", current.name)
        current.entries[key] = _parse_value(m.group(2).strip(), f"{current.name}.{key}")
    return sections


def _require(entries: dict, key: str, path: str):
    if key not in entries:
        raise SchemaError(f"missing required key {key!r}", path)
    return entries[key]


def _expr(text_value, ctx: ParseContext, path: str) -> sp.Expr:
    if not isinstance(text_value, str):
        raise SchemaError("expected a quoted expression", path)
    try:
        return parse_expression(text_value, ctx)
    except ParseError as exc:
        raise SchemaError(f"bad expression {text_value!r}: {exc}", path) from exc


def parse_system_file(text: str) -> SystemDefinition:
    """Parse a system definition: one [system] section, then [[symmetry]]
    and optional [[relation]] blocks."""
    sections = _split_sections(text)
    if not sections or sections[0].name != "system" or sections[0].repeated:
        raise SchemaError("file must start with a [system] section", "file")
    sys_entries = sections[0].entries

    n_value = _require(sys_entries, "n", "system")
    if not isinstance(n_value, Fraction) or n_value.denominator != 1 or n_value < 1:
        raise SchemaError("n must be a positive integer", "system.n")
    n = int(n_value)

    params = sys_entries.get("parameters", {})
    if not isinstance(params, dict):
        raise SchemaError("parameters must be an inline table", "system.parameters")
    ctx = ParseContext(n=n, parameters=frozenset(params), allow_jet=False)

    hamiltonian = _expr(_require(sys_entries, "hamiltonian", "system"), ctx, "system.hamiltonian")

    singular_raw = sys_entries.get("singularities", [])
    if not isinstance(singular_raw, list):
        raise SchemaError("singularities must be a list of expressions", "system.singularities")
    singularities = tuple(
        _expr(s, ctx, f"system.singularities[{k}]") for k, s in enumerate(singular_raw)
    )

    known = {"n", "hamiltonian", "parameters", "singularities"}
    for key in sys_entries:
        if key not in known:
            raise SchemaError(f"unknown key {key!r}", f"system.{key}")

    system = HamiltonianSystem(
        n=n,
        hamiltonian=hamiltonian,
        parameters={name: sp.Rational(v.numerator, v.denominator) for name, v in params.items()},
        singularities=singularities,
    )

    symmetries: list[PointSymmetry] = []
    relations: list[Relation] = []
    for k, section in enumerate(sections[1:]):
        path = f"{section.name}[{len(symmetries) if section.name == 'symmetry' else len(relations)}]"
        if section.name == "symmetry" and section.repeated:
            entries = section.entries
            name = _require(entries, "name", path)
            if not isinstance(name, str):
                raise SchemaError("name must be a string", f"{path}.name")
            xi = _expr(_require(entries, "xi", path), ctx, f"{path}.xi")
            eta_raw = _require(entries, "eta", path)
            zeta_raw = _require(entries, "zeta", path)
            for label, raw in (("eta", eta_raw), ("zeta", zeta_raw)):
                if not isinstance(raw, list) or len(raw) != n:
                    raise SchemaError(f"{label} must list exactly {n} expressions", f"{path}.{label}")
            eta = tuple(_expr(s, ctx, f"{path}.eta[{j}]") for j, s in enumerate(eta_raw))
            zeta = tuple(_expr(s, ctx, f"{path}.zeta[{j}]") for j, s in enumerate(zeta_raw))
            v = None
            if "v" in entries:
                v = _expr(entries["v"], ctx, f"{path}.v")
            if any(name == s.name for s in symmetries):
                raise SchemaError(f"duplicate symmetry name {name!r}", f"{path}.name")
            symmetries.append(PointSymmetry(name=name, xi=xi, eta=eta, zeta=zeta, v=v))
        elif section.name == "relation" and section.repeated:
            entries = section.entries
            name = _require(entries, "name", path)
            raw_expr = _require(entries, "expr", path)
            equals = entries.get("equals", Fraction(0))
            if not isinstance(equals, Fraction):
                raise SchemaError("equals must be a rational constant", f"{path}.equals")
            rel_ctx = ParseContext(
                n=0,
                parameters=frozenset(s.name for s in symmetries) | frozenset(params),
                allow_jet=False,
            )
            expr = _expr(raw_expr, rel_ctx, f"{path}.expr")
            relations.append(
                Relation(name=name, expression=expr, equals=sp.Rational(equals.numerator, equals.denominator))
            )
        else:
            raise SchemaError(f"unexpected section [{section.name}]", f"section #{k + 1}")
    return SystemDefinition(system=system, symmetries=tuple(symmetries), relations=tuple(relations))
