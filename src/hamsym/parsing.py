"""Expression DSL and system-definition file parsing, plus formatting.

Grammar: unary minus and the operators of _BINARY over atoms NUMBER | IDENT
| IDENT(expr) | (expr), nested at most _MAX_DEPTH deep. Numbers are exact
integers; rationals come out of the division operator. Reserved identifiers
are t, q1..qn, p1..pn and the jet tokens dq./dp. (ddq./ddp. for second
order); everything else must be a declared parameter or function name.
"""
from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp
from sympy.polys.rings import PolyElement

from .expressions import FUNCTIONS, parameter, symbol_info, to_expr
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


# The grammar, read by _Parser and _fmt alike: unary minus binds at _PREC_UNARY,
# and ^ is right-associative with an atom on its left, a unary-level right side.
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4
_BINARY = {"+": (_PREC_ADD, operator.add), "-": (_PREC_ADD, operator.sub), "*": (_PREC_MUL, operator.mul),
           "/": (_PREC_MUL, operator.truediv), "^": (_PREC_ATOM, operator.pow)}
# at 140 nested sin calls sympy's diff already passes Python's recursion limit
_MAX_DEPTH = 100
# Python converts no integer of more digits to or from text, so _fmt could not
# print it: 4,300 by default, or a lower limit set for the interpreter by
# PYTHONINTMAXSTRDIGITS or -X int_max_str_digits (0 means none: 4,300 stays)
_MAX_DIGITS = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
_DIGITS_BOUND = 10**_MAX_DIGITS


def _too_long(e: sp.Expr) -> bool:
    """Whether e is a rational constant with more than _MAX_DIGITS digits."""
    return e.is_Rational and max(abs(e.p), e.q) >= _DIGITS_BOUND


class _Parser:
    def __init__(self, tokens, ctx: ParseContext):
        self.tokens, self.ctx, self.i = tokens, ctx, 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        self.i += 1
        return self.tokens[self.i - 1]

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

    def expr(self, floor: int = _PREC_ADD, depth: int = 0) -> sp.Expr:
        """An operand of the _BINARY operators that bind at `floor` or tighter.
        A parenthesis, call, unary minus or ^ right side is one level deeper."""
        kind, text, pos = self.peek()
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested more than {_MAX_DEPTH} levels deep", pos)
        if kind == "op" and text == "-":
            self.next()
            out = -self.expr(_PREC_UNARY, depth + 1)
        else:
            out = self.atom(depth)
        while True:
            kind, text, pos = self.peek()
            prec, apply = _BINARY.get(text, (0, None))
            if prec < floor:
                return out
            self.next()
            if text == "^":
                rhs = self.expr(_PREC_UNARY, depth + 1)
                if not rhs.is_Rational:
                    raise ParseError("exponent must be a rational constant", pos)
                if out == 0 and rhs < 0:
                    raise ParseError("zero raised to a negative power", pos)
                # sympy multiplies out each rational factor of the base and each
                # power of one: estimate the digits of the result before it does
                parts = (f.as_base_exp() for f in sp.Mul.make_args(out))
                digits = sum(abs(e) * math.log10(max(abs(b.p), b.q)) for b, e in parts if b.is_Rational and e.is_Rational)
                if digits and abs(rhs) * digits > _MAX_DIGITS:
                    raise ParseError(f"constant power of more than {_MAX_DIGITS} digits", pos)
            else:
                rhs = self.expr(prec + 1, depth)
                if text == "/" and rhs == 0:
                    raise ParseError("division by literal zero", pos)
            out = apply(out, rhs)
            # refused here, a long product of large constants costs no more
            # than its first factors; sympy distributes a number over a sum
            if prec == _PREC_MUL and any(_too_long(term.as_coeff_Mul()[0]) for term in sp.Add.make_args(out)):
                raise ParseError(f"product with a constant of more than {_MAX_DIGITS} digits", pos)

    def atom(self, depth: int) -> sp.Expr:
        kind, text, pos = self.next()
        if kind == "number":
            try:
                return sp.Integer(int(text))
            except ValueError:
                raise ParseError(f"integer literal of more than {_MAX_DIGITS} digits", pos) from None
        if kind == "op" and text == "(":
            e = self.expr(_PREC_ADD, depth + 1)
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.next()
                arg = self.expr(_PREC_ADD, depth + 1)
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
    for node in sp.preorder_traversal(e):
        if not isinstance(node, _PRINTABLE):
            raise ParseError(f"input has no written form: {_unprintable(node)}", 0)
        if _too_long(node):
            raise ParseError(f"input has a constant of more than {_MAX_DIGITS} digits", 0)
    return e


# --- formatting ----------------------------------------------------------

# sqrt is a function, not a class: it builds a power and prints as one
_FUNC_NAMES = {cls: name for name, cls in FUNCTIONS.items() if isinstance(cls, type)}
# the node kinds that _fmt prints, E included; any other node raises there
_PRINTABLE = (sp.Rational, sp.Symbol, type(sp.E), sp.Add, sp.Mul, sp.Pow, *_FUNC_NAMES)


def format_expression(e: sp.Expr | PolyElement) -> str:
    """Render in DSL syntax so that parse(format(e)) == e structurally; an
    element of a jet ring or field is rendered as its Expr (to_expr).

    Fixed choices: negative/rational powers keep exponent form (q1^-3,
    q1^(3/2)); half powers render as sqrt.
    """
    return _fmt(to_expr(e), _PREC_ADD)


def _paren(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def _fmt(e: sp.Expr, parent: int) -> str:
    if e is sp.E:
        return "exp(1)"
    if e.is_Integer:
        return _paren(str(e), e < 0 and parent > _PREC_UNARY)
    if e.is_Rational:
        return _paren(f"{e.p}/{e.q}", parent > _PREC_MUL)
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
        coeff = e.as_coeff_Mul()[0]
        if coeff.is_Number and coeff < 0:
            return _paren("-" + _fmt(-e, _PREC_UNARY), parent > _PREC_UNARY)
        parts = [_fmt(f, _PREC_UNARY) for f in e.as_ordered_factors()]
        return _paren("*".join(parts), parent > _PREC_MUL)
    if e.is_Pow:
        if e.exp == sp.Rational(1, 2):
            return f"sqrt({_fmt(e.base, _PREC_ADD)})"
        base = _fmt(e.base, _PREC_ATOM)
        if e.exp.is_Integer:
            out = f"{base}^{e.exp}"
        else:
            out = f"{base}^({_fmt(e.exp, _PREC_ADD)})"
        # only an atom stands left of ^, so a Pow there is wrapped
        return _paren(out, parent >= _PREC_ATOM)
    for cls, name in _FUNC_NAMES.items():
        if isinstance(e, cls):
            return f"{name}({_fmt(e.args[0], _PREC_ADD)})"
    raise ValueError(_unprintable(e))


def _unprintable(e: sp.Expr) -> str:
    return f"cannot format node {e} of type {type(e).__name__}"


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
    try:
        numerator, denominator = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:
        raise SchemaError(f"integer of more than {_MAX_DIGITS} digits", path) from None
    if denominator == 0:
        raise SchemaError(f"zero denominator in {raw!r}", path)
    return Fraction(numerator, denominator)


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
    # where errors point: `system`, or `symmetry[i]` for the i-th [[symmetry]],
    # counted as parse_system_file counts the symmetries and relations
    path: str
    entries: dict = field(default_factory=dict)


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
            repeated = m.group("rep") is not None
            index = sum(s.repeated and s.name == name for s in sections)
            current = _Section(name, repeated, f"{name}[{index}]" if repeated else name)
            sections.append(current)
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise SchemaError(f"cannot parse line {lineno}: {line!r}", "file")
        if current is None:
            raise SchemaError(f"key outside any section at line {lineno}", "file")
        key = m.group(1)
        if key in current.entries:
            raise SchemaError(f"duplicate key {key!r}", current.path)
        current.entries[key] = _parse_value(m.group(2).strip(), f"{current.path}.{key}")
    return sections


def _require(entries: dict, key: str, path: str):
    if key not in entries:
        raise SchemaError(f"missing required key {key!r}", path)
    return entries[key]


def _refuse_unknown(entries: dict, known: set[str], path: str) -> None:
    for key in entries:
        if key not in known:
            raise SchemaError(f"unknown key {key!r}", f"{path}.{key}")


def _name(entries: dict, path: str, taken: list[str]) -> str:
    """The section's name: a string that no symmetry or relation before it has."""
    name = _require(entries, "name", path)
    if not isinstance(name, str):
        raise SchemaError("name must be a string", f"{path}.name")
    if name in taken:
        raise SchemaError(f"name {name!r} is already a symmetry or relation name", f"{path}.name")
    return name


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

    _refuse_unknown(sys_entries, {"n", "hamiltonian", "parameters", "singularities"}, "system")

    system = HamiltonianSystem(
        n=n,
        hamiltonian=hamiltonian,
        parameters={name: sp.Rational(v.numerator, v.denominator) for name, v in params.items()},
        singularities=singularities,
    )

    symmetries: list[PointSymmetry] = []
    relations: list[Relation] = []
    for k, section in enumerate(sections[1:]):
        path = section.path
        taken = [x.name for x in (*symmetries, *relations)]
        if section.name == "symmetry" and section.repeated:
            entries = section.entries
            _refuse_unknown(entries, {"name", "xi", "eta", "zeta", "v"}, path)
            name = _name(entries, path, taken)
            # a relation reads each symmetry name as a symbol beside the parameters
            if name in params:
                raise SchemaError(f"symmetry name {name!r} collides with a parameter", f"{path}.name")
            try:
                parameter(name)
            except ValueError:
                raise SchemaError(f"symmetry name {name!r} collides with a reserved token", f"{path}.name") from None
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
            symmetries.append(PointSymmetry(name=name, xi=xi, eta=eta, zeta=zeta, v=v))
        elif section.name == "relation" and section.repeated:
            entries = section.entries
            _refuse_unknown(entries, {"name", "expr", "equals"}, path)
            name = _name(entries, path, taken)
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
