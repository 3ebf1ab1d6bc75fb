"""Symbolic expressions over Hamiltonian jet variables.

Expressions are sympy trees restricted to exact rational constants, the jet
symbols t, q1..qn, p1..pn, dq1.., dp1.., ddq1.., ddp1.. (time derivatives up
to order 2), named parameters and a small set of elementary functions.
The proof tier computes in exact algebras where it can: the jet ring of
polynomials over QQ, or the jet field of rational functions over QQ with
one generator per radical (jet_algebra picks one). Derivatives, on-shell
substitution and the zero test accept their elements as well as Exprs.
Everything here is a pure function over immutable values; floating point
enters only at evaluation time.
"""
from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass
from functools import lru_cache, reduce
from random import Random
from typing import Generator, Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.rings import PolyElement, PolyRing

__all__ = [
    "TIME",
    "FUNCTIONS",
    "Verdict",
    "ExpressionError",
    "JetOrderError",
    "UnboundSymbolError",
    "SingularEvaluationError",
    "SamplingError",
    "SINGULAR_ERRORS",
    "coord",
    "momentum",
    "coord_deriv",
    "momentum_deriv",
    "parameter",
    "symbol_info",
    "jet_order",
    "jet_ring",
    "jet_field",
    "jet_algebra",
    "algebra_lift",
    "defined_nowhere",
    "to_expr",
    "substitute_jets",
    "partial_diff",
    "total_derivative",
    "simplify",
    "finite_real",
    "state_symbols",
    "compile_tuple",
    "evaluate",
    "draw_samples",
    "is_zero",
    "sample_point",
    "random_polynomial",
    "derive_seed",
]

TIME = sp.Symbol("t", real=True)

FUNCTIONS = {
    "sqrt": sp.sqrt,
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
    "arctan": sp.atan,
    "exp": sp.exp,
    "log": sp.log,
}

MAX_JET_ORDER = 2

# Numeric zero-testing defaults: 32 points, relative tolerance 1e-9,
# componentwise samples from [-2, -0.1] u [0.1, 2].
DEFAULT_POINTS = 32
DEFAULT_TOL = 1e-9
SAMPLE_LOW = 0.1
SAMPLE_HIGH = 2.0
MAX_SAMPLE_ATTEMPTS = 1000
SINGULAR_GUARD = 0.05

_JET_RE = re.compile(r"^(d{0,2})([qp])([1-9][0-9]*)$")


class ExpressionError(Exception):
    """Base class for expression-level failures."""


class JetOrderError(ExpressionError):
    """An operation received jet symbols beyond the order it supports."""


class UnboundSymbolError(ExpressionError):
    def __init__(self, symbol):
        super().__init__(f"unbound symbol {symbol}")
        self.symbol = symbol


class SingularEvaluationError(ExpressionError):
    """Evaluation hit a pole or a domain boundary; `subexpression` is the
    whole expression evaluated."""

    def __init__(self, message, subexpression):
        super().__init__(f"{message}: {subexpression}")
        self.subexpression = subexpression


class SamplingError(ExpressionError):
    """All candidate sample points were rejected as singular."""


# The symbol makers and symbol_info are memoized: sympy returns the same
# Symbol for the same name anyway, and building one costs a few microseconds.
@lru_cache(maxsize=None)
def coord(i: int) -> sp.Symbol:
    return sp.Symbol(f"q{i}", real=True)


@lru_cache(maxsize=None)
def momentum(i: int) -> sp.Symbol:
    return sp.Symbol(f"p{i}", real=True)


@lru_cache(maxsize=None)
def coord_deriv(i: int, order: int = 1) -> sp.Symbol:
    if not 1 <= order <= MAX_JET_ORDER:
        raise JetOrderError(f"derivative order {order} out of range")
    return sp.Symbol("d" * order + f"q{i}", real=True)


@lru_cache(maxsize=None)
def momentum_deriv(i: int, order: int = 1) -> sp.Symbol:
    if not 1 <= order <= MAX_JET_ORDER:
        raise JetOrderError(f"derivative order {order} out of range")
    return sp.Symbol("d" * order + f"p{i}", real=True)


def parameter(name: str) -> sp.Symbol:
    if name == "t" or _JET_RE.match(name) or name in FUNCTIONS:
        raise ValueError(f"parameter name {name!r} collides with a reserved token")
    return sp.Symbol(name, real=True)


@lru_cache(maxsize=None)
def symbol_info(s: sp.Symbol) -> tuple[str, int, int] | None:
    """Classify a symbol: ('t', 0, 0), ('q'|'p', index, order), or None for a parameter."""
    name = s.name
    if name == "t":
        return ("t", 0, 0)
    m = _JET_RE.match(name)
    if m:
        return (m.group(2), int(m.group(3)), len(m.group(1)))
    return None


def jet_order(e: sp.Expr | PolyElement | FracElement) -> int:
    if isinstance(e, (PolyElement, FracElement)):
        return max((o for o, d in zip(_generators(e).orders, _degrees(e)) if d > 0), default=0)
    return max((info[2] for s in sp.sympify(e).free_symbols if (info := symbol_info(s))), default=0)


def state_symbols(n: int) -> tuple[sp.Symbol, ...]:
    """The state layout of dimension n: (t, q1..qn, p1..pn)."""
    indices = range(1, n + 1)
    return (TIME, *map(coord, indices), *map(momentum, indices))


@lru_cache(maxsize=4)
def jet_ring(n: int, parameters: tuple[sp.Symbol, ...] = ()) -> PolyRing:
    """The polynomial ring over QQ in the state symbols, the jet symbols of
    dimension n up to order 2, then `parameters`, as Symbol generators."""
    indices = range(1, n + 1)
    jets = [maker(i, order) for order in (1, 2) for maker in (coord_deriv, momentum_deriv) for i in indices]
    return PolyRing([*state_symbols(n), *jets, *parameters], QQ)


@lru_cache(maxsize=16)
def jet_field(
    n: int, radicals: tuple[tuple[sp.Expr, int], ...] = (), parameters: tuple[sp.Symbol, ...] = ()
) -> FracField:
    """The field of rational functions over QQ in one generator u = b^(1/m)
    per radical (b, m), then the jet_ring(n, parameters) symbols, in lex
    order with the radicals first. Each base b is a polynomial over QQ in
    the state symbols. The arithmetic treats u as free; the zero test and
    to_expr apply the relation u^m = b, and derivatives its chain rule."""
    roots = []
    for b, m in radicals:
        root = b ** sp.Rational(1, m)
        if not (root.is_Pow and root.base == b and root.exp == sp.Rational(1, m)):
            raise ValueError(f"({b})^(1/{m}) does not stay a radical")
        roots.append(root)
    return FracField((*roots, *jet_ring(n, parameters).symbols), QQ)


@dataclass(frozen=True)
class _Generators:
    """The one record of the generators of a jet ring or field. `index`
    maps each generator to its index, and `orders` holds the jet order of
    each (0 for t, q, p, parameters and radicals). `rates` holds
    (i, x_i, D(x_i)) for t and each jet symbol x_i. D(t) is one; the D(x_i)
    of a jet is the generator of its total derivative, a ring element also
    in a field, or None when that is no generator (order 2). `roots` holds
    (i, b, m, u^m - b) for each radical generator u = b^(1/m)."""

    algebra: PolyRing | FracField
    index: dict
    orders: tuple[int, ...]
    rates: tuple[tuple[int, sp.Symbol, PolyElement | None], ...]
    roots: tuple[tuple[int, PolyElement, int, PolyElement], ...]

    def lift(self, e):
        """e in the algebra: an element of this ring as it is, a ring element
        of another algebra through its Expr, a generator Symbol by lookup,
        anything else by from_expr."""
        if isinstance(e, PolyElement):
            if e.ring == self.algebra:
                return e
            e = e.as_expr()
        i = self.index.get(e) if isinstance(e, sp.Symbol) else None
        return self.algebra.from_expr(e) if i is None else self.algebra.gens[i]


def _generators(x) -> _Generators:
    """The table of a jet ring or field x, or of x's algebra, built once per
    algebra object: an evicted jet_ring or jet_field comes back as a new
    object equal to the old one, whose generators are other objects."""
    if isinstance(x, (PolyElement, FracElement)):
        x = x.ring if isinstance(x, PolyElement) else x.field
    return _generator_table(id(x), x)


@lru_cache(maxsize=32)
def _generator_table(_: int, algebra: PolyRing | FracField) -> _Generators:
    ring = algebra if isinstance(algebra, PolyRing) else algebra.ring
    index = {s: i for i, s in enumerate(algebra.symbols)}
    orders, rates, roots = [], [], []
    for i, s in enumerate(algebra.symbols):
        if s.is_Pow:  # a radical u = b^(1/m)
            b = ring.from_expr(s.base)
            roots.append((i, b, s.exp.q, ring.gens[i] ** s.exp.q - b))
        info = symbol_info(s) if s.is_Symbol else None
        orders.append(info[2] if info else 0)
        if info is None:
            continue
        kind, k, order = info
        if kind == "t":
            rate = ring.one
        elif order < MAX_JET_ORDER:
            j = index.get((coord_deriv if kind == "q" else momentum_deriv)(k, order + 1))
            rate = None if j is None else ring.gens[j]
        else:
            rate = None
        rates.append((i, s, rate))
    return _Generators(algebra, index, tuple(orders), tuple(rates), tuple(roots))


def jet_algebra(n: int, exprs: Sequence[sp.Expr | PolyElement], parameters: tuple[sp.Symbol, ...] = ()):
    """(lift, the lifted exprs) in the first exact algebra of dimension n and
    `parameters` that holds every expression of `exprs`, or None when none
    does. That is the jet ring when all are polynomials over QQ in its
    symbols, else the jet field of their radicals when all are rational
    functions over QQ in them and in radicals b^(k/m) of polynomial bases b
    in the state symbols. Floats, other symbols, nested radicals, parameters
    in a base and trigonometric, exp or log terms have no exact algebra. An
    element of the jet ring is kept as it is in the ring."""
    exprs = [e if isinstance(e, PolyElement) else sp.sympify(e) for e in exprs]
    trees = [e for e in exprs if not isinstance(e, PolyElement)]
    if any(e.atoms(sp.Float) for e in trees):
        return None
    denominators: dict[sp.Expr, set[int]] = {}
    for e in trees:
        for node in e.atoms(sp.Pow):
            if node.exp.is_Rational and not node.exp.is_Integer:
                denominators.setdefault(node.base, set()).add(node.exp.q)
    ring = jet_ring(n, parameters)
    try:
        if not denominators:
            lift = _generators(ring).lift
            try:
                return lift, [lift(e) for e in exprs]
            except ValueError:
                pass  # a rational function
        for b in denominators:
            # a nested radical or a base that is not a polynomial raises here
            if jet_order(ring.from_expr(b)) > 0 or not b.free_symbols.isdisjoint(parameters):
                return None
        radicals = sorted(((b, reduce(math.lcm, qs)) for b, qs in denominators.items()), key=sp.default_sort_key)
        lift = _generators(jet_field(n, tuple(radicals), parameters)).lift
        return lift, [lift(e) for e in exprs]
    except ValueError:
        return None


def algebra_lift(e):
    """The map of an Expr into the algebra of e: its jet ring, its jet
    field, or Expr."""
    if isinstance(e, (PolyElement, FracElement)):
        return _generators(e).lift
    return sp.sympify


def _normal_form(e: FracElement) -> tuple[PolyElement, PolyElement]:
    """The numerator and the denominator of e, each reduced by the relations
    u^m - b of e's radicals (of degree below m in each u)."""
    relations = [relation for *_, relation in _generators(e).roots]
    if not relations:
        return e.numer, e.denom
    return e.numer.rem(relations), e.denom.rem(relations)


def defined_nowhere(e) -> bool:
    """Whether e is a jet field element whose denominator reduces to 0 by its radical relations."""
    return isinstance(e, FracElement) and not _normal_form(e)[1]


def _proves_zero(e: PolyElement | FracElement) -> bool:
    """Whether the exact element e is zero wherever it is defined: a ring
    element is zero, a field element's numerator reduces to zero by its
    radical relations while its denominator does not."""
    if isinstance(e, PolyElement):
        return not e
    numer, denom = _normal_form(e)
    return not numer and bool(denom)


def to_expr(e) -> sp.Expr:
    """e as an Expr; a field element's numerator and denominator are first
    reduced by its radical relations."""
    if isinstance(e, PolyElement):
        return e.as_expr()
    if isinstance(e, FracElement):
        numer, denom = _normal_form(e)
        if not denom:  # undefined wherever u^m = b: keep the free form
            numer, denom = e.numer, e.denom
        return numer.as_expr() / denom.as_expr()
    return sp.sympify(e)


def _compose(P: PolyElement, values: Mapping) -> tuple[PolyElement, PolyElement]:
    """(A, B) with A/B = P at `values`. P's terms are grouped by their powers
    of the substituted generators and put over one common denominator B."""
    ring = P.ring
    index = _generators(ring).index
    degrees = P.degrees()
    subs = []
    for s, v in values.items():
        i = index[s]
        if degrees[i] > 0:
            numer, denom = (v.numer, v.denom) if isinstance(v, FracElement) else (v, ring.one)
            subs.append((i, numer, denom, degrees[i]))
    if not subs:
        return P, ring.one
    groups: dict[tuple, dict] = {}
    for monom, coeff in P.iterterms():
        rest = list(monom)
        key = tuple(rest[i] for i, *_ in subs)
        for i, *_ in subs:
            rest[i] = 0
        groups.setdefault(key, {})[tuple(rest)] = coeff
    A = ring.zero
    for key, terms in groups.items():
        term = ring.dtype(terms)
        for (_, numer, denom, d), k in zip(subs, key):
            if k:
                term *= numer**k
            if d - k and denom != 1:
                term *= denom ** (d - k)
        A += term
    B = ring.one
    for _, _, denom, d in subs:
        if denom != 1:
            B *= denom**d
    return A, B


def substitute_jets(e, values: Mapping):
    """e with each symbol of `values` replaced by its value (rational or in
    e's algebra, free of the replaced symbols): an Expr by xreplace, an exact
    element term by term over its numerator and denominator (FracElement.subs
    takes only constants); a zero denominator raises ZeroDivisionError."""
    if isinstance(e, PolyElement):
        return _compose(e, values)[0]
    if isinstance(e, FracElement):
        (nn, nd), (dn, dd) = _compose(e.numer, values), _compose(e.denom, values)
        return e.field.new(nn * dd, nd * dn)
    return sp.sympify(e).xreplace(values)


def _degrees(e: PolyElement | FracElement) -> list[int]:
    """e's degree in each generator of its ring or field. A field element
    depends on the symbols of each of its radicals' bases as well."""
    if isinstance(e, PolyElement):
        return e.degrees()
    degrees = [max(dn, dd) for dn, dd in zip(e.numer.degrees(), e.denom.degrees())]
    for i, b, _, _ in _generators(e).roots:
        if degrees[i] > 0:
            degrees = [max(d, db) for d, db in zip(degrees, b.degrees())]
    return degrees


def _field_derivative(e: FracElement, weights: Sequence[tuple[int, PolyElement]]) -> FracElement:
    """The derivation with x_i -> w for each (i, w) of `weights`, applied to
    e. `weights` covers every symbol that e depends on (see _degrees). A
    radical u = b^(1/m) follows the chain rule u' = b'/(m*u^(m-1)),
    which is u*b'/(m*b) under u^m = b; its denominator is a monomial, and so
    then is every denominator that derivatives of monomial denominators
    produce, whose cancellation is cheap. The result is put over one
    denominator, so it costs one cancellation."""
    field, ring = e.field, e.field.ring
    numer, denom = e.numer, e.denom
    nd, dd = numer.degrees(), denom.degrees()

    def direct(P, degrees):
        out = ring.zero
        for i, w in weights:
            if degrees[i] > 0:
                out += P.diff(i) * w
        return out

    roots = [(i, b, m) for i, b, m, _ in _generators(field).roots if max(nd[i], dd[i]) > 0]
    scale = ring.one
    for i, _, m in roots:
        scale *= m * ring.gens[i] ** (m - 1)
    # scale * u' = b' * scale / (m*u^(m-1)) for each radical u of e
    rates = [(i, direct(b, b.degrees()) * scale.exquo(m * ring.gens[i] ** (m - 1))) for i, b, m in roots]

    def delta(P, degrees):  # scale * P'
        out = direct(P, degrees) * scale
        for i, rate in rates:
            if degrees[i] > 0:
                out += P.diff(i) * rate
        return out

    dn, ddn = delta(numer, nd), delta(denom, dd)
    if not ddn:
        return field.new(dn, denom * scale)
    return field.new(dn * denom - numer * ddn, denom**2 * scale)


def partial_diff(e: sp.Expr | PolyElement | FracElement, s: sp.Symbol) -> sp.Expr | PolyElement | FracElement:
    """de/ds, in the algebra of e; in a jet field through the chain rule
    du/ds = u*(db/ds)/(m*b) of each radical u = b^(1/m), in the form
    (db/ds)/(m*u^(m-1)) (see _field_derivative); an Expr by sympy's diff."""
    if isinstance(e, (PolyElement, FracElement)):
        i = _generators(e).index.get(s)
        if isinstance(e, FracElement):
            return _field_derivative(e, [] if i is None else [(i, e.field.ring.one)])
        return e.ring.zero if i is None else e.diff(i)
    return sp.diff(sp.sympify(e), s)


def total_derivative(e: sp.Expr | PolyElement | FracElement) -> sp.Expr | PolyElement | FracElement:
    """Total time derivative on the truncated jet space, in the algebra of e.

    D(e) = de/dt + sum_i dqi*de/dqi + dpi*de/dpi + ddqi*de/ddqi + ddpi*de/ddpi.
    Rejects input already containing order-2 jet symbols, since the result
    would need order-3 symbols. An element of a jet ring or field sums
    D(x_i)*de/dx_i over its generators x_i of positive degree, by index.
    """
    if isinstance(e, (PolyElement, FracElement)):
        degrees = _degrees(e)
        weights = []  # (i, D(x_i)) for each generator x_i of e with a rate
        for i, s, rate in _generators(e).rates:
            if degrees[i] > 0:
                if rate is None:
                    raise _order_error(s)
                weights.append((i, rate))
        if isinstance(e, FracElement):
            return _field_derivative(e, weights)
        return sum((e.diff(i) * rate for i, rate in weights), e.ring.zero)
    e = sp.sympify(e)
    rates = {}  # D(s) for each jet symbol s of e; D(t) = 1
    for s in e.free_symbols:
        info = symbol_info(s)
        if info is None or info[0] == "t":
            continue
        kind, index, order = info
        if order >= MAX_JET_ORDER:
            raise _order_error(s)
        rates[s] = (coord_deriv if kind == "q" else momentum_deriv)(index, order + 1)
    out = partial_diff(e, TIME)
    for s, rate in rates.items():
        out += rate * partial_diff(e, s)
    return out


def _order_error(s: sp.Symbol) -> JetOrderError:
    return JetOrderError(f"total derivative of order-{MAX_JET_ORDER} symbol {s} exceeds jet order {MAX_JET_ORDER}")


def simplify(e: sp.Expr | PolyElement | FracElement) -> sp.Expr | PolyElement | FracElement:
    """Canonicalize an Expr: a polynomial by expand, any other Expr by
    sympy's cancel, which puts it over one common denominator and treats the
    powers b^(k/m) of one base as powers of one generator. An element of a
    jet ring or field is already in normal form and comes back unchanged.

    Transcendental subterms are treated as atoms, so this need not prove
    identities such as sin^2 + cos^2 = 1; is_zero covers those numerically.
    """
    if isinstance(e, (PolyElement, FracElement)):
        return e
    e = sp.sympify(e)
    if _is_plain_polynomial(e):
        # doit() re-evaluates any explicitly unevaluated Add/Mul nodes,
        # which expand alone leaves in place
        return sp.expand(e.doit())
    return sp.cancel(e)


def _is_plain_polynomial(e: sp.Expr) -> bool:
    """True when every power has a positive integer exponent and no function
    applications occur; expand alone is canonical for such expressions."""
    if e.atoms(sp.Function):
        return False
    return all(p.exp.is_Integer and p.exp > 0 for p in e.atoms(sp.Pow))


# The one singularity rule: a numeric evaluation is singular when it raises
# one of these (a pole, a domain error, an overflow) or gives a value that
# finite_real rejects.
SINGULAR_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def finite_real(values) -> bool:
    """Whether every value is a finite real number; complex values are not."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def compile_tuple(args: Sequence[sp.Symbol], exprs: Sequence[sp.Expr], array: bool = False):
    """Lambdify `exprs` as one cse'd function of `args` returning the tuple of
    their values. The scalar form runs on Python floats through `math`, where a
    fractional power of a negative number is complex. The array form takes
    whole columns; its namespace holds numpy alone, because modules="numpy"
    loads far more of numpy and sympy than the printed code uses. numpy is
    imported here, on the array paths only, so that the symbolic commands
    never load it."""
    if not array:
        return sp.lambdify(args, tuple(exprs), modules="math", cse=True)
    import numpy as np
    from sympy.printing.numpy import NumPyPrinter

    return sp.lambdify(args, tuple(exprs), modules=[{"numpy": np}], printer=NumPyPrinter, cse=True)


def evaluate(e: sp.Expr, bindings: Mapping[sp.Symbol, float]) -> float:
    """Value of `e` on Python floats; raises instead of giving a singular value."""
    e = sp.sympify(e)
    args = sorted(e.free_symbols, key=lambda s: s.name)
    try:
        (value,) = compile_tuple(args, (e,))(*(float(bindings[s]) for s in args))
    except KeyError as exc:
        raise UnboundSymbolError(exc.args[0]) from None
    except SINGULAR_ERRORS as exc:
        raise SingularEvaluationError(f"singular evaluation ({exc})", e) from None
    if not finite_real((value,)):
        raise SingularEvaluationError("non-finite value", e)
    return float(value)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a zero-equivalence test.

    status is one of 'proven-zero', 'numerically-zero', 'nonzero',
    'inconclusive'. A witness (point and value) accompanies 'nonzero'.
    """

    status: str
    points: int | None = None
    tolerance: float | None = None
    witness: dict[str, float] | None = None
    value: float | None = None

    PROVEN = "proven-zero"
    NUMERIC = "numerically-zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"

    @property
    def is_zero(self) -> bool:
        return self.status in (self.PROVEN, self.NUMERIC)

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.points is not None:
            out["points"] = self.points
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def draw_samples(
    symbols: Iterable[sp.Symbol],
    exprs: Sequence[sp.Expr],
    rng: Random,
    singular: Iterable[sp.Expr] = (),
) -> Generator[tuple[dict[sp.Symbol, float], tuple], bool | None, None]:
    """The one sampling loop. Draws points componentwise from
    [-2,-0.1] u [0.1,2] over `symbols` and every symbol of the guards in
    `singular` and of `exprs`, in name order, and yields each admissible point
    with the values of `exprs` there. Guards and expressions are compiled as
    one tuple. A draw is rejected when a guard is below SINGULAR_GUARD in
    magnitude or any value is singular; the caller rejects a yielded draw by
    sending True. The generator ends after MAX_SAMPLE_ATTEMPTS rejected draws."""
    guards = [sp.sympify(g) for g in singular]
    exprs = [sp.sympify(e) for e in exprs]
    args = sorted(set(symbols).union(*(e.free_symbols for e in (*guards, *exprs))), key=lambda s: s.name)
    values_at = compile_tuple(args, (*guards, *exprs))
    rejected = 0
    while rejected < MAX_SAMPLE_ATTEMPTS:
        point = {s: rng.choice((-1.0, 1.0)) * rng.uniform(SAMPLE_LOW, SAMPLE_HIGH) for s in args}
        try:
            values = values_at(*point.values())
            admissible = finite_real(values) and all(abs(g) >= SINGULAR_GUARD for g in values[: len(guards)])
        except SINGULAR_ERRORS:
            admissible = False
        if admissible and not (yield point, values[len(guards) :]):
            continue
        rejected += 1


def sample_point(symbols: Iterable[sp.Symbol], rng: Random, singular: Iterable[sp.Expr] = ()) -> dict[sp.Symbol, float]:
    """The first admissible point of `draw_samples` with no values asked for."""
    for point, _ in draw_samples(symbols, (), rng, singular):
        return point
    raise SamplingError(f"no admissible sample point after {MAX_SAMPLE_ATTEMPTS} attempts")


def is_zero(
    e: sp.Expr | PolyElement | FracElement,
    singular: Iterable[sp.Expr] = (),
    *,
    seed: int = 0,
    points: int = DEFAULT_POINTS,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Two-tier zero test: an exact proof, then seeded numeric sampling.

    An element of a jet ring or field is proven zero by exact arithmetic
    (a field element when its numerator reduces to zero by the radical
    relations; one whose denominator does is defined nowhere, so
    inconclusive); an Expr by its canonical form from simplify. Anything else
    is converted to an Expr and sampled: only sampling may say 'nonzero'.
    The numeric tolerance is relative to the magnitude of the expression's
    additive terms at each point, so cancellations of large terms count. It
    must be positive and finite: no value exceeds a NaN or infinite bound.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ExpressionError(f"tolerance must be positive and finite, got {tol!r}")
    if isinstance(e, (PolyElement, FracElement)):
        if _proves_zero(e):
            return Verdict(Verdict.PROVEN)
        if defined_nowhere(e):
            return Verdict(Verdict.INCONCLUSIVE)
        simplified = to_expr(e)
    else:
        simplified = simplify(e)
        if simplified == 0:
            return Verdict(Verdict.PROVEN)
    free = simplified.free_symbols
    if not free:
        return Verdict(Verdict.NONZERO, witness={}, value=float(simplified))
    terms = sp.Add.make_args(sp.expand(simplified))
    draws = draw_samples(free, (simplified, *terms), Random(seed), singular)
    sampled, rejected = 0, None
    while sampled < points:
        try:
            point, (value, *term_values) = draws.send(rejected)
        except StopIteration:
            break
        rejected = False
        bound = tol * (1.0 + sum(map(abs, term_values)))
        if abs(value) > bound:
            # confirm a float nonzero at 50 digits before reporting it
            exact = simplified.evalf(50, subs=point)
            if not (exact.is_real and exact.is_finite):
                rejected = True
                continue
            if abs(exact) > bound:
                witness = {s.name: v for s, v in point.items()}
                return Verdict(Verdict.NONZERO, witness=witness, value=float(value))
        sampled += 1
    if sampled == 0:
        return Verdict(Verdict.INCONCLUSIVE)
    return Verdict(Verdict.NUMERIC, points=sampled, tolerance=tol)


def random_polynomial(
    generators: Sequence[sp.Symbol] | Sequence[PolyElement],
    degree: int,
    rng: Random,
    terms: int = 6,
) -> sp.Expr | PolyElement:
    """Random polynomial with small rational coefficients, for identity
    testing, in the arithmetic of `generators`: an Expr over Symbols, a ring
    element over the generators of a ring. The same rng gives the same
    polynomial either way."""
    one = generators[0] ** 0
    out = one * sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
    for _ in range(terms):
        coeff = sp.Rational(rng.randint(-4, 4), rng.randint(1, 4))
        if coeff == 0:
            continue
        total = rng.randint(0, degree)
        out += math.prod((rng.choice(generators) for _ in range(total)), start=one) * coeff
    return out


def derive_seed(seed: int, label: str) -> int:
    """Stable per-check seed so concurrent or reordered checks reproduce."""
    return (seed * 2654435761 + zlib.crc32(label.encode())) % (2**32)
