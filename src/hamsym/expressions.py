"""Symbolic expressions over Hamiltonian jet variables.

Expressions are sympy trees restricted to exact rational constants, the jet
symbols t, q1..qn, p1..pn, dq1.., dp1.., ddq1.., ddp1.. (time derivatives up
to order 2), named parameters and a small set of elementary functions.
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

import numpy as np
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing
from sympy.printing.numpy import NumPyPrinter

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


def coord(i: int) -> sp.Symbol:
    return sp.Symbol(f"q{i}", real=True)


def momentum(i: int) -> sp.Symbol:
    return sp.Symbol(f"p{i}", real=True)


def coord_deriv(i: int, order: int = 1) -> sp.Symbol:
    if not 1 <= order <= MAX_JET_ORDER:
        raise JetOrderError(f"derivative order {order} out of range")
    return sp.Symbol("d" * order + f"q{i}", real=True)


def momentum_deriv(i: int, order: int = 1) -> sp.Symbol:
    if not 1 <= order <= MAX_JET_ORDER:
        raise JetOrderError(f"derivative order {order} out of range")
    return sp.Symbol("d" * order + f"p{i}", real=True)


def parameter(name: str) -> sp.Symbol:
    if name == "t" or _JET_RE.match(name) or name in FUNCTIONS:
        raise ValueError(f"parameter name {name!r} collides with a reserved token")
    return sp.Symbol(name, real=True)


def symbol_info(s: sp.Symbol) -> tuple[str, int, int] | None:
    """Classify a symbol: ('t', 0, 0), ('q'|'p', index, order), or None for a parameter."""
    name = s.name
    if name == "t":
        return ("t", 0, 0)
    m = _JET_RE.match(name)
    if m:
        return (m.group(2), int(m.group(3)), len(m.group(1)))
    return None


def jet_order(e: sp.Expr | PolyElement) -> int:
    order = 0
    for s in _jet_view(e)[1]:
        info = symbol_info(s)
        if info and info[0] in "qp":
            order = max(order, info[2])
    return order


def state_symbols(n: int) -> tuple[sp.Symbol, ...]:
    """The state layout of dimension n: (t, q1..qn, p1..pn)."""
    indices = range(1, n + 1)
    return (TIME, *map(coord, indices), *map(momentum, indices))


@lru_cache(maxsize=4)
def jet_ring(n: int) -> PolyRing:
    """The polynomial ring over QQ in the state symbols and the jet symbols
    of dimension n up to order 2; its generators are the same Symbol objects."""
    indices = range(1, n + 1)
    jets = [maker(i, order) for order in (1, 2) for maker in (coord_deriv, momentum_deriv) for i in indices]
    return PolyRing([*state_symbols(n), *jets], QQ)


def _jet_view(e):
    """(e, the symbols e depends on, the map of an Expr into e's algebra)
    for an Expr or an element of a jet ring."""
    if isinstance(e, PolyElement):
        ring = e.ring
        return e, [s for s, d in zip(ring.symbols, e.degrees()) if d > 0], ring.from_expr
    e = sp.sympify(e)
    return e, e.free_symbols, sp.sympify


def partial_diff(e: sp.Expr | PolyElement, s: sp.Symbol) -> sp.Expr | PolyElement:
    """de/ds, in the algebra of e. A sum is differentiated term by term, as
    sympy does, but without sympy's closing test of whether the whole
    derivative is zero: on large polynomials in real symbols that assumption
    query costs more than the derivative."""
    if isinstance(e, PolyElement):
        symbols = e.ring.symbols
        return e.diff(symbols.index(s)) if s in symbols else e.ring.zero
    e = sp.sympify(e)
    if e.is_Add:
        return e.func(*(sp.diff(a, s) for a in e.args))
    return sp.diff(e, s)


def total_derivative(e: sp.Expr | PolyElement) -> sp.Expr | PolyElement:
    """Total time derivative on the truncated jet space, in the algebra of e.

    D(e) = de/dt + sum_i dqi*de/dqi + dpi*de/dpi + ddqi*de/ddqi + ddpi*de/ddpi.
    Rejects input already containing order-2 jet symbols, since the result
    would need order-3 symbols.
    """
    e, symbols, lift = _jet_view(e)
    out = partial_diff(e, TIME)
    for s in symbols:
        info = symbol_info(s)
        if info is None or info[0] == "t":
            continue
        kind, index, order = info
        if order >= MAX_JET_ORDER:
            raise JetOrderError(f"total derivative of order-{order} symbol {s} exceeds jet order {MAX_JET_ORDER}")
        maker = coord_deriv if kind == "q" else momentum_deriv
        out += lift(maker(index, order + 1)) * partial_diff(e, s)
    return out


def simplify(e: sp.Expr | PolyElement) -> sp.Expr | PolyElement:
    """Canonicalize: constant folding, like-term collection and
    rational-function normalization over a common denominator. A jet-ring
    element is already canonical and comes back unchanged.

    Transcendental subterms are treated as atoms, so this need not prove
    identities such as sin^2 + cos^2 = 1; is_zero covers those numerically.
    """
    if isinstance(e, PolyElement):
        return e
    e = sp.sympify(e)
    if _is_plain_polynomial(e):
        # doit() re-evaluates any explicitly unevaluated Add/Mul nodes,
        # which expand alone leaves in place
        return sp.expand(e.doit())
    e = sp.together(e)
    hidden, back = _hide_radicals(e)
    out = sp.cancel(hidden)
    return out.xreplace(back)


def _is_plain_polynomial(e: sp.Expr) -> bool:
    """True when every power has a positive integer exponent and no function
    applications occur; expand alone is canonical for such expressions."""
    if e.atoms(sp.Function):
        return False
    return all(p.exp.is_Integer and p.exp > 0 for p in e.atoms(sp.Pow))


def _hide_radicals(e: sp.Expr) -> tuple[sp.Expr, dict]:
    """Swap each fractional-power base for a flat generator symbol so cancel
    works over plain polynomials; exactly invertible via the returned map.

    Integer powers of the same base are left alone: sympy folds products of
    same-base powers at construction, so integer and fractional occurrences
    never need to be identified after the fact.
    """
    bases: dict[sp.Expr, set[int]] = {}
    for node in e.atoms(sp.Pow):
        if node.exp.is_Rational and not node.exp.is_Integer:
            bases.setdefault(node.base, set()).add(node.exp.q)
    if not bases:
        return e, {}
    forward = {}
    back = {}
    for b, denominators in bases.items():
        m = reduce(math.lcm, denominators)
        u = sp.Dummy("r", real=True)
        for node in e.atoms(sp.Pow):
            if node.base == b and node.exp.is_Rational and not node.exp.is_Integer:
                forward[node] = u ** int(node.exp * m)
        back[u] = b ** sp.Rational(1, m)
    return e.xreplace(forward), back


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
    loads far more of numpy and sympy than the printed code uses."""
    modules, printer = ([{"numpy": np}], NumPyPrinter) if array else ("math", None)
    return sp.lambdify(args, tuple(exprs), modules=modules, printer=printer, cse=True)


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
    attempts: int = MAX_SAMPLE_ATTEMPTS,
) -> Generator[tuple[dict[sp.Symbol, float], tuple], bool | None, None]:
    """The one sampling loop. Draws points componentwise from
    [-2,-0.1] u [0.1,2] over `symbols` and every symbol of the guards in
    `singular` and of `exprs`, in name order, and yields each admissible point
    with the values of `exprs` there. Guards and expressions are compiled as
    one tuple. A draw is rejected when a guard is below SINGULAR_GUARD in
    magnitude or any value is singular; the caller rejects a yielded draw by
    sending True. The generator ends after `attempts` rejected draws."""
    guards = [sp.sympify(g) for g in singular]
    exprs = [sp.sympify(e) for e in exprs]
    args = sorted(set(symbols).union(*(e.free_symbols for e in (*guards, *exprs))), key=lambda s: s.name)
    values_at = compile_tuple(args, (*guards, *exprs))
    rejected = 0
    while rejected < attempts:
        point = {s: rng.choice((-1.0, 1.0)) * rng.uniform(SAMPLE_LOW, SAMPLE_HIGH) for s in args}
        try:
            values = values_at(*point.values())
            admissible = finite_real(values) and all(abs(g) >= SINGULAR_GUARD for g in values[: len(guards)])
        except SINGULAR_ERRORS:
            admissible = False
        if admissible and not (yield point, values[len(guards) :]):
            continue
        rejected += 1


def sample_point(
    symbols: Iterable[sp.Symbol],
    rng: Random,
    singular: Iterable[sp.Expr] = (),
    max_attempts: int = MAX_SAMPLE_ATTEMPTS,
) -> dict[sp.Symbol, float]:
    """The first admissible point of `draw_samples` with no values asked for."""
    for point, _ in draw_samples(symbols, (), rng, singular, max_attempts):
        return point
    raise SamplingError(f"no admissible sample point after {max_attempts} attempts")


def is_zero(
    e: sp.Expr,
    singular: Iterable[sp.Expr] = (),
    *,
    seed: int = 0,
    points: int = DEFAULT_POINTS,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Two-tier zero test: canonical-form proof, then seeded numeric sampling.

    The numeric tolerance is relative to the magnitude of the expression's
    additive terms at each point, so cancellations of large terms count. It
    must be positive and finite: no value exceeds a NaN or infinite bound.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ExpressionError(f"tolerance must be positive and finite, got {tol!r}")
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
    symbols: Sequence[sp.Symbol],
    degree: int,
    rng: Random,
    terms: int = 6,
) -> sp.Expr:
    """Random polynomial with small rational coefficients, for identity testing."""
    out = sp.Rational(rng.randint(-3, 3), rng.randint(1, 3))
    for _ in range(terms):
        coeff = sp.Rational(rng.randint(-4, 4), rng.randint(1, 4))
        if coeff == 0:
            continue
        monomial = sp.Integer(1)
        total = rng.randint(0, degree)
        for _ in range(total):
            monomial *= rng.choice(symbols)
        out += coeff * monomial
    return sp.expand(out)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-check seed so concurrent or reordered checks reproduce."""
    return (seed * 2654435761 + zlib.crc32(label.encode())) % (2**32)
