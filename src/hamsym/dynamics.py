"""Compiled evaluators, fixed-step integrators and conservation drift.

State layout everywhere is the flat vector (t, q1..qn, p1..pn).
"""
from __future__ import annotations

import linecache
import math
import textwrap
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

import sympy as sp

from .expressions import SINGULAR_ERRORS, compile_tuple, finite_real, state_symbols
from .noether import canonical_equations
from .systems import FirstIntegral, HamiltonianSystem, HamsymError, check_phase_expression

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CompiledFunction",
    "IntegratorConfig",
    "Trajectory",
    "DriftReport",
    "IntegrationError",
    "SingularityAbort",
    "compile_expression",
    "integrate",
    "drift",
    "convergence_order",
    "OrderEstimate",
]

METHODS = ("rk4", "implicit_midpoint")
# trajectory rows per array evaluation in drift; bounds the temporaries
DRIFT_BLOCK = 8192
# a drift at or below this is rounding, from which no order can be read
ORDER_FLOOR = 1e-14


class IntegrationError(HamsymError):
    pass


class SingularityAbort(IntegrationError):
    """Integration hit a singular or non-finite state."""

    def __init__(self, message: str, time_reached: float):
        super().__init__(f"{message} (time reached: {time_reached!r})")
        self.time_reached = time_reached


@dataclass(frozen=True)
class CompiledFunction:
    """Fast evaluator over the (t, q, p) state layout."""

    expression: sp.Expr
    _fn: object

    def __call__(self, t: float, state: np.ndarray) -> float:
        try:
            # plain floats so poles raise ZeroDivisionError instead of
            # producing numpy inf silently
            (value,) = self._fn(float(t), *(float(x) for x in state))
        except SINGULAR_ERRORS as exc:
            raise SingularityAbort(f"singular evaluation of {self.expression}: {exc}", t) from None
        if not finite_real((value,)):
            raise SingularityAbort(f"non-finite value of {self.expression}", t)
        return float(value)


def _compile(exprs: Sequence[sp.Expr], n: int, sys: HamiltonianSystem | None = None, array: bool = False):
    """Bind `exprs` and check them against the state layout, then compile
    them with `compile_tuple` over (t, q1..qn, p1..pn). Returns the bound
    expressions and the compiled function; parameters must be bound by then."""
    bound = [sp.sympify(sys.bind(e) if sys is not None else e) for e in exprs]
    for e in bound:
        check_phase_expression(e, n, "compiled expression")
    return bound, compile_tuple(state_symbols(n), bound, array)


def compile_expression(e: sp.Expr, n: int, sys: HamiltonianSystem | None = None) -> CompiledFunction:
    """Lambdify over (t, q1..qn, p1..pn); parameters must already be bound."""
    (e,), fn = _compile((e,), n, sys)
    return CompiledFunction(expression=e, _fn=fn)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"
    h: float = 1e-3
    t0: float = 0.0
    t1: float = 1.0
    fixed_point_tol: float = 1e-12
    fixed_point_max_iter: int = 50

    def __post_init__(self):
        if self.method not in METHODS:
            raise IntegrationError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not finite_real((self.h, self.t0, self.t1)):
            raise IntegrationError("h, t0 and t1 must be finite")
        if not (self.h > 0):
            raise IntegrationError("step size h must be positive")
        if not (self.t1 > self.t0):
            raise IntegrationError("t1 must exceed t0")
        if not math.isfinite((self.t1 - self.t0) / self.h):
            raise IntegrationError("the step count (t1 - t0) / h must be finite; increase h or shorten t0..t1")

    @property
    def steps(self) -> int:
        return max(1, round((self.t1 - self.t0) / self.h))

    @property
    def step(self) -> float:
        # the interval over a whole number of steps, so a trajectory ends at t1
        return (self.t1 - self.t0) / self.steps


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states; times[k] pairs with states[k] = (q, p)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise IntegrationError("times and states lengths differ")
        if len(self.times) == 0:
            raise IntegrationError("a trajectory needs at least one sample")


@lru_cache(maxsize=8)
def _rhs_function(sys: HamiltonianSystem):
    """The canonical right-hand side as one compiled tuple function of
    (t, q1..qn, p1..pn), compiled once per system."""
    qdot, pdot = canonical_equations(sys)
    return _compile((*qdot, *pdot), sys.n, sys)[1]


def integrate(sys: HamiltonianSystem, state0: Sequence[float], config: IntegratorConfig) -> Trajectory:
    """Advance the canonical equations with the configured fixed-step method.

    The trajectory is allocated first, so one too large to hold raises
    IntegrationError before anything is compiled. The loop is generated once
    per system and method, with the right-hand side inlined, and runs on
    local Python floats; the three tests/golden/trajectory-*.csv files pin
    its states bit for bit.
    """
    import numpy as np

    y = np.asarray(state0, dtype=float)
    if y.shape != (2 * sys.n,):
        raise IntegrationError(f"state must have length {2 * sys.n} (q1..qn, p1..pn)")
    steps = config.steps
    try:
        # k*step, then + t0, in place: the bits of t0 + step*k without temporaries
        times = np.arange(steps + 1, dtype=float)
        times *= config.step
        times += config.t0
        states = np.empty((steps + 1, 2 * sys.n))
    except (ValueError, MemoryError):
        raise IntegrationError(f"cannot allocate a trajectory of {steps:.3g} steps; increase h") from None
    states[0] = y
    loop = _loop(_rhs_function(sys), config.method)
    with memoryview(times) as times_view, memoryview(states.reshape(-1)) as states_view:
        loop(times_view, states_view, y.tolist(), config.step, config)
    return Trajectory(times=times, states=states)


# What one unchecked RK4 step can raise: a singular error, or a TypeError
# where a complex stage value meets a math function or isfinite.
_STEP_ERRORS = (*SINGULAR_ERRORS, TypeError)

# One checked evaluation of the right-hand side at the stage time ts:
# {evaluate} sets the stage values, and a raised singular error or a complex
# or non-finite value aborts at ts.
_CHECKED_STAGE = """\
ts = {time}
try:
{evaluate}
except SINGULAR_ERRORS as exc:
    raise SingularityAbort(f"singular evaluation of the canonical equations: {{exc}}", ts) from None
try:
    finite = {finite}
except (TypeError, OverflowError):
    finite = False
if not finite:
    raise SingularityAbort("non-finite value of the canonical equations", ts)
"""

# The fixed-step loop; {increment} sets d0..d{m-1}, the method's step before
# the compensated (Kahan) update of the state: long runs otherwise accumulate
# a rounding random walk that masks the methods' conservation. Its own names
# must differ from those of the spliced right-hand side (t, q1.., p1.., the
# cse temporaries x0.. and its functions); _loop refuses an overlap.
_LOOP = """\
def loop(times, states, y, h, config):
    {ys}, = y
    {cs} = 0.0
    half = h / 2
    sixth = h / 6
    tol = config.fixed_point_tol
    max_iter = config.fixed_point_max_iter
    row = {m}
    for step in range(config.steps):
        tk = times[step]
{increment}
{update}
        if not ({state_finite}):
            raise SingularityAbort("non-finite state", tk)
{store}
        row += {m}
"""

# RK4 runs its stages unchecked and tests only the increments: each stage
# value enters exactly one d_i with a positive weight, so a NaN, infinite or
# complex one leaves that d_i non-finite or complex. A step that raises or
# fails the test is replayed from the same (tk, y) with checked stages, which
# raise the abort of the stage that failed, or give the same increments.
_RK4_STEP = """\
try:
{fast}
    clean = {finite}
except STEP_ERRORS:
    clean = False
if not clean:
{checked}
"""

# The implicit midpoint checks every iterate: an iterate need not reach the
# increment (1/x of an infinite argument is finite).
_MIDPOINT_ITERATION = """\
for _ in range(max_iter):
{stage}
    delta = max({deltas})
    {ks} = {nexts}
    if delta <= tol:
        break
else:
    raise IntegrationError(f"implicit midpoint did not converge within {{max_iter}} iterations at t={{tk!r}}")
"""


@lru_cache(maxsize=16)
def _loop(fn, method: str):
    """The integrator loop of `method` for the compiled right-hand side `fn`
    of _rhs_function (two methods for each system it holds), generated from
    the templates above with the code lambdify printed for fn spliced into
    each stage, so no stage makes a call. The loop is a function of
    memoryviews of the times and of the flattened states, the initial state
    as a list, the step h and the config."""
    code = fn.__code__
    params = code.co_varnames[: code.co_argcount]
    m = len(params) - 1
    # lambdify registers the printed function with linecache as a file of its own
    _, *lines = linecache.getlines(code.co_filename)
    *temps, result = textwrap.dedent("".join(lines)).splitlines()
    result = result.removeprefix("return ")
    used = compile("\n".join((*temps, result)), "<right-hand side>", "exec").co_names

    def spliced(ks, time, args):
        bound = [f"{a} = {v}" for a, v in zip(params, (time, *args)) if a in used]
        return "".join(f"{line}\n" for line in (*bound, *temps, f"{', '.join(ks)}, = {result}"))

    def bare(ks, time, args):
        return f"{', '.join(ks)}, = ()\n"

    namespace = {
        **fn.__globals__,
        "SINGULAR_ERRORS": SINGULAR_ERRORS,
        "STEP_ERRORS": _STEP_ERRORS,
        "SingularityAbort": SingularityAbort,
        "IntegrationError": IntegrationError,
        "isfinite": math.isfinite,
    }
    # the loop's own names, read from it with nothing spliced in, are none of
    # fn's, but for a global that both read as the same object
    scratch = {}
    exec(compile(_loop_source(method, m, bare), "<loop names>", "exec"), scratch)
    own = scratch["loop"].__code__
    local = {*own.co_varnames, *code.co_varnames}
    clash = sorted(
        name
        for name in {*own.co_varnames, *own.co_names} & {*code.co_varnames, *code.co_names}
        if name in local or namespace.get(name) is not fn.__globals__.get(name)
    )
    if clash:
        raise RuntimeError(f"the integrator loop and the right-hand side both use the names {clash}")
    exec(compile(_loop_source(method, m, spliced), f"<hamsym {method} loop>", "exec"), namespace)
    return namespace["loop"]


def _loop_source(method: str, m: int, evaluate) -> str:
    """The source of the loop of `method` over a state of m floats;
    evaluate(ks, time, args) gives the lines that set the stage values ks
    from the stage time and the stage state."""
    idx = range(m)

    def names(prefix):
        return [f"{prefix}{i}" for i in idx]

    def finite(values):
        return " and ".join(f"isfinite({v})" for v in values)

    def checked(ks, time, args):
        evaluation = textwrap.indent(evaluate(ks, "ts", args), "    ")
        return _CHECKED_STAGE.format(time=time, evaluate=evaluation, finite=finite(ks))

    y, d = names("y"), names("d")

    def shifted(scale, ks):
        return [f"{a} + {scale} * {b}" for a, b in zip(y, ks)]

    if method == "rk4":
        k1, k2, k3, k4 = (names(f"k{j}_") for j in (1, 2, 3, 4))

        def rk4(stage):
            return "".join(
                (
                    stage(k1, "tk", y),
                    stage(k2, "tk + half", shifted("half", k1)),
                    stage(k3, "tk + half", shifted("half", k2)),
                    stage(k4, "tk + h", shifted("h", k3)),
                    *(f"d{i} = sixth * ({k1[i]} + 2 * {k2[i]} + 2 * {k3[i]} + {k4[i]})\n" for i in idx),
                )
            )

        increment = _RK4_STEP.format(
            fast=textwrap.indent(rk4(evaluate), "    "),
            finite=finite(d),
            checked=textwrap.indent(rk4(checked), "    "),
        )
    else:
        # implicit midpoint by fixed-point iteration on the stage value
        ks, nexts = names("k"), names("n")
        iteration = _MIDPOINT_ITERATION.format(
            stage=textwrap.indent(checked(nexts, "tk + half", shifted("half", ks)), "    "),
            deltas=", ".join(f"abs({a} - {b})" for a, b in zip(nexts, ks)),
            ks=", ".join(ks),
            nexts=", ".join(nexts),
        )
        increment = "".join((checked(ks, "tk + half", y), iteration, *(f"d{i} = h * {k}\n" for i, k in zip(idx, ks))))
    update = "".join(f"d{i} = d{i} - c{i}\nu = y{i} + d{i}\nc{i} = (u - y{i}) - d{i}\ny{i} = u\n" for i in idx)
    return _LOOP.format(
        m=m,
        ys=", ".join(y),
        cs=" = ".join(names("c")),
        increment=textwrap.indent(increment, " " * 8),
        update=textwrap.indent(update, " " * 8),
        state_finite=finite(y),
        store="".join(f"        states[row + {i}] = y{i}\n" for i in idx),
    )


@dataclass(frozen=True)
class DriftSeries:
    integral: str
    max_abs: float
    relative: float
    series: np.ndarray | None = None


@dataclass(frozen=True)
class DriftReport:
    entries: tuple[DriftSeries, ...] = field(default_factory=tuple)

    def entry(self, name: str) -> DriftSeries:
        for item in self.entries:
            if item.integral == name:
                return item
        raise KeyError(name)


def drift(
    sys: HamiltonianSystem,
    integrals: Sequence[FirstIntegral],
    trajectory: Trajectory,
    modulo: float | None = None,
    keep_series: bool = False,
) -> DriftReport:
    """Evaluate each integral along the trajectory and report worst drift.

    `modulo` folds differences onto the nearest representative of that
    period; used for angle-valued integrals (e.g. arctan-based ones) whose
    values are defined only up to branch jumps.
    """
    import numpy as np

    entries = []
    for integral in integrals:
        first, max_abs, series = None, 0.0, []
        # each block is a new array, so its deltas are taken in place
        for deltas in _blocks_along(integral.expression, sys, trajectory):
            if first is None:
                first = deltas[0]
            deltas -= first
            if modulo is not None:
                try:
                    with np.errstate(over="raise"):
                        deltas -= modulo * np.round(deltas / modulo)
                except FloatingPointError:
                    raise HamsymError(f"folding the drift of {integral.name} by modulo {modulo!r} overflows") from None
            # np.maximum keeps a NaN, as one np.max over every row would
            max_abs = np.maximum(max_abs, np.max(np.abs(deltas)))
            if keep_series:
                series.append(deltas)
        max_abs = float(max_abs)
        entries.append(
            DriftSeries(
                integral=integral.name,
                max_abs=max_abs,
                relative=max_abs / max(1.0, abs(float(first))),
                series=np.concatenate(series) if keep_series else None,
            )
        )
    return DriftReport(entries=tuple(entries))


def _blocks_along(e: sp.Expr, sys: HamiltonianSystem, trajectory: Trajectory) -> Iterator[np.ndarray]:
    """Values of `e` at every sample, one new float64 array per block of
    DRIFT_BLOCK rows, so no array but the trajectory is as long as it.

    A block that raises a floating-point error or gives a complex or
    non-finite value is evaluated again on the scalar evaluator, which
    raises SingularityAbort at the first singular sample; the scalar
    evaluator alone decides whether a sample is singular.
    """
    import numpy as np

    (e,), fn = _compile((e,), sys.n, sys, array=True)
    times, states = trajectory.times, trajectory.states
    for start in range(0, len(times), DRIFT_BLOCK):
        rows = slice(start, start + DRIFT_BLOCK)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                (block,) = fn(times[rows], *states[rows].T)
            clean = not np.iscomplexobj(block) and bool(np.all(np.isfinite(block)))
        except FloatingPointError:
            clean = False
        if not clean:
            scalar = compile_expression(e, sys.n)
            block = [scalar(t, y) for t, y in zip(times[rows], states[rows])]
        # cast as a slice assignment casts: a constant integral gives a
        # scalar block and a bare coordinate a view of the trajectory
        values = np.empty(len(times[rows]))
        values[:] = block
        yield values


@dataclass(frozen=True)
class OrderEstimate:
    order: float | None
    inconclusive: bool
    drift_h: float
    drift_half: float


def convergence_order(
    sys: HamiltonianSystem,
    state0: Sequence[float],
    config: IntegratorConfig,
    integral: FirstIntegral,
) -> OrderEstimate:
    """Richardson-style order estimate from drift at h and h/2."""
    report_h = drift(sys, [integral], integrate(sys, state0, config))
    report_half = drift(sys, [integral], integrate(sys, state0, replace(config, h=config.h / 2)))
    d1 = report_h.entries[0].max_abs
    d2 = report_half.entries[0].max_abs
    if d2 <= ORDER_FLOOR or d1 <= ORDER_FLOOR:
        return OrderEstimate(order=None, inconclusive=True, drift_h=d1, drift_half=d2)
    return OrderEstimate(order=math.log2(d1 / d2), inconclusive=False, drift_h=d1, drift_half=d2)
