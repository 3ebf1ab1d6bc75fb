"""Compiled evaluators, fixed-step integrators and conservation drift.

State layout everywhere is the flat vector (t, q1..qn, p1..pn).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import sympy as sp

from .expressions import SINGULAR_ERRORS, compile_tuple, finite_real, state_symbols, symbol_info
from .noether import canonical_equations
from .systems import FirstIntegral, HamiltonianSystem, HamsymError

__all__ = [
    "CompiledFunction",
    "IntegratorConfig",
    "Trajectory",
    "DriftReport",
    "IntegrationError",
    "SingularityAbort",
    "compile_expression",
    "allocate_trajectory",
    "integrate",
    "drift",
    "convergence_order",
    "OrderEstimate",
]

METHODS = ("rk4", "implicit_midpoint")
# trajectory rows per array evaluation in drift; bounds the temporaries
DRIFT_BLOCK = 8192


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

    n: int
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
    expressions and the compiled function.
    """
    bound = []
    for e in exprs:
        e = sp.sympify(sys.bind(e) if sys is not None else e)
        for s in e.free_symbols:
            info = symbol_info(s)
            if info is None:
                raise HamsymError(f"unbound parameter {s} in compiled expression")
            if info[2] > 0:
                raise HamsymError(f"jet symbol {s} cannot be compiled over the state layout")
            if info[0] in "qp" and info[1] > n:
                raise HamsymError(f"{s} outside dimension {n}")
        bound.append(e)
    return bound, compile_tuple(state_symbols(n), bound, array)


def compile_expression(e: sp.Expr, n: int, sys: HamiltonianSystem | None = None) -> CompiledFunction:
    """Lambdify over (t, q1..qn, p1..pn); parameters must already be bound."""
    (e,), fn = _compile((e,), n, sys)
    return CompiledFunction(n=n, expression=e, _fn=fn)


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


def _rhs_function(sys: HamiltonianSystem):
    """The canonical right-hand side as one call on a list of floats."""
    qdot, pdot = canonical_equations(sys)
    _, fn = _compile((*qdot, *pdot), sys.n, sys)

    def rhs(t: float, y: list[float]) -> tuple[float, ...]:
        try:
            k = fn(t, *y)
        except SINGULAR_ERRORS as exc:
            raise SingularityAbort(f"singular evaluation of the canonical equations: {exc}", t) from None
        if not finite_real(k):
            raise SingularityAbort("non-finite value of the canonical equations", t)
        return k

    return rhs


def allocate_trajectory(config: IntegratorConfig, n: int) -> Trajectory:
    """The time grid of `config` and room for its states in dimension n;
    raises IntegrationError when the trajectory cannot be allocated."""
    steps = config.steps
    try:
        times = config.t0 + config.step * np.arange(steps + 1)
        states = np.empty((steps + 1, 2 * n))
    except (ValueError, MemoryError):
        raise IntegrationError(f"cannot allocate a trajectory of {steps:.3g} steps; increase h") from None
    return Trajectory(times=times, states=states)


def integrate(sys: HamiltonianSystem, state0: Sequence[float], config: IntegratorConfig) -> Trajectory:
    """Advance the canonical equations with the configured fixed-step method.

    The stages run on lists of Python floats, elementwise in the same order
    of operations as the array expressions they stand for.
    """
    y = np.asarray(state0, dtype=float)
    if y.shape != (2 * sys.n,):
        raise IntegrationError(f"state must have length {2 * sys.n} (q1..qn, p1..pn)")
    rhs = _rhs_function(sys)
    trajectory = allocate_trajectory(config, sys.n)
    times, states, h = trajectory.times, trajectory.states, config.step
    states[0] = y
    y = y.tolist()
    step = _rk4_increment if config.method == "rk4" else _midpoint_increment
    # compensated (Kahan) accumulation of the state: long runs otherwise
    # accumulate a rounding random walk that masks the methods' conservation
    carry = [0.0] * len(y)
    for k in range(config.steps):
        t = float(times[k])
        increment = [d - c for d, c in zip(step(rhs, t, y, h, config), carry)]
        updated = [a + d for a, d in zip(y, increment)]
        carry = [(u - a) - d for u, a, d in zip(updated, y, increment)]
        y = updated
        if not finite_real(y):
            raise SingularityAbort("non-finite state", t)
        states[k + 1] = y
    return trajectory


def _rk4_increment(rhs, t, y, h, config) -> list[float]:
    half = h / 2
    k1 = rhs(t, y)
    k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
    k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
    k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
    sixth = h / 6
    return [sixth * (a + 2 * b + 2 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]


def _midpoint_increment(rhs, t, y, h, config) -> list[float]:
    """Implicit midpoint via fixed-point iteration on the stage value."""
    half = h / 2
    tm = t + half
    k = rhs(tm, y)
    for _ in range(config.fixed_point_max_iter):
        k_next = rhs(tm, [a + half * b for a, b in zip(y, k)])
        delta = max(abs(a - b) for a, b in zip(k_next, k))
        k = k_next
        if delta <= config.fixed_point_tol:
            return [h * b for b in k]
    raise IntegrationError(
        f"implicit midpoint did not converge within {config.fixed_point_max_iter} iterations at t={t!r}"
    )


@dataclass(frozen=True)
class DriftSeries:
    integral: str
    initial: float
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
    entries = []
    for integral in integrals:
        values = _values_along(integral.expression, sys, trajectory)
        deltas = values - values[0]
        if modulo is not None:
            deltas = deltas - modulo * np.round(deltas / modulo)
        max_abs = float(np.max(np.abs(deltas)))
        relative = max_abs / max(1.0, abs(float(values[0])))
        entries.append(
            DriftSeries(
                integral=integral.name,
                initial=float(values[0]),
                max_abs=max_abs,
                relative=relative,
                series=deltas if keep_series else None,
            )
        )
    return DriftReport(entries=tuple(entries))


def _values_along(e: sp.Expr, sys: HamiltonianSystem, trajectory: Trajectory) -> np.ndarray:
    """Values of `e` at every sample, a block of rows at a time.

    A block that raises a floating-point error or gives a complex or
    non-finite value is evaluated again on the scalar evaluator, which
    raises SingularityAbort at the first singular sample; the scalar
    evaluator alone decides whether a sample is singular.
    """
    (e,), fn = _compile((e,), sys.n, sys, array=True)
    times, states = trajectory.times, trajectory.states
    values = np.empty(len(times))
    for start in range(0, len(times), DRIFT_BLOCK):
        rows = slice(start, start + DRIFT_BLOCK)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                (block,) = fn(times[rows], *states[rows].T)
            clean = not np.iscomplexobj(block) and bool(np.all(np.isfinite(block)))
        except FloatingPointError:
            clean = False
        if clean:
            values[rows] = block
        else:
            scalar = compile_expression(e, sys.n)
            values[rows] = [scalar(t, y) for t, y in zip(times[rows], states[rows])]
    return values


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
    floor: float = 1e-14,
) -> OrderEstimate:
    """Richardson-style order estimate from drift at h and h/2."""
    report_h = drift(sys, [integral], integrate(sys, state0, config))
    report_half = drift(sys, [integral], integrate(sys, state0, replace(config, h=config.h / 2)))
    d1 = report_h.entries[0].max_abs
    d2 = report_half.entries[0].max_abs
    if d2 <= floor or d1 <= floor:
        return OrderEstimate(order=None, inconclusive=True, drift_h=d1, drift_half=d2)
    return OrderEstimate(order=math.log2(d1 / d2), inconclusive=False, drift_h=d1, drift_half=d2)
