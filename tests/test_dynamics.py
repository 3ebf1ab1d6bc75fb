"""Compiled evaluation, fixed-step integration, drift and order estimates."""
import math
from random import Random

import numpy as np
import pytest
import sympy as sp

from hamsym.dynamics import (
    DRIFT_BLOCK,
    IntegrationError,
    IntegratorConfig,
    SingularityAbort,
    _rhs_function,
    _values_along,
    compile_expression,
    convergence_order,
    drift,
    integrate,
)
from hamsym.expressions import FUNCTIONS, TIME, coord, momentum, sample_point
from hamsym.noether import canonical_equations, first_integral
from hamsym.systems import FirstIntegral, HamiltonianSystem, HamsymError

SEED = 42

q, p = coord(1), momentum(1)


class TestCompile:
    def test_example_value(self, example1):
        fn = compile_expression(example1.system.hamiltonian, 1)
        assert fn(0.0, np.array([1.0, 1.0])) == 1.0

    def test_kepler_circular_energy(self, kepler3):
        fn = compile_expression(kepler3.system.hamiltonian, 3, kepler3.system)
        assert fn(0.0, np.array([1.0, 0, 0, 0, 1.0, 0])) == -0.5

    def test_singular_point(self):
        fn = compile_expression(1 / q, 1)
        with pytest.raises(SingularityAbort):
            fn(0.0, np.array([0.0, 1.0]))

    def test_unbound_parameter(self, kepler3):
        with pytest.raises(HamsymError):
            compile_expression(kepler3.system.hamiltonian, 3)

    def test_jet_symbols_rejected(self):
        from hamsym.expressions import coord_deriv

        with pytest.raises(HamsymError):
            compile_expression(coord_deriv(1), 1)

    @pytest.mark.parametrize(
        "expression,n",
        [
            ((p**2 + 1 / q**2) / 2, 1),
            (sp.atan(p / q) + TIME, 1),
            (sp.sqrt(coord(1) ** 2 + coord(2) ** 2) * momentum(2) - TIME / coord(2), 2),
        ]
        # one input per supported function, on an argument in (0, 1.3] where
        # each is well conditioned
        + [(f((q**2 + p**2 + TIME**2) / 10) * p, 1) for f in FUNCTIONS.values()],
    )
    def test_agrees_with_evaluate(self, expression, n):
        # the reference is sympy's own 30-digit evalf, independent of the
        # compile step that compiled evaluation and evaluate share
        fn = compile_expression(expression, n)
        symbols = [TIME] + [coord(i) for i in range(1, n + 1)] + [momentum(i) for i in range(1, n + 1)]
        rng = Random(17)
        for _ in range(100):
            point = sample_point(symbols, rng)
            state = np.array([point[s] for s in symbols[1:]])
            a = fn(point[TIME], state)
            b = float(expression.evalf(30, subs=point))
            assert abs(a - b) <= 1e-14 * max(1.0, abs(b))

    @pytest.mark.parametrize("name", ["example1", "kepler3"])
    def test_fused_rhs_agrees_with_each_equation(self, name, request):
        system = request.getfixturevalue(name).system
        n = system.n
        qdot, pdot = canonical_equations(system)
        separate = [compile_expression(e, n, system) for e in (*qdot, *pdot)]
        fused = _rhs_function(system)
        symbols = [coord(i) for i in range(1, n + 1)] + [momentum(i) for i in range(1, n + 1)]
        rng = Random(23)
        for _ in range(100):
            point = sample_point(symbols, rng)
            state = [point[s] for s in symbols]
            t = rng.uniform(-2.0, 2.0)
            for a, f in zip(fused(t, state), separate):
                b = f(t, np.array(state))
                assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


class TestIntegratorConfig:
    def test_bad_step(self):
        with pytest.raises(IntegrationError):
            IntegratorConfig(h=0.0)

    def test_bad_interval(self):
        with pytest.raises(IntegrationError):
            IntegratorConfig(t0=1.0, t1=0.5)

    def test_bad_method(self):
        with pytest.raises(IntegrationError):
            IntegratorConfig(method="euler")


class TestIntegrate:
    def test_oscillator_period_return(self, oscillator):
        config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=2 * math.pi)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        assert np.max(np.abs(trajectory.states[-1] - np.array([1.0, 0.0]))) <= 1e-9

    def test_closed_form_orbit_relation(self, example1):
        # along q'' = 1/q^3 from (1, 0): a*q^2 + (a*t - b)^2 + 1 = 0 with
        # a = 2*I(X1), b = I(X2) evaluated at the initial point
        I1 = first_integral(example1.system, example1.symmetry("X1"), seed=SEED)
        I2 = first_integral(example1.system, example1.symmetry("X2"), seed=SEED)
        f1 = compile_expression(I1.expression, 1)
        f2 = compile_expression(I2.expression, 1)
        a = 2 * f1(0.0, np.array([1.0, 0.0]))
        b = f2(0.0, np.array([1.0, 0.0]))
        config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=1.0)
        trajectory = integrate(example1.system, [1.0, 0.0], config)
        residual = a * trajectory.states[:, 0] ** 2 + (a * trajectory.times - b) ** 2 + 1
        assert np.max(np.abs(residual)) <= 1e-8

    def test_wrong_state_length(self, example1):
        with pytest.raises(IntegrationError):
            integrate(example1.system, [1.0], IntegratorConfig())

    def test_singularity_abort_reports_time(self):
        # the momentum equation has a domain boundary at q = 0, which this
        # trajectory crosses before t = 2
        system = HamiltonianSystem(n=1, hamiltonian=p**2 / 2 + sp.sqrt(q), singularities=(q,))
        config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=2.0)
        with pytest.raises(SingularityAbort) as info:
            integrate(system, [1.0, -2.0], config)
        assert 0.0 < info.value.time_reached < 2.0

    def test_deterministic(self, oscillator):
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        a = integrate(oscillator.system, [1.0, 0.0], config)
        b = integrate(oscillator.system, [1.0, 0.0], config)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.times, b.times)

    def test_complex_power_aborts(self):
        # the momentum equation holds q1**(3/2), which is complex on a
        # negative float; q1 turns negative before t = 1
        system = HamiltonianSystem(n=1, hamiltonian=p**2 / 2 + q ** sp.Rational(5, 2))
        config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=1.0)
        with pytest.raises(SingularityAbort) as info:
            integrate(system, [1.0, -3.0], config)
        assert 0.0 < info.value.time_reached < 1.0

    @pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
    def test_matches_per_stage_reference(self, example1, method):
        config = IntegratorConfig(method=method, h=1e-3, t1=1.0)
        trajectory = integrate(example1.system, [1.0, 0.0], config)
        assert np.array_equal(trajectory.states, _reference_states(example1.system, [1.0, 0.0], config))


def _reference_states(system, state0, config):
    """One array per stage and one compiled function per equation, with the
    same compensated accumulation of the state as `integrate`."""
    qdot, pdot = canonical_equations(system)
    compiled = [compile_expression(e, system.n, system) for e in (*qdot, *pdot)]

    def rhs(t, y):
        return np.array([f(t, y) for f in compiled])

    steps = config.steps
    h = (config.t1 - config.t0) / steps
    y = np.array(state0)
    carry = np.zeros_like(y)
    states = [y]
    for k in range(steps):
        t = config.t0 + h * k
        if config.method == "rk4":
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            step = h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            stage = rhs(t + h / 2, y)
            for _ in range(config.fixed_point_max_iter):
                stage_next = rhs(t + h / 2, y + h / 2 * stage)
                delta = np.max(np.abs(stage_next - stage))
                stage = stage_next
                if delta <= config.fixed_point_tol:
                    break
            step = h * stage
        increment = step - carry
        updated = y + increment
        carry = (updated - y) - increment
        y = updated
        states.append(y)
    return np.array(states)


class TestDrift:
    def test_constant_integral_exact_zero(self, oscillator):
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        report = drift(oscillator.system, [FirstIntegral("one", sp.Integer(1))], trajectory)
        assert report.entry("one").max_abs == 0.0

    def test_example1_triple(self, example1):
        integrals = [
            first_integral(
                example1.system, X, v=(q**2 / 2 if X.name == "X3" else None), seed=SEED
            )
            for X in example1.symmetries
        ]
        config = IntegratorConfig(method="rk4", h=1e-3, t1=1.0)
        trajectory = integrate(example1.system, [1.0, 0.0], config)
        report = drift(example1.system, integrals, trajectory)
        for entry in report.entries:
            assert entry.relative <= 1e-10, entry

    def test_kepler_near_circular(self, kepler3):
        system = kepler3.system
        integrals = [FirstIntegral("H", system.hamiltonian)]
        for (i, j), name in (((1, 2), "L3"), ((1, 3), "L2"), ((2, 3), "L1")):
            integrals.append(
                FirstIntegral(name, coord(i) * momentum(j) - coord(j) * momentum(i))
            )
        config = IntegratorConfig(method="rk4", h=1e-3, t1=2 * math.pi)
        trajectory = integrate(system, [1.0, 0, 0, 0, 1.0, 0], config)
        report = drift(system, integrals, trajectory)
        for entry in report.entries:
            assert entry.relative <= 1e-8, entry

    def test_modulo_folds_branch_jumps(self, oscillator):
        angle = FirstIntegral("angle", sp.atan(p / q) + TIME)
        config = IntegratorConfig(method="rk4", h=1e-3, t1=2 * math.pi)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        raw = drift(oscillator.system, [angle], trajectory)
        folded = drift(oscillator.system, [angle], trajectory, modulo=math.pi)
        # arctan jumps by pi at each zero crossing of q; folding removes it
        assert raw.entry("angle").max_abs > 3.0
        assert folded.entry("angle").max_abs <= 1e-9

    def test_series_kept_on_request(self, oscillator):
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        report = drift(
            oscillator.system,
            [FirstIntegral("H", oscillator.system.hamiltonian)],
            trajectory,
            keep_series=True,
        )
        assert report.entry("H").series is not None
        assert len(report.entry("H").series) == len(trajectory.times)

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_array_values_agree_with_scalar_evaluator(self, oscillator, name):
        # numpy and math may round differently; a few ulps at most
        e = FUNCTIONS[name](2 + q * p / 3 + TIME / 5) * p + 1 / (2 - q)
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        scalar = compile_expression(e, 1)
        expected = np.array([scalar(t, y) for t, y in zip(trajectory.times, trajectory.states)])
        values = _values_along(e, oscillator.system, trajectory)
        assert np.all(np.abs(values - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    def test_singular_sample_aborts_at_its_time(self, oscillator):
        # q1 = cos(t) turns negative after pi/2, past the first block of
        # rows that drift evaluates at once
        config = IntegratorConfig(method="rk4", h=1e-4, t1=2.0)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        root = FirstIntegral("root", sp.sqrt(q))
        with pytest.raises(SingularityAbort) as info:
            drift(oscillator.system, [root], trajectory)
        first_negative = int(np.argmax(trajectory.states[:, 0] < 0))
        assert first_negative > DRIFT_BLOCK
        assert info.value.time_reached == trajectory.times[first_negative]

    def test_pole_under_bounded_function_aborts(self, oscillator):
        # numpy gives arctan(inf) = pi/2 at q1 = 0 without a non-finite
        # value; the scalar evaluator raises, as a pole should
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        trajectory = integrate(oscillator.system, [0.0, 1.0], config)
        with pytest.raises(SingularityAbort) as info:
            drift(oscillator.system, [FirstIntegral("angle", sp.atan(1 / q))], trajectory)
        assert info.value.time_reached == 0.0


class TestImplicitMidpoint:
    def test_quadratic_invariant_preserved(self, oscillator):
        config = IntegratorConfig(method="implicit_midpoint", h=1e-2, t1=10.0)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        report = drift(oscillator.system, [FirstIntegral("H", oscillator.system.hamiltonian)], trajectory)
        assert report.entry("H").max_abs <= 1e-10

    def test_nonconvergence_reported(self, example1):
        config = IntegratorConfig(
            method="implicit_midpoint", h=1e-2, t1=1.0, fixed_point_max_iter=1
        )
        with pytest.raises(IntegrationError):
            integrate(example1.system, [1.0, 0.0], config)


class TestConvergenceOrder:
    def test_rk4_on_kepler_energy(self, kepler3):
        estimate = convergence_order(
            kepler3.system,
            [1.0, 0, 0, 0, 1.2, 0],
            IntegratorConfig(method="rk4", h=0.02, t1=3.0),
            FirstIntegral("H", kepler3.system.hamiltonian),
        )
        assert not estimate.inconclusive
        assert abs(estimate.order - 4.0) <= 0.3

    def test_rk4_order_on_example1(self, example1):
        I1 = first_integral(example1.system, example1.symmetry("X1"), seed=SEED)
        estimate = convergence_order(
            example1.system, [1.0, 0.0], IntegratorConfig(method="rk4", h=1e-2, t1=1.0), I1
        )
        assert not estimate.inconclusive
        assert estimate.order >= 3.6
        assert estimate.drift_h / estimate.drift_half >= 12.0

    def test_exactly_conserved_is_inconclusive(self, oscillator):
        estimate = convergence_order(
            oscillator.system,
            [1.0, 0.0],
            IntegratorConfig(method="rk4", h=1e-2, t1=1.0),
            FirstIntegral("one", sp.Integer(1)),
        )
        assert estimate.inconclusive and estimate.order is None
