"""Compiled evaluation, fixed-step integration, drift and order estimates."""
import math
import tracemalloc
from dataclasses import replace
from random import Random

import numpy as np
import pytest
import sympy as sp

import hamsym.dynamics
from hamsym.dynamics import (
    DRIFT_BLOCK,
    METHODS,
    IntegrationError,
    IntegratorConfig,
    SingularityAbort,
    Trajectory,
    _blocks_along,
    _loop,
    _rhs_function,
    compile_expression,
    convergence_order,
    drift,
    integrate,
)
from hamsym.expressions import FUNCTIONS, TIME, coord, momentum, sample_point
from hamsym.noether import canonical_equations, first_integral
from hamsym.systems import FirstIntegral, HamiltonianSystem, HamsymError, SystemDefinition

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
        # a pole, and a value that is not a finite real: the float power of
        # a negative base
        for e, q1, message in ((1 / q, 0.0, "singular evaluation"), (q ** sp.Rational(1, 3), -1.0, "non-finite value")):
            with pytest.raises(SingularityAbort, match=message):
                compile_expression(e, 1)(0.0, np.array([q1, 1.0]))

    def test_unbound_parameter(self, kepler3):
        # parameters are bound by the time an expression is compiled
        with pytest.raises(HamsymError, match="compiled expression references undeclared parameter K"):
            compile_expression(kepler3.system.hamiltonian, 3)

    def test_jet_symbols_rejected(self):
        from hamsym.expressions import coord_deriv

        with pytest.raises(HamsymError, match="compiled expression must not contain jet symbols"):
            compile_expression(coord_deriv(1), 1)

    def test_index_outside_dimension(self):
        with pytest.raises(HamsymError, match="q2 outside dimension 1"):
            compile_expression(coord(2), 1)

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
            for a, f in zip(fused(t, *state), separate):
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

    def test_trajectory_pairs_each_time_with_a_state(self):
        with pytest.raises(IntegrationError, match="lengths differ"):
            Trajectory(times=np.zeros(3), states=np.zeros((2, 2)))

    def test_an_empty_trajectory_is_refused(self, oscillator):
        # drift reads the first sample as its reference, so a trajectory has one
        with pytest.raises(IntegrationError, match="at least one sample"):
            Trajectory(times=np.zeros(0), states=np.zeros((0, 2)))
        H = FirstIntegral("H", oscillator.system.hamiltonian)
        report = drift(oscillator.system, [H], Trajectory(times=np.zeros(1), states=np.array([[1.0, 0.0]])))
        assert report.entries[0].max_abs == 0.0

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

    def test_times_are_t0_plus_k_steps(self, oscillator):
        # built in place, the grid keeps the bits of t0 + step*k
        config = IntegratorConfig(method="rk4", h=0.007, t0=0.3, t1=1.7)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        expected = config.t0 + config.step * np.arange(config.steps + 1)
        assert trajectory.times.dtype == expected.dtype and trajectory.times.tobytes() == expected.tobytes()

    def test_complex_power_aborts(self):
        # the momentum equation holds q1**(3/2), which is complex on a
        # negative float; q1 turns negative before t = 1
        system = HamiltonianSystem(n=1, hamiltonian=p**2 / 2 + q ** sp.Rational(5, 2))
        config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=1.0)
        with pytest.raises(SingularityAbort) as info:
            integrate(system, [1.0, -3.0], config)
        assert 0.0 < info.value.time_reached < 1.0

    @pytest.mark.parametrize(
        "name, state0, method",
        # example1 keeps the bare method ids; kepler3 is n = 3 with the bound
        # parameter K and a radical, off the plane so every component moves
        [pytest.param("example1", [1.0, 0.0], m, id=m) for m in METHODS]
        + [
            pytest.param(name, state0, m, id=f"{name}-{m}")
            for name, state0 in (
                ("oscillator", [1.0, 0.0]),
                ("kepler3", [1.0, 0.2, -0.1, 0.1, 1.1, 0.3]),
                ("driven", [1.0, 0.2, -0.1, 0.9]),
            )
            for m in METHODS
        ],
    )
    def test_matches_per_stage_reference(self, name, state0, method, request):
        system = request.getfixturevalue(name).system
        config = IntegratorConfig(method=method, h=1e-3, t1=1.0)
        trajectory = integrate(system, state0, config)
        assert np.array_equal(trajectory.states, _reference_states(system, state0, config))

    @pytest.mark.parametrize(
        "hamiltonian, state0, method, t1, message, time_reached",
        [
            # sqrt(q) leaves its domain in a stage; the time is the stage time
            (p**2 / 2 + sp.sqrt(q), [1.0, -2.0], "rk4", 2.0,
             "singular evaluation of the canonical equations: math domain error", 0.465),
            (p**2 / 2 + sp.sqrt(q), [1.0, -2.0], "implicit_midpoint", 2.0,
             "singular evaluation of the canonical equations: math domain error", 0.4655),
            # q**(3/2) is complex on a negative float
            (p**2 / 2 + q ** sp.Rational(5, 2), [1.0, -3.0], "rk4", 1.0,
             "non-finite value of the canonical equations", 0.3105),
            (p**2 / 2 + q ** sp.Rational(5, 2), [1.0, -3.0], "implicit_midpoint", 1.0,
             "non-finite value of the canonical equations", 0.3105),
            # a free particle pushed past the largest float; the time is the step's start
            (p**2 / 2, [1.79e308, 1e307], "rk4", 1.0, "non-finite state", 0.076),
            (p**2 / 2, [1.79e308, 1e307], "implicit_midpoint", 1.0, "non-finite state", 0.076),
            # a stage overflows to inf without raising, in the first stage and
            # in the third: the unchecked step fails its increment test and
            # the checked replay names that stage
            (p**2 / 2 + 10**300 * q**3, [1e5, 0.0], "rk4", 1.0, "non-finite value of the canonical equations", 0.0),
            (p**2 / 2 + 10**300 * q**2 / 2, [1.0, 0.0], "rk4", 1.0, "non-finite value of the canonical equations", 0.0005),
        ],
    )
    def test_abort_message_and_time(self, hamiltonian, state0, method, t1, message, time_reached):
        config = IntegratorConfig(method=method, h=1e-3, t1=t1)
        _assert_aborts(HamiltonianSystem(n=1, hamiltonian=hamiltonian), state0, config, message, time_reached)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "hamiltonian, state0, h, t1, messages, times",
        [
            # n = 2 with a cse temporary, sqrt(q1 - q2), that leaves its domain
            pytest.param(
                (momentum(1) ** 2 + momentum(2) ** 2) / 2 + q * sp.sqrt(q - coord(2)), [1.0, 0.0, -2.0, 1.0], 1e-3, 2.0,
                ("math domain error",) * 2, (0.306, 0.3065), id="cse-domain",
            ),
            # a pole in t that a stage time hits exactly (h = 1/4): RK4's k2
            # stage at t = 1/4, and the midpoint stage
            pytest.param(
                p**2 / 2 + q / (TIME - sp.Rational(3, 8)), [1.0, 0.0], 0.25, 1.0,
                ("float division by zero",) * 2, (0.375, 0.375), id="time-pole",
            ),
            # log(1/2 - t) at RK4's k4 stage time t + h = 1/2
            pytest.param(
                p**2 / 2 + q * sp.log(sp.Rational(1, 2) - TIME), [1.0, 0.0], 1e-3, 1.0,
                ("math domain error",) * 2, (0.5, 0.5005), id="time-log",
            ),
        ],
    )
    def test_stage_abort_message_and_time(self, hamiltonian, state0, h, t1, messages, times, method):
        # the abort names the stage time of the stage that failed
        which = METHODS.index(method)
        _assert_aborts(
            HamiltonianSystem(n=len(state0) // 2, hamiltonian=hamiltonian),
            state0,
            IntegratorConfig(method=method, h=h, t1=t1),
            f"singular evaluation of the canonical equations: {messages[which]}",
            times[which],
        )

    def test_loop_built_once_per_system_and_method(self, example1, oscillator, monkeypatch):
        compiled = _count_compiles(monkeypatch)
        rk4 = IntegratorConfig(method="rk4", h=1e-2, t1=0.1)
        first = integrate(example1.system, [1.0, 0.0], rk4)
        assert _loop.cache_info().misses == 1 and compiled == [(2, False)]
        # a second integrate of the same system compiles nothing
        again = integrate(example1.system, [1.0, 0.0], rk4)
        assert _loop.cache_info().misses == 1 and compiled == [(2, False)]
        assert np.array_equal(first.states, again.states)
        integrate(example1.system, [1.0, 0.0], replace(rk4, method="implicit_midpoint"))
        assert _loop.cache_info().misses == 2 and compiled == [(2, False)]
        # the same method and dimension, another right-hand side
        integrate(oscillator.system, [1.0, 0.0], rk4)
        assert _loop.cache_info().misses == 3 and compiled == [(2, False)] * 2

    def test_loop_refuses_a_name_of_the_right_hand_side(self, kepler3, monkeypatch):
        # a loop that kept its step time in t would hand the stages its own
        # time, and the spliced stages would overwrite it
        template = hamsym.dynamics._LOOP
        monkeypatch.setattr(hamsym.dynamics, "_LOOP", template.replace("tk = times[step]", "t = times[step]"))
        with pytest.raises(RuntimeError, match=r"both use the names \['t'\]"):
            _loop.__wrapped__(_rhs_function(kepler3.system), "rk4")


@pytest.fixture(scope="module")
def driven():
    """n = 2 with an explicit time dependence inside a cse temporary, so each
    stage needs its own time and recomputes the spliced temporary."""
    hamiltonian = (momentum(1) ** 2 + momentum(2) ** 2) / 2 - sp.exp(-TIME / 4) / sp.sqrt(q**2 + coord(2) ** 2 + 1)
    return SystemDefinition(system=HamiltonianSystem(n=2, hamiltonian=hamiltonian), symmetries=())


def _assert_aborts(system, state0, config, message, time_reached):
    with pytest.raises(SingularityAbort) as info:
        integrate(system, state0, config)
    assert str(info.value) == f"{message} (time reached: {time_reached!r})"
    assert info.value.time_reached == time_reached


def _reference_states(system, state0, config):
    """One array per stage, with the same compensated accumulation of the
    state as `integrate`. The stages call the same compiled right-hand side
    on Python floats: cse can round kepler3's equations differently from
    compiling each one alone."""
    fn = _rhs_function(system)

    def rhs(t, y):
        return np.array(fn(t, *map(float, y)))

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
        with pytest.raises(KeyError):
            report.entry("two")

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
        values = np.concatenate(list(_blocks_along(e, oscillator.system, trajectory)))
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
        # in the middle one of three blocks
        assert DRIFT_BLOCK < first_negative < 2 * DRIFT_BLOCK < len(trajectory.times)
        assert info.value.time_reached == trajectory.times[first_negative]

    def test_pole_under_bounded_function_aborts(self, oscillator):
        # numpy gives arctan(inf) = pi/2 at q1 = 0 without a non-finite
        # value; the scalar evaluator raises, as a pole should
        config = IntegratorConfig(method="rk4", h=1e-2, t1=1.0)
        trajectory = integrate(oscillator.system, [0.0, 1.0], config)
        with pytest.raises(SingularityAbort) as info:
            drift(oscillator.system, [FirstIntegral("angle", sp.atan(1 / q))], trajectory)
        assert info.value.time_reached == 0.0

    @pytest.mark.parametrize("modulo", [None, math.pi])
    def test_block_wise_drift_matches_full_arrays(self, oscillator, modulo):
        # two full blocks and a short third, against the whole trajectory
        # evaluated, differenced and folded at once
        config = IntegratorConfig(method="rk4", h=1e-3, t1=17.5)
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        assert 2 * DRIFT_BLOCK < len(trajectory.times) < 3 * DRIFT_BLOCK
        integrals = [
            FirstIntegral("H", oscillator.system.hamiltonian),
            FirstIntegral("angle", sp.atan(p / q) + TIME),
            FirstIntegral("q1", q),
            FirstIntegral("one", sp.Integer(1)),
        ]
        report = drift(oscillator.system, integrals, trajectory, modulo=modulo, keep_series=True)
        for integral in integrals:
            (_,), fn = hamsym.dynamics._compile((integral.expression,), 1, oscillator.system, array=True)
            values = np.empty(len(trajectory.times))
            values[:] = fn(trajectory.times, *trajectory.states.T)[0]
            deltas = values - values[0]
            if modulo is not None:
                deltas = deltas - modulo * np.round(deltas / modulo)
            max_abs = float(np.max(np.abs(deltas)))
            entry = report.entry(integral.name)
            assert entry.max_abs.hex() == max_abs.hex()
            assert entry.relative.hex() == (max_abs / max(1.0, abs(float(values[0])))).hex()
            assert entry.series.tobytes() == deltas.tobytes()
        # a bare coordinate is differenced in a copy, never in the trajectory
        assert trajectory.states[0, 0] == 1.0

    def test_drift_holds_no_full_length_array(self, oscillator):
        steps = 200_000
        times = np.linspace(0.0, 20.0, steps + 1)
        trajectory = Trajectory(times=times, states=np.column_stack((np.cos(times), -np.sin(times))))
        integrals = [FirstIntegral("H", oscillator.system.hamiltonian), FirstIntegral("angle", sp.atan(p / q) + TIME)]
        tracemalloc.start()
        try:
            drift(oscillator.system, integrals, trajectory, modulo=math.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one full-length float64 column
        assert peak < 8 * (steps + 1)


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
        with pytest.raises(IntegrationError) as info:
            integrate(example1.system, [1.0, 0.0], config)
        assert type(info.value) is IntegrationError
        assert str(info.value) == "implicit midpoint did not converge within 1 iterations at t=0.0"


def _count_compiles(monkeypatch) -> list:
    """(expression count, array) of each compile in `dynamics` from now on,
    with the right-hand side and loop memos emptied."""
    compiled = []
    original = hamsym.dynamics.compile_tuple

    def counted(args, exprs, array=False):
        compiled.append((len(exprs), array))
        return original(args, exprs, array)

    monkeypatch.setattr(hamsym.dynamics, "compile_tuple", counted)
    _rhs_function.cache_clear()
    _loop.cache_clear()
    return compiled


def test_right_hand_side_is_compiled_once_per_system(example1, monkeypatch):
    compiled = _count_compiles(monkeypatch)
    config = IntegratorConfig(h=0.01, t1=0.1)
    first = integrate(example1.system, [1.0, 0.0], config)
    assert compiled == [(2, False)]
    again = integrate(example1.system, [1.0, 0.0], config)
    assert compiled == [(2, False)]
    assert np.array_equal(first.states, again.states)


def test_convergence_order_compiles_the_right_hand_side_once(example1, monkeypatch):
    compiled = _count_compiles(monkeypatch)
    convergence_order(
        example1.system, [1.0, 0.0], IntegratorConfig(h=0.01, t1=0.1), FirstIntegral("H", example1.system.hamiltonian)
    )
    # the scalar right-hand side once, then the integral's array form per drift
    assert compiled == [(2, False), (1, True), (1, True)]


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
