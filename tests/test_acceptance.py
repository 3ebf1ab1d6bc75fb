"""Acceptance suite: end-to-end golden checks on the example systems with
pinned tolerances and runtime budgets.

Each test prints a single pass line; a failed assertion marks the criterion
red. Budgets are wall-clock seconds around the computational core.
"""
import math
import time
from random import Random

import numpy as np
import sympy as sp

from hamsym.expressions import TIME, Verdict, coord, is_zero, momentum, simplify
from hamsym.dynamics import IntegratorConfig, convergence_order, drift, integrate
from hamsym.identity import identity_check
from hamsym.noether import (
    check_divergence_invariance,
    check_invariance,
    equation_invariance_direct,
    find_divergence_term,
    first_integral,
    functional_independence,
    on_shell,
    invariance_residual,
    relation_check,
    theorem4_conditions,
    verify_first_integral,
)
from hamsym.parsing import ParseContext, ParseError, format_expression, parse_expression
from hamsym.systems import FirstIntegral

SEED = 42
TOL = 1e-9

q, p = coord(1), momentum(1)


def _passed(number, label):
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_inverse_square_golden(example1):
    start = time.perf_counter()
    system = example1.system

    assert check_invariance(system, example1.symmetry("X1"), seed=SEED, tol=TOL).is_zero
    assert check_invariance(system, example1.symmetry("X2"), seed=SEED, tol=TOL).is_zero

    status, term = find_divergence_term(system, example1.symmetry("X3"), seed=SEED, tol=TOL)
    assert status == "synthesized"
    assert is_zero(term - q**2 / 2, seed=SEED, tol=TOL).is_zero

    integrals = {}
    for X in example1.symmetries:
        v = term if X.name == "X3" else None
        I = first_integral(system, X, v=v, seed=SEED, tol=TOL)
        assert I.verified.is_zero, X.name
        integrals[X.name] = I.expression

    targets = {
        "X1": -(p**2 + 1 / q**2) / 2,
        "X2": p * q - TIME * (p**2 + 1 / q**2),
        "X3": -(TIME**2 / q**2 + (q - TIME * p) ** 2) / 2,
    }
    for name, target in targets.items():
        assert is_zero(integrals[name] - target, singular=(q,), seed=SEED, tol=TOL).is_zero, name

    verdict = relation_check(integrals, example1.relations[0], system, seed=SEED, tol=TOL)
    assert verdict.status in (Verdict.PROVEN, Verdict.NUMERIC)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(1, "inverse-square golden suite")


def test_criterion_2_coulomb_discrimination(coulomb):
    start = time.perf_counter()
    system = coulomb.system
    X1, X2 = coulomb.symmetry("X1"), coulomb.symmetry("X2")

    assert check_invariance(system, X1, seed=SEED, tol=TOL).is_zero
    I1 = first_integral(system, X1, seed=SEED, tol=TOL)
    assert is_zero(I1.expression + (p**2 / 2 + 1 / q), singular=(q,), seed=SEED, tol=TOL).is_zero

    verdict = check_invariance(system, X2, seed=SEED, tol=TOL)
    assert verdict.status == Verdict.NONZERO
    residual = on_shell(system, invariance_residual(system, X2))
    assert is_zero(residual - (p**2 / 2 - 1 / q), singular=(q,), seed=SEED, tol=TOL).is_zero

    status, term = find_divergence_term(system, X2, seed=SEED, tol=TOL)
    assert status == "no-v-exists" and term is None

    assert all(v.is_zero for v in theorem4_conditions(system, X2, seed=SEED, tol=TOL))
    assert all(v.is_zero for v in equation_invariance_direct(system, X2, seed=SEED, tol=TOL))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(2, "Coulomb discrimination")


def test_criterion_3_kepler3_integrals(kepler3):
    start = time.perf_counter()
    system = kepler3.system

    integrals = {}
    for X in kepler3.symmetries:
        if X.name == "X1":
            assert check_invariance(system, X, seed=SEED, tol=TOL).status == Verdict.NONZERO
            status, term = find_divergence_term(system, X, seed=SEED, tol=TOL)
            assert status == "no-v-exists" and term is None
            continue
        I = first_integral(system, X, v=X.v, seed=SEED, tol=TOL)
        assert I.verified.is_zero, X.name
        integrals[X.name] = I

    assert len(integrals) == 7
    expressions = {name: I.expression for name, I in integrals.items()}
    for relation in kepler3.relations:
        verdict = relation_check(expressions, relation, system, seed=SEED, tol=TOL)
        assert verdict.is_zero, relation.name

    rank = functional_independence(list(integrals.values()), system, seed=SEED)
    assert rank == 5

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(3, "Kepler 3D integrals, relations and rank")


def test_criterion_4_kepler2_restriction(kepler2):
    start = time.perf_counter()
    system = kepler2.system

    integrals = {}
    for X in kepler2.symmetries:
        I = first_integral(system, X, v=X.v, seed=SEED, tol=TOL)
        assert I.verified.is_zero, X.name
        integrals[X.name] = I.expression

    # X0 yields -H, so energy itself is conserved too
    assert simplify(system.bind(integrals["X0"] + system.hamiltonian)) == 0

    verdict = relation_check(integrals, kepler2.relations[0], system, seed=SEED, tol=TOL)
    assert verdict.is_zero

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _passed(4, "planar Kepler restriction")


def test_criterion_5_identity_property_suite():
    start = time.perf_counter()
    for n in (1, 2, 3):
        report = identity_check(n, degree=3, count=10, seed=SEED, tol=TOL)
        assert report.passed, report.failures()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(5, "identity property suite")


def test_criterion_6_oscillator_time_dependent_integral(oscillator):
    system = oscillator.system
    angle = sp.atan(p / q) + TIME
    assert verify_first_integral(system, angle, seed=SEED, tol=TOL).is_zero

    config = IntegratorConfig(method="rk4", h=1e-3, t0=0.0, t1=2 * math.pi)
    trajectory = integrate(system, [1.0, 0.0], config)
    # the integral is angle-valued: arctan branch jumps of pi occur at the
    # q = 0 crossings, so drift is measured on the circle of circumference pi
    report = drift(system, [FirstIntegral("angle", angle)], trajectory, modulo=math.pi)
    assert report.entry("angle").relative <= 1e-9
    _passed(6, "oscillator time-dependent integral")


def test_criterion_7_numeric_convergence(example1, kepler3, oscillator):
    I1 = first_integral(example1.system, example1.symmetry("X1"), seed=SEED, tol=TOL)
    estimate = convergence_order(
        example1.system, [1.0, 0.0], IntegratorConfig(method="rk4", h=1e-2, t1=1.0), I1
    )
    assert not estimate.inconclusive
    assert estimate.drift_h / estimate.drift_half >= 12.0
    assert estimate.order >= 3.6

    energy = FirstIntegral("H", kepler3.system.hamiltonian)
    estimate = convergence_order(
        kepler3.system, [1.0, 0, 0, 0, 1.2, 0], IntegratorConfig(method="rk4", h=0.02, t1=3.0), energy
    )
    assert not estimate.inconclusive
    assert estimate.drift_h / estimate.drift_half >= 12.0
    assert estimate.order >= 3.6

    # implicit midpoint: oscillator energy stays bounded (no secular growth)
    osc_energy = FirstIntegral("H", oscillator.system.hamiltonian)
    drifts = {}
    for periods in (10, 100):
        config = IntegratorConfig(
            method="implicit_midpoint",
            h=1e-2,
            t0=0.0,
            t1=2 * math.pi * periods,
            fixed_point_tol=1e-14,
            fixed_point_max_iter=200,
        )
        trajectory = integrate(oscillator.system, [1.0, 0.0], config)
        drifts[periods] = drift(oscillator.system, [osc_energy], trajectory).entry("H").relative
    assert drifts[100] <= 2 * drifts[10], drifts
    assert drifts[100] <= 5e-15  # bounded at the rounding floor, not merely slow
    _passed(7, "numeric convergence and symplectic boundedness")


def test_criterion_8_parser_round_trip_fuzz():
    from test_parsing import _random_expression

    ctx = ParseContext(n=2, parameters=frozenset({"K"}))
    rng = Random(SEED)
    for k in range(1000):
        e = _random_expression(rng)
        text = format_expression(e)
        parsed = parse_expression(text, ctx)
        # re-parsing may re-associate rational coefficients across products;
        # require the value, not the tree shape, to survive the round trip
        assert parsed == e or sp.expand(parsed - e) == 0, f"case {k}: {text!r}"

    alphabet = "qp0123456789tdK+-*/^()., \nabcxyz\"[]{}=\x00\x7fπ√"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        try:
            parse_expression(text, ctx)
        except ParseError:
            pass
    _passed(8, "parser round-trip and fuzz")


def test_criterion_9_iff_consistency(example1, coulomb, oscillator, kepler2, kepler3):
    negatives = []
    for defn in (example1, coulomb, oscillator, kepler2, kepler3):
        system = defn.system
        for X in defn.symmetries:
            if X.v is not None:
                invariant = check_divergence_invariance(system, X, X.v, seed=SEED, tol=TOL).is_zero
                v = X.v
            elif check_invariance(system, X, seed=SEED, tol=TOL).is_zero:
                invariant, v = True, None
            else:
                status, term = find_divergence_term(system, X, seed=SEED, tol=TOL)
                invariant = status in ("zero", "synthesized")
                v = term
            constructed = first_integral(system, X, v=v, force=True, seed=SEED, tol=TOL)
            assert invariant == constructed.verified.is_zero, X.name
            if not invariant:
                negatives.append(X.name)
    # the two documented non-Noether symmetries must appear as negatives
    assert sorted(negatives) == ["X1", "X2"]
    _passed(9, "invariance iff verified integral")
