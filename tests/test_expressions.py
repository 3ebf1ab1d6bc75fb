"""Expression-layer unit tests: derivatives, canonicalization, evaluation
and the two-tier zero test."""
import math
from random import Random

import pytest
import sympy as sp
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

import hamsym.expressions
from hamsym.expressions import (
    MAX_SAMPLE_ATTEMPTS,
    TIME,
    ExpressionError,
    JetOrderError,
    SingularEvaluationError,
    UnboundSymbolError,
    Verdict,
    algebra_lift,
    coord,
    coord_deriv,
    derive_seed,
    evaluate,
    is_zero,
    jet_algebra,
    jet_field,
    jet_order,
    jet_ring,
    momentum,
    momentum_deriv,
    parameter,
    partial_diff,
    random_polynomial,
    sample_point,
    simplify,
    to_expr,
    total_derivative,
)
from hamsym.noether import verify_first_integral

q, p = coord(1), momentum(1)
dq, dp = coord_deriv(1), momentum_deriv(1)


class TestPartialDiff:
    def test_polynomial_rule(self):
        assert simplify(partial_diff(p**2 + 1 / q**2, p) - 2 * p) == 0

    def test_quadratic(self):
        assert partial_diff(q**2 / 2, q) == q

    def test_arctan_symbolic(self):
        d = partial_diff(sp.atan(p / q), p)
        assert simplify(d - q / (p**2 + q**2)) == 0

    def test_arctan_finite_differences(self):
        d = partial_diff(sp.atan(p / q), p)
        rng = Random(7)
        for _ in range(20):
            point = sample_point({q, p}, rng)
            h = 1e-6
            up = dict(point)
            down = dict(point)
            up[p] = point[p] + h
            down[p] = point[p] - h
            central = (evaluate(sp.atan(p / q), up) - evaluate(sp.atan(p / q), down)) / (2 * h)
            exact = evaluate(d, point)
            assert abs(central - exact) <= 1e-7 * max(1.0, abs(exact))

    def test_commutation(self):
        rng = Random(3)
        for _ in range(10):
            e = random_polynomial([TIME, q, p, dq], 3, rng)
            ab = partial_diff(partial_diff(e, q), p)
            ba = partial_diff(partial_diff(e, p), q)
            assert simplify(ab - ba) == 0


class TestTotalDerivative:
    def test_half_square(self):
        assert simplify(total_derivative(q**2 / 2) - q * dq) == 0

    def test_constant(self):
        assert total_derivative(sp.Rational(5, 3)) == 0

    def test_product_rule(self):
        assert simplify(total_derivative(p * q) - (dp * q + p * dq)) == 0

    def test_first_order_input_gives_second_order_output(self):
        assert jet_order(total_derivative(dq * q)) == 2

    def test_rejects_second_order_input(self):
        with pytest.raises(JetOrderError):
            total_derivative(coord_deriv(1, 2) * q)

    def test_derivative_symbol_order_cap(self):
        with pytest.raises(JetOrderError):
            coord_deriv(1, 3)
        with pytest.raises(JetOrderError):
            momentum_deriv(1, 0)

    def test_linearity(self):
        rng = Random(11)
        for _ in range(10):
            a = sp.Rational(rng.randint(-5, 5), rng.randint(1, 5))
            b = sp.Rational(rng.randint(-5, 5), rng.randint(1, 5))
            e1 = random_polynomial([TIME, q, p], 3, rng)
            e2 = random_polynomial([TIME, q, p], 3, rng)
            diff = total_derivative(a * e1 + b * e2) - a * total_derivative(e1) - b * total_derivative(e2)
            assert simplify(diff) == 0

    def test_leibniz(self):
        rng = Random(12)
        for _ in range(10):
            e1 = random_polynomial([TIME, q, p], 3, rng)
            e2 = random_polynomial([TIME, q, p], 3, rng)
            diff = total_derivative(e1 * e2) - e1 * total_derivative(e2) - e2 * total_derivative(e1)
            assert simplify(diff) == 0


class TestJetRing:
    """partial_diff, total_derivative and simplify on jet-ring elements agree
    with the same operations on Expr."""

    def test_derivatives_agree_with_expr(self):
        ring = jet_ring(1)
        rng = Random(13)
        for _ in range(10):
            e = random_polynomial([TIME, q, p, dq, dp], 3, rng)
            element = ring.from_expr(e)
            for s in (TIME, q, p, dq, coord_deriv(1, 2), sp.Symbol("k", real=True)):
                assert partial_diff(element, s).as_expr() == simplify(partial_diff(e, s))
            assert total_derivative(element).as_expr() == simplify(total_derivative(e))

    def test_jet_order(self):
        ring = jet_ring(2)
        assert jet_order(ring.from_expr(TIME * coord(2))) == 0
        assert jet_order(total_derivative(ring.from_expr(dq * q))) == 2
        assert jet_order(ring.zero) == 0

    def test_rejects_second_order_input(self):
        with pytest.raises(JetOrderError):
            total_derivative(jet_ring(1).from_expr(coord_deriv(1, 2) * q))

    def test_simplify_keeps_element(self):
        element = jet_ring(1).from_expr(q**2 - p)
        assert simplify(element) is element


class TestJetField:
    """Rational functions over QQ with one generator u per radical b^(1/m):
    the arithmetic treats u as free, derivatives follow the chain rule
    du/dx = u*(db/dx)/(m*b), and the zero test applies u^m = b."""

    r = sp.sqrt(q**2 + p**2)

    def test_derivatives_agree_with_expr(self):
        cube_root = (q**2 + 1) ** sp.Rational(1, 3)
        for e in (1 / q**2 + p * dq, self.r**3 / (q - p) + dp * self.r, cube_root * TIME / self.r):
            _, (element,) = jet_algebra(1, [e])
            assert isinstance(element, FracElement)
            for s in (TIME, q, p, dq, dp):
                assert sp.cancel(to_expr(partial_diff(element, s)) - partial_diff(e, s)) == 0
            assert sp.cancel(to_expr(total_derivative(element)) - total_derivative(e)) == 0

    def test_relation_proves_zero(self):
        # u^2 - q^2 - p^2 is not zero as a rational function of u, q and p
        _, (element,) = jet_algebra(1, [(self.r + q) * (self.r - q) - p**2])
        assert element != 0 and is_zero(element).status == Verdict.PROVEN

    def test_an_element_defined_nowhere_is_inconclusive(self):
        # u = |q1 + q2|: a is defined where q1 + q2 < 0 and b where q1 + q2 > 0,
        # so a*b's denominator reduces to 0 and its free form is 1/0
        q1, q2 = coord(1), coord(2)
        u = sp.sqrt(sp.expand((q1 + q2) ** 2))
        _, (a, b) = jet_algebra(2, [1 / (u - q1 - q2), 1 / (u + q1 + q2)])
        assert is_zero(a).status == is_zero(b).status == Verdict.NONZERO
        assert is_zero(a * b).status == Verdict.INCONCLUSIVE

    def test_square_root_of_a_square_is_never_proven_zero(self):
        # sympy writes sqrt(q^2) as Abs(q), which no exact algebra holds
        assert jet_algebra(1, [sp.sqrt(q**2) - q]) is None
        assert is_zero(sp.sqrt(q**2) - q).status == Verdict.NONZERO
        # an expanded square keeps its radical; u = -(q + p) also solves u^2 = b
        e = sp.sqrt(sp.expand((q + p) ** 2)) - (q + p)
        _, (element,) = jet_algebra(1, [e])
        assert isinstance(element, FracElement)
        assert is_zero(element).status == Verdict.NONZERO
        assert is_zero(e).status == Verdict.NONZERO

    def test_nested_radicals_and_functions_fall_back_to_sampling(self):
        nested = sp.sqrt(2 + sp.sqrt(q)) * sp.sqrt(2 - sp.sqrt(q)) - sp.sqrt(4 - q)
        pythagoras = sp.sin(q) ** 2 + sp.cos(q) ** 2 - 1
        for e in (nested, pythagoras):
            assert jet_algebra(1, [e]) is None
            assert is_zero(e).status == Verdict.NUMERIC

    def test_algebra_choice(self):
        k = sp.Symbol("k", real=True)
        assert isinstance(jet_algebra(1, [q**2 * p, dq])[1][0], PolyElement)
        assert isinstance(jet_algebra(1, [q**2 * p, 1 / q])[1][0], FracElement)
        assert jet_algebra(1, [q * k]) is None  # an unbound parameter
        assert isinstance(jet_algebra(1, [q * k], (k,))[1][0], PolyElement)
        assert isinstance(jet_algebra(1, [p**2 / k + 1 / sp.sqrt(q**2 + 1)], (k,))[1][0], FracElement)
        assert jet_algebra(1, [sp.sqrt(k * q**2 + 1)], (k,)) is None  # u^2 = b would keep k
        assert jet_algebra(1, [sp.Float(0.5) * q]) is None

    def test_a_base_whose_root_is_no_radical_has_no_field(self):
        # sympy writes (q^2)^(1/2) as Abs(q); only an unevaluated input keeps
        # the power, and its field would have Abs(q) as a free generator
        with pytest.raises(ValueError, match="does not stay a radical"):
            jet_field(1, ((q**2, 2),))
        assert jet_algebra(1, [sp.Pow(q**2, sp.Rational(1, 2), evaluate=False)]) is None


class TestGeneratorTable:
    """Generators are looked up by Symbol: a generator lifts to the very
    generator, and the derivatives by generator index agree with sympy's."""

    def _check(self, algebra, exprs):
        lift = algebra_lift(algebra.one)
        for s, gen in zip(algebra.symbols, algebra.gens):
            assert jet_order(gen) == jet_order(s)  # the order-2 jets included
            if s.is_Symbol:
                assert lift(s) is gen
        with pytest.raises(ValueError):
            lift(sp.Symbol("q1"))  # not hamsym's real q1
        symbols = [coord(1), coord(2), coord(3), momentum_deriv(3), coord_deriv(1, 2), TIME]
        for e in exprs:
            element = lift(e)
            # the exact and the Expr branch of jet_order agree, up to order 2
            for f in (e, e * coord_deriv(1, 2) + momentum_deriv(2)):
                assert jet_order(lift(f)) == jet_order(f)
            # equal in the algebra, a field's radical relation applied
            for s in symbols:
                assert is_zero(partial_diff(element, s) - lift(sp.diff(e, s))).status == Verdict.PROVEN
            assert is_zero(total_derivative(element) - lift(total_derivative(e))).status == Verdict.PROVEN

    def test_jet_ring(self):
        ring, rng = jet_ring(3), Random(23)
        symbols = [s for s in ring.symbols if jet_order(s) < 2]
        self._check(ring, [random_polynomial(symbols, 3, rng) for _ in range(4)])

    def test_kepler3_field(self, kepler3):
        sys_, rng = kepler3.system, Random(29)
        _, (H,) = jet_algebra(3, [sys_.hamiltonian], tuple(map(parameter, sys_.parameters)))
        field = H.field
        r = field.symbols[0]  # the one radical, |q|
        assert r.is_Pow and parameter("K") in field.symbols
        symbols = [s for s in field.symbols[1:] if jet_order(s) < 2]
        elements = [
            random_polynomial(symbols, 2, rng) + random_polynomial(symbols, 2, rng) * r / (r**2 + 1)
            for _ in range(3)
        ]
        self._check(field, elements)


class TestSimplify:
    def test_like_terms(self):
        assert simplify(p**2 - p**2 / 2 - p**2 / 2) == 0

    def test_zero_terms(self):
        assert simplify(1 / q**2 - 1 / q**2 + 0 * TIME) == 0

    def test_power_quotient(self):
        out = simplify(q / q**3)
        assert out == q**-2
        rng = Random(5)
        for _ in range(20):
            point = sample_point({q}, rng)
            assert math.isclose(evaluate(out, point), evaluate(q**-2, point), rel_tol=1e-12)

    def test_idempotent(self):
        for e in (q / q**3, (p**2 + 1 / q**2) / 2, sp.sqrt(q**2 + p**2) ** 3 / (q**2 + p**2)):
            once = simplify(e)
            assert simplify(once) == once

    def test_radical_quotient(self):
        r = sp.sqrt(q**2 + p**2)
        assert simplify(1 / r - r / (q**2 + p**2)) == 0

    @pytest.mark.parametrize(
        "make",
        [
            # 1/(u + 1) + 1/(u - 1) = 2u/(u^2 - 1) with u^2 = b
            lambda b: 1 / (sp.sqrt(b) + 1) + 1 / (sp.sqrt(b) - 1) - 2 * sp.sqrt(b) / (b - 1),
            # b^(1/2) and b^(1/3) are powers of one generator b^(1/6)
            lambda b: (sp.sqrt(b) + sp.cbrt(b)) / sp.cbrt(b) - (b ** sp.Rational(1, 6) + 1),
        ],
        ids=["reciprocal-sum", "mixed-radicals"],
    )
    def test_radicals_outside_the_jet_field_are_proven(self, make):
        # a parameter in the base keeps the expression on the Expr path
        k = sp.Symbol("K", real=True)
        e = make(k * q**2 + 1)
        assert jet_algebra(1, [e], (k,)) is None
        assert is_zero(e).status == Verdict.PROVEN

    def test_canonical_determinism(self):
        rng = Random(9)
        for _ in range(20):
            terms = [random_polynomial([TIME, q, p], 2, rng, terms=2) for _ in range(4)]
            forward = simplify(sp.Add(*terms, evaluate=False))
            backward = simplify(sp.Add(*reversed(terms), evaluate=False))
            assert forward == backward


class TestEvaluate:
    def test_hamiltonian_value(self):
        assert evaluate((p**2 + 1 / q**2) / 2, {q: 1.0, p: 1.0}) == 1.0

    def test_norm(self):
        e = sp.sqrt(coord(1) ** 2 + coord(2) ** 2 + coord(3) ** 2)
        point = {coord(1): 3.0, coord(2): 4.0, coord(3): 0.0}
        assert evaluate(e, point) == 5.0

    @pytest.mark.parametrize(
        "expression, bindings, error",
        [
            pytest.param(1 / q, {q: 0.0}, SingularEvaluationError, id="pole"),
            pytest.param(sp.sqrt(q), {q: -1.0}, SingularEvaluationError, id="sqrt-of-negative"),
            pytest.param(sp.log(q), {q: 0.0}, SingularEvaluationError, id="log-of-zero"),
            pytest.param(sp.log(q), {q: -1.0}, SingularEvaluationError, id="log-of-negative"),
            pytest.param(q ** sp.Rational(3, 2), {q: -1.0}, SingularEvaluationError, id="power-of-negative"),
            pytest.param(sp.exp(q), {q: 1000.0}, SingularEvaluationError, id="exp-overflow"),
            pytest.param(p * q, {q: 1.0}, UnboundSymbolError, id="unbound"),
        ],
    )
    def test_raises(self, expression, bindings, error):
        with pytest.raises(error):
            evaluate(expression, bindings)

    def test_number_symbol(self):
        # the parser reads exp(1) as the number symbol E
        assert evaluate(sp.E * q, {q: 2.0}) == 2 * math.e

    def test_transcendental(self):
        assert math.isclose(evaluate(sp.atan(p / q) + TIME, {q: 1.0, p: 1.0, TIME: 0.5}),
                            math.atan(1.0) + 0.5, rel_tol=1e-15)


class TestIsZero:
    def test_literal_zero_proven(self):
        assert is_zero(sp.Integer(0)).status == Verdict.PROVEN

    def test_residual_nonzero_with_witness(self):
        verdict = is_zero(p**2 / 2 - 1 / q, singular=(q,), seed=1)
        assert verdict.status == Verdict.NONZERO
        assert verdict.witness is not None and verdict.value is not None
        # the witness must actually reproduce the reported value
        point = {sp.Symbol(name, real=True): value for name, value in verdict.witness.items()}
        assert math.isclose(evaluate(p**2 / 2 - 1 / q, point), verdict.value, rel_tol=1e-12)

    def test_trig_identity_numeric(self):
        verdict = is_zero(sp.sin(TIME) ** 2 + sp.cos(TIME) ** 2 - 1, seed=1)
        assert verdict.status == Verdict.NUMERIC
        assert verdict.points == 32 and verdict.tolerance == 1e-9

    def test_float_residue_is_not_a_witness(self):
        # in floats sin^2 + cos^2 - 1 leaves ~1e-16, far above this tolerance;
        # the 50-digit re-evaluation of each candidate witness removes it
        verdict = is_zero(sp.sin(q) ** 2 + sp.cos(q) ** 2 - 1, tol=1e-30)
        assert verdict.status == Verdict.NUMERIC and verdict.points == 32

    def test_inconclusive_when_sampling_impossible(self):
        # a guard that is identically zero rejects every candidate point
        verdict = is_zero(q - 1, singular=(sp.Integer(0),), seed=1)
        assert verdict.status == Verdict.INCONCLUSIVE

    def test_nonzero_constant(self):
        assert is_zero(sp.Rational(1, 7)).status == Verdict.NONZERO

    def test_determinism(self):
        a = is_zero(sp.sin(TIME) ** 2 + sp.cos(TIME) ** 2 - 1, seed=5)
        b = is_zero(sp.sin(TIME) ** 2 + sp.cos(TIME) ** 2 - 1, seed=5)
        assert a == b

    def test_one_budget_per_verdict(self, monkeypatch):
        # the guard admits only |q| >= 1.975, about one draw in 76, so 32
        # points would take some 2400 draws; every rejected draw of the
        # verdict is charged to the one budget instead
        draws = []

        class CountingRandom(Random):
            def uniform(self, a, b):
                draws.append(1)
                return super().uniform(a, b)

        monkeypatch.setattr(hamsym.expressions, "Random", CountingRandom)
        verdict = is_zero(sp.sin(q) ** 2 + sp.cos(q) ** 2 - 1, singular=(2 * q / 79,), seed=3)
        assert verdict.status == Verdict.NUMERIC and 0 < verdict.points < 32
        assert len(draws) == MAX_SAMPLE_ATTEMPTS + verdict.points

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tolerance_must_be_positive_and_finite(self, example1, tol):
        # a NaN or infinite bound passes every sampled value
        with pytest.raises(ExpressionError, match="positive and finite"):
            is_zero(q, tol=tol)
        with pytest.raises(ExpressionError, match="positive and finite"):
            verify_first_integral(example1.system, q, tol=tol)

    def test_one_compile_per_sampled_verdict(self, monkeypatch):
        # the guards, the expression and its additive terms form one tuple
        compiled = []
        original = hamsym.expressions.compile_tuple

        def counted(*args, **kwargs):
            compiled.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hamsym.expressions, "compile_tuple", counted)
        verdict = is_zero(sp.sin(q) ** 2 + sp.cos(q) ** 2 - 1, singular=(q, p))
        assert verdict.status == Verdict.NUMERIC and len(compiled) == 1


class TestSamplePoint:
    def test_range_and_guard(self):
        rng = Random(2)
        for _ in range(50):
            point = sample_point({q, p}, rng, singular=(q,))
            for value in point.values():
                assert 0.1 <= abs(value) <= 2.0
            assert abs(point[q]) >= 0.05

    def test_guard_symbols_are_drawn(self):
        # the guard mentions p even though only q was requested
        point = sample_point({q}, Random(4), singular=(p,))
        assert p in point


def test_derive_seed_stable():
    assert derive_seed(42, "check") == derive_seed(42, "check")
    assert derive_seed(42, "check") != derive_seed(42, "other")
    assert derive_seed(1, "check") != derive_seed(2, "check")


def test_verdict_serialization():
    verdict = Verdict(Verdict.NUMERIC, points=32, tolerance=1e-9)
    assert verdict.to_dict() == {"status": "numerically-zero", "points": 32, "tolerance": 1e-9}
    assert verdict.is_zero
    assert not Verdict(Verdict.NONZERO).is_zero
