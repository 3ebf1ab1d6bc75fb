"""Invariance checks, divergence terms, first integrals and the off-shell
identities, exercised on the built-in example systems."""
import inspect
from dataclasses import replace
from random import Random

import pytest
import sympy as sp
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement, PolyRing

import hamsym.noether
from hamsym.expressions import (
    DEFAULT_TOL,
    TIME,
    SamplingError,
    Verdict,
    algebra_lift,
    coord,
    coord_deriv,
    is_zero,
    jet_order,
    jet_ring,
    momentum,
    momentum_deriv,
    partial_diff,
    random_polynomial,
    simplify,
    state_symbols,
    substitute_jets,
    to_expr,
    total_derivative,
)
from hamsym.identity import identity_check, random_pair
from hamsym.noether import (
    InvarianceError,
    build_report,
    canonical_equations,
    check_divergence_invariance,
    check_invariance,
    equation_invariance_direct,
    evolutionary_form,
    find_divergence_term,
    first_integral,
    functional_independence,
    hamiltonian_vector_field,
    invariance_residual,
    lemma1_residual,
    lemma2_residuals,
    on_shell,
    relation_check,
    theorem4_conditions,
    variational_derivative_p,
    variational_derivative_q,
    verify_first_integral,
)
from hamsym.systems import FirstIntegral, HamiltonianSystem, HamsymError, PointSymmetry, Relation

SEED = 42

q, p = coord(1), momentum(1)
dq, dp = coord_deriv(1), momentum_deriv(1)

FREE_PARTICLE = HamiltonianSystem(n=1, hamiltonian=momentum(1) ** 2 / 2)
DRIVEN = HamiltonianSystem(n=1, hamiltonian=momentum(1) ** 2 / 2 + sp.cos(TIME))
# the Galilean boost; its V is q1 on both systems above
BOOST = PointSymmetry("B", sp.Integer(0), (TIME,), (sp.Integer(1),))


class TestCanonicalEquations:
    def test_inverse_square_well(self, example1):
        qdot, pdot = canonical_equations(example1.system)
        assert simplify(qdot[0] - p) == 0
        assert simplify(pdot[0] - 1 / q**3) == 0

    def test_repulsive_coulomb(self, coulomb):
        qdot, pdot = canonical_equations(coulomb.system)
        assert simplify(qdot[0] - p) == 0
        assert simplify(pdot[0] - 1 / q**2) == 0

    def test_free_particle(self):
        qdot, pdot = canonical_equations(FREE_PARTICLE)
        assert qdot == (p,) and pdot == (0,)


@pytest.mark.parametrize("name", ["q1", "t", "dp2", "sin"])
def test_system_refuses_a_reserved_parameter_name(name):
    with pytest.raises(HamsymError, match="reserved token"):
        HamiltonianSystem(n=1, hamiltonian=p**2 / 2 + q**2 / 2, parameters={name: sp.Integer(1)})


def test_system_refuses_a_hamiltonian_of_another_jet_ring():
    H = jet_ring(2).gens[1] * jet_ring(2).gens[3]  # q1*p1 in dimension 2
    assert HamiltonianSystem(n=2, hamiltonian=H).hamiltonian is H
    with pytest.raises(HamsymError, match="ring other than the jet ring of dimension 3"):
        HamiltonianSystem(n=3, hamiltonian=H)


class TestOnShell:
    def test_energy_conservation(self, example1):
        H = example1.system.hamiltonian
        assert simplify(on_shell(example1.system, total_derivative(H))) == 0

    def test_first_order(self, example1):
        assert on_shell(example1.system, dq - p) == 0

    def test_momentum_times_velocity(self, coulomb):
        assert simplify(on_shell(coulomb.system, p * dq) - p**2) == 0

    def test_second_order_consequences(self, example1):
        # ddq resolves through D of the first-order right-hand side
        out = on_shell(example1.system, coord_deriv(1, 2))
        assert simplify(out - 1 / q**3) == 0


class TestInvarianceResidual:
    def test_time_translation_on_shell(self, example1):
        X = example1.symmetry("X1")
        assert simplify(on_shell(example1.system, invariance_residual(example1.system, X))) == 0

    def test_autonomous_time_shift_off_shell(self):
        X = PointSymmetry("X", sp.Integer(1), (sp.Integer(0),), (sp.Integer(0),))
        assert simplify(invariance_residual(FREE_PARTICLE, X)) == 0

    def test_scaling_residual_value(self, coulomb):
        X = coulomb.symmetry("X2")
        residual = invariance_residual(coulomb.system, X)
        assert simplify(residual - (p * dq - (p**2 / 2 + 1 / q))) == 0

    def test_keeps_the_parameters(self, kepler3):
        residual = invariance_residual(kepler3.system, kepler3.symmetry("X1"))
        assert sp.Symbol("K", real=True) in residual.free_symbols


class TestCheckInvariance:
    def test_scaling_passes(self, example1):
        assert check_invariance(example1.system, example1.symmetry("X2"), seed=SEED).is_zero

    def test_coulomb_scaling_fails(self, coulomb):
        verdict = check_invariance(coulomb.system, coulomb.symmetry("X2"), seed=SEED)
        assert verdict.status == Verdict.NONZERO

    def test_kepler_scaling_fails(self, kepler3):
        verdict = check_invariance(kepler3.system, kepler3.symmetry("X1"), seed=SEED)
        assert verdict.status == Verdict.NONZERO


class TestDivergenceTerm:
    def test_projective_synthesis(self, example1):
        status, term = find_divergence_term(example1.system, example1.symmetry("X3"), seed=SEED)
        assert status == "synthesized"
        assert simplify(term - q**2 / 2) == 0

    def test_zero_when_already_invariant(self, example1):
        status, term = find_divergence_term(example1.system, example1.symmetry("X1"), seed=SEED)
        assert status == "zero" and term == 0

    def test_integrability_contradiction(self, coulomb):
        status, term = find_divergence_term(coulomb.system, coulomb.symmetry("X2"), seed=SEED)
        assert status == "no-v-exists" and term is None

    def test_nonpolynomial_defers_to_user(self, kepler3):
        status, term = find_divergence_term(kepler3.system, kepler3.symmetry("Y1"), seed=SEED)
        assert status == "not-synthesizable" and term is None

    def test_every_synthesized_v_is_exact(self, example1):
        # the homotopy runs only on a gradient whose integrability is proven,
        # so residual - D(V) is proven zero off shell in every algebra
        cases = [(example1.system, example1.symmetry("X3"), "field"), (FREE_PARTICLE, BOOST, "ring"), (DRIVEN, BOOST, "expr")]
        for sys_, X, kind in cases:
            assert _algebra_kind(sys_, X) == kind
            status, v = find_divergence_term(sys_, X, seed=SEED)
            assert status == "synthesized", kind
            lift = hamsym.noether._algebra(sys_, X)[0]
            remainder = hamsym.noether._residual(sys_, X) - total_derivative(lift(v))
            assert is_zero(remainder).status == Verdict.PROVEN, kind

    @pytest.mark.parametrize("sys_", [FREE_PARTICLE, DRIVEN], ids=["ring", "expr"])
    def test_sampled_integrability_synthesizes_nothing(self, sys_):
        # dB/dp1 = q1/10^12 samples as zero, but it is not proven zero
        X = replace(BOOST, eta=(TIME + q**2 / (2 * 10**12),))
        assert find_divergence_term(sys_, X, seed=SEED) == ("not-synthesizable", None)
        assert build_report(sys_, X, seed=SEED).integral is None

    def test_inconclusive_integrability_synthesizes_nothing(self):
        # at K = 1 the (t, p) and (q, p) conditions are poles, so inconclusive
        sys_ = HamiltonianSystem(n=1, hamiltonian=p**2 / 2, parameters={"K": sp.Integer(1)})
        X = PointSymmetry("X", sp.Integer(0), (TIME * q**2 / (_K - 1),), (sp.Integer(0),))
        assert find_divergence_term(sys_, X, seed=SEED) == ("not-synthesizable", None)

    def test_a_nonzero_condition_after_an_inconclusive_one_decides(self):
        # the (t, q) condition -1/(K - 1) is a pole at K = 1; the (t, p) one is -1
        sys_ = HamiltonianSystem(n=1, hamiltonian=p**2 / 2 + q / (_K - 1), parameters={"K": sp.Integer(1)})
        X = PointSymmetry("X", sp.Integer(0), (q,), (sp.Integer(1),))
        assert find_divergence_term(sys_, X, seed=SEED) == ("no-v-exists", None)

    def test_supplied_v_verifies(self, example1, kepler3):
        verdict = check_divergence_invariance(
            example1.system, example1.symmetry("X3"), q**2 / 2, seed=SEED
        )
        assert verdict.is_zero
        Y1 = kepler3.symmetry("Y1")
        assert check_divergence_invariance(kepler3.system, Y1, Y1.v, seed=SEED).is_zero

    def test_wrong_v_fails(self, coulomb):
        verdict = check_divergence_invariance(
            coulomb.system, coulomb.symmetry("X2"), p * q, seed=SEED
        )
        assert verdict.status == Verdict.NONZERO


class TestFirstIntegral:
    def test_scaling_integral(self, example1):
        I = first_integral(example1.system, example1.symmetry("X2"), seed=SEED)
        target = p * q - TIME * (p**2 + 1 / q**2)
        assert is_zero(I.expression - target, seed=SEED).is_zero
        assert I.verified.is_zero

    def test_projective_integral(self, example1):
        X3 = example1.symmetry("X3")
        I = first_integral(example1.system, X3, v=q**2 / 2, seed=SEED)
        target = -(TIME**2 / q**2 + (q - TIME * p) ** 2) / 2
        assert is_zero(I.expression - target, singular=(q,), seed=SEED).is_zero
        assert I.verified.is_zero

    def test_time_translation_gives_minus_energy(self, kepler3):
        I = first_integral(kepler3.system, kepler3.symmetry("X0"), seed=SEED)
        assert simplify(I.expression + kepler3.system.hamiltonian) == 0

    def test_default_v_is_the_reports(self, example1):
        # X3 leaves the action invariant only up to D(q^2/2), which is synthesized
        X3 = example1.symmetry("X3")
        I = first_integral(example1.system, X3, seed=SEED)
        assert I == build_report(example1.system, X3, seed=SEED).integral

    def test_supplied_v_skips_theorem1(self, kepler3, monkeypatch):
        # the Lenz field's V is supplied, so only the divergence verdict gates I
        calls = []
        original = hamsym.noether.check_invariance
        monkeypatch.setattr(hamsym.noether, "check_invariance", lambda *args, **kw: calls.append(1) or original(*args, **kw))
        I = first_integral(kepler3.system, kepler3.symmetry("Y1"), seed=SEED)
        assert I.verified.status == Verdict.PROVEN
        assert calls == []

    def test_refusal_names_a_failing_v(self, example1):
        with pytest.raises(InvarianceError, match=r"V = q1 \(nonzero\)"):
            first_integral(example1.system, example1.symmetry("X1"), v=q, seed=SEED)

    def test_refuses_non_invariant(self, coulomb):
        with pytest.raises(InvarianceError):
            first_integral(coulomb.system, coulomb.symmetry("X2"), seed=SEED)

    def test_force_constructs_anyway(self, coulomb):
        I = first_integral(coulomb.system, coulomb.symmetry("X2"), force=True, seed=SEED)
        assert I.verified.status == Verdict.NONZERO


class TestVerifyFirstIntegral:
    def test_oscillator_time_dependent(self, oscillator):
        I = sp.atan(p / q) + TIME
        assert verify_first_integral(oscillator.system, I, seed=SEED).is_zero

    def test_angular_momentum(self, kepler3):
        I = coord(1) * momentum(2) - coord(2) * momentum(1)
        assert verify_first_integral(kepler3.system, I, seed=SEED).status == Verdict.PROVEN

    def test_coordinate_is_not_conserved(self):
        verdict = verify_first_integral(FREE_PARTICLE, q, seed=SEED)
        assert verdict.status == Verdict.NONZERO


class TestHamiltonianVectorField:
    def test_minus_energy_generates_time_shift_form(self, example1):
        X = hamiltonian_vector_field(example1.system, -example1.system.hamiltonian)
        assert X.xi == 0
        assert simplify(X.eta[0] + p) == 0
        assert simplify(X.zeta[0] + 1 / q**3) == 0

    def test_angular_momentum_generates_rotation(self, kepler3):
        X = hamiltonian_vector_field(kepler3.system, coord(1) * momentum(2) - coord(2) * momentum(1))
        X12 = kepler3.symmetry("X12")
        assert all(simplify(a - b) == 0 for a, b in zip(X.eta, X12.eta))
        assert all(simplify(a - b) == 0 for a, b in zip(X.zeta, X12.zeta))

    def test_constant_generates_zero_field(self, example1):
        X = hamiltonian_vector_field(example1.system, sp.Integer(3))
        assert all(e == 0 for e in X.eta) and all(z == 0 for z in X.zeta)


class TestEvolutionaryForm:
    def test_scaling(self, example1):
        Xt = evolutionary_form(example1.system, example1.symmetry("X2"))
        assert Xt.xi == 0
        assert simplify(Xt.eta[0] - (q - 2 * TIME * p)) == 0
        assert simplify(Xt.zeta[0] + (p + 2 * TIME / q**3)) == 0

    def test_projective(self, example1):
        Xt = evolutionary_form(example1.system, example1.symmetry("X3"))
        assert simplify(Xt.eta[0] - (TIME * q - TIME**2 * p)) == 0
        assert simplify(Xt.zeta[0] - (q - TIME * p - TIME**2 / q**3)) == 0

    def test_already_evolutionary(self, kepler3):
        Y1 = kepler3.symmetry("Y1")
        Yt = evolutionary_form(kepler3.system, Y1)
        assert all(simplify(a - b) == 0 for a, b in zip(Yt.eta, Y1.eta))
        assert all(simplify(a - b) == 0 for a, b in zip(Yt.zeta, Y1.zeta))


class TestVariationalDerivatives:
    def test_action_density_momentum_side(self, example1):
        density = p * dq - example1.system.hamiltonian
        assert simplify(variational_derivative_p(density, 1) - (dq - p)) == 0

    def test_action_density_coordinate_side(self, example1):
        density = p * dq - example1.system.hamiltonian
        assert simplify(variational_derivative_q(density, 1) - (-dp + 1 / q**3)) == 0

    def test_independent_expression(self):
        assert variational_derivative_p(q**2 + TIME, 1) == 0


class TestLemmas:
    def test_lemma1_on_example(self, example1):
        assert lemma1_residual(example1.system, example1.symmetry("X2")) == 0

    def test_lemma1_zero_hamiltonian(self, example1):
        sys0 = HamiltonianSystem(n=1, hamiltonian=sp.Integer(0))
        assert lemma1_residual(sys0, example1.symmetry("X3")) == 0

    def test_lemma2_on_example(self, example1):
        assert all(r == 0 for r in lemma2_residuals(example1.system, example1.symmetry("X3")))

    def test_lemma2_zero_symmetry(self, example1):
        X0 = PointSymmetry("Z", sp.Integer(0), (sp.Integer(0),), (sp.Integer(0),))
        assert all(r == 0 for r in lemma2_residuals(example1.system, X0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_pair_draws_in_the_ring_what_symbols_draw(n):
    # the same rng calls over the ring's generators and over the Symbols
    symbols = state_symbols(n)
    for seed in range(6):
        for degree in (1, 3):
            sys_, X = random_pair(n, degree, Random(seed))
            drawn = (sys_.hamiltonian, X.xi, *X.eta, *X.zeta)
            assert all(isinstance(e, PolyElement) and e.ring == jet_ring(n) for e in drawn)
            rng = Random(seed)
            expected = [random_polynomial(symbols, degree, rng)]
            expected += [random_polynomial(symbols, min(degree, 2), rng, terms=3) for _ in range(2 * n + 1)]
            assert [to_expr(e) for e in drawn] == expected


def test_identity_check_lifts_no_expression(monkeypatch):
    # the drawn pairs stay ring elements: nothing goes through from_expr
    calls = []
    from_expr = PolyRing.from_expr
    monkeypatch.setattr(PolyRing, "from_expr", lambda ring, e: calls.append(e) or from_expr(ring, e))
    assert identity_check(3, 3, 10).passed
    assert calls == []


def _algebra_kind(sys, X):
    """The algebra that the code of (sys, X) computes in."""
    _, H, _ = hamsym.noether._algebra(sys, X)
    return "ring" if isinstance(H, PolyElement) else "field" if isinstance(H, FracElement) else "expr"


def test_algebra_choice(example1, coulomb, kepler3, oscillator):
    translation = PointSymmetry("T", sp.Integer(1), (sp.Integer(0),), (sp.Integer(0),))
    assert _algebra_kind(FREE_PARTICLE, translation) == "ring"
    rng = Random(0)
    assert all(_algebra_kind(*random_pair(2, 3, rng)) == "ring" for _ in range(4))
    floating = PointSymmetry("F", sp.Integer(1), (sp.Float(0.5) * q,), (sp.Integer(0),))
    assert _algebra_kind(FREE_PARTICLE, floating) == "expr"
    # 1/q1^2, 1/q1, and kepler3's radical |q| with its parameter K a generator
    for defn in (example1, coulomb, kepler3):
        assert {_algebra_kind(defn.system, X) for X in defn.symmetries} == {"field"}
    # the oscillator's arctan integral, as the V of the field that it generates
    angle = sp.atan(p / q) + TIME
    X = hamiltonian_vector_field(oscillator.system, angle)
    assert _algebra_kind(oscillator.system, X) == "field"
    assert _algebra_kind(oscillator.system, replace(X, v=p * sp.diff(angle, p) - angle)) == "expr"


_MEMOS = (hamsym.noether._algebra, hamsym.noether._residual, hamsym.noether._on_shell_maps)


def _clear_algebra_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _residual_and_conditions(sys, X):
    conditions = [simplify(to_expr(c)) for c in hamsym.noether._direct_conditions(sys, X)]
    return [simplify(invariance_residual(sys, X)), *conditions]


def _as_exprs(sys, X):
    """(sys, X) with H and X's coefficients as Exprs, as a drawn pair's are not."""
    return replace(sys, hamiltonian=to_expr(sys.hamiltonian)), replace(
        X, xi=to_expr(X.xi), eta=tuple(map(to_expr, X.eta)), zeta=tuple(map(to_expr, X.zeta))
    )


def _expr_algebra(monkeypatch):
    """Compute every (sys, X) over Expr from here on."""
    _clear_algebra_memos()
    monkeypatch.setattr(hamsym.noether, "_algebra", lambda sys, X: (sp.sympify, sys.hamiltonian, X))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_and_expr_algebras_agree(n, monkeypatch):
    rng = Random(n)
    pairs = [random_pair(n, 3, rng) for _ in range(4)]
    _clear_algebra_memos()
    assert all(_algebra_kind(sys, X) == "ring" for sys, X in pairs)
    ring = [_residual_and_conditions(sys, X) for sys, X in pairs]
    _expr_algebra(monkeypatch)
    expr = [_residual_and_conditions(*_as_exprs(sys, X)) for sys, X in pairs]
    _clear_algebra_memos()
    assert ring == expr


@pytest.mark.parametrize("name", ["example1", "coulomb", "oscillator", "kepler2", "kepler3"])
def test_exact_and_expr_on_shell_residuals_agree(request, name, monkeypatch):
    # the on-shell residual of every bundled symmetry, computed in its exact
    # algebra and brought back as an Expr, cancels against the Expr path's;
    # both keep the parameters, which are bound only to decide
    defn = request.getfixturevalue(name)
    sys_ = defn.system
    _clear_algebra_memos()
    exact = [to_expr(on_shell(sys_, hamsym.noether._residual(sys_, X))) for X in defn.symmetries]
    _expr_algebra(monkeypatch)
    expr = [on_shell(sys_, hamsym.noether._residual(sys_, X)) for X in defn.symmetries]
    _clear_algebra_memos()
    for X, a, b in zip(defn.symmetries, exact, expr):
        assert sp.cancel(sys_.bind(a - b)) == 0, X.name


@pytest.mark.parametrize("name", ["example1", "coulomb", "oscillator", "kepler2", "kepler3"])
def test_lemma2_holds_on_shell(request, name):
    # Lemma 2 on shell, in each symmetry's own algebra: delta R / delta p_j is
    # the direct condition on dq_j's equation, and delta R / delta q_j minus
    # the one on dp_j's, where R is the invariance residual
    defn = request.getfixturevalue(name)
    sys_, n = defn.system, defn.system.n
    _clear_algebra_memos()
    for X in defn.symmetries:
        residual = hamsym.noether._residual(sys_, X)
        direct = hamsym.noether._direct_conditions(sys_, X)
        for j in range(1, n + 1):
            pairs = (
                (f"p{j}", on_shell(sys_, variational_derivative_p(residual, j)) - on_shell(sys_, direct[j - 1])),
                (f"q{j}", on_shell(sys_, variational_derivative_q(residual, j)) + on_shell(sys_, direct[n + j - 1])),
            )
            for side, difference in pairs:
                verdict = hamsym.noether._zero(sys_, difference, f"lemma2:{X.name}:{side}", SEED, DEFAULT_TOL)
                assert verdict.status == Verdict.PROVEN, (X.name, side)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "expr"])
def test_residual_is_affine_in_the_jets(exact, request, monkeypatch):
    # the invariant that lets find_divergence_term read A, B and C off any
    # residual: zeta.dq + p.D(eta) - X(H) - H*D(xi) is A + B.dq + C.dp with
    # A (the residual at jets 0), B and C (its jet partials) jet-free, in the
    # ring, in the field and over Expr
    defns = [request.getfixturevalue(name) for name in ("example1", "coulomb", "oscillator", "kepler2", "kepler3")]
    pairs = [(defn.system, X) for defn in defns for X in defn.symmetries]
    drawn = [random_pair(n, 3, Random(n)) for n in (1, 2, 3)]
    pairs += drawn if exact else [_as_exprs(*pair) for pair in drawn]
    _clear_algebra_memos()
    if not exact:
        _expr_algebra(monkeypatch)
    kinds = {_algebra_kind(sys_, X) for sys_, X in pairs}
    assert kinds == ({"ring", "field"} if exact else {"expr"})
    for sys_, X in pairs:
        residual = hamsym.noether._residual(sys_, X)
        jets = [maker(i) for maker in (coord_deriv, momentum_deriv) for i in range(1, sys_.n + 1)]
        a = substitute_jets(residual, dict.fromkeys(jets, 0))
        slopes = [partial_diff(residual, jet) for jet in jets]
        assert all(jet_order(x) == 0 for x in (a, *slopes)), X.name
        lift = algebra_lift(residual)
        rebuilt = a - residual
        for jet, slope in zip(jets, slopes):
            rebuilt += slope * lift(jet)
        assert simplify(to_expr(rebuilt)) == 0, X.name
    _clear_algebra_memos()


_K = sp.Symbol("K", real=True)
_C = sp.Symbol("c", real=True)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda d: verify_first_integral(d["kepler3"].system, sp.Symbol("L", real=True)), "undeclared parameter L"),
        (lambda d: verify_first_integral(d["kepler3"].system, coord(5)), "q5 outside dimension 3"),
        (
            lambda d: check_divergence_invariance(d["example1"].system, d["example1"].symmetry("X3"), q**2 / 2 + _C),
            "symmetry X3 references undeclared parameter c",
        ),
        (
            lambda d: check_invariance(
                FREE_PARTICLE, PointSymmetry("A", sp.Integer(0), (sp.Symbol("a", real=True),), (sp.Integer(0),))
            ),
            "symmetry A references undeclared parameter a",
        ),
        (lambda d: hamiltonian_vector_field(d["example1"].system, _K * q), "undeclared parameter K"),
        (lambda d: verify_first_integral(d["example1"].system, dq), "jet symbols"),
        (
            lambda d: check_invariance(d["kepler3"].system, d["example1"].symmetry("X1")),
            "symmetry X1 has 1 components, system has n=3",
        ),
        # a symbol is hamsym's only when it is the real symbol of its name
        (
            lambda d: verify_first_integral(d["example1"].system, (sp.Symbol("p1") ** 2 + 1 / sp.Symbol("q1") ** 2) / 2),
            "first integral references a p1 other than hamsym's real symbol p1",
        ),
        (
            lambda d: verify_first_integral(d["kepler3"].system, sp.Symbol("K") * coord(1)),
            "first integral references a K other than hamsym's real symbol K",
        ),
        (
            lambda d: evolutionary_form(d["kepler3"].system, d["example1"].symmetry("X1")),
            "symmetry X1 has 1 components, system has n=3",
        ),
        (
            lambda d: evolutionary_form(FREE_PARTICLE, PointSymmetry("A", sp.Integer(0), (coord(2),), (sp.Integer(0),))),
            "symmetry A references q2 outside dimension 1",
        ),
        (
            lambda d: evolutionary_form(FREE_PARTICLE, PointSymmetry("B", _K, (sp.Integer(0),), (sp.Integer(0),))),
            "symmetry B references undeclared parameter K",
        ),
        (
            lambda d: functional_independence([FirstIntegral("J", coord(2))], FREE_PARTICLE),
            "integral J references q2 outside dimension 1",
        ),
        (
            lambda d: functional_independence([FirstIntegral("J", _K * q)], FREE_PARTICLE),
            "integral J references undeclared parameter K",
        ),
        (
            lambda d: check_invariance(FREE_PARTICLE, PointSymmetry("M", sp.Integer(0), (q,), (p, p))),
            "symmetry M has 1 eta and 2 zeta components, system has n=1",
        ),
        (
            lambda d: check_invariance(FREE_PARTICLE, PointSymmetry("D", dq, (sp.Integer(0),), (sp.Integer(0),))),
            "symmetry D must not contain jet symbols",
        ),
        (lambda d: variational_derivative_p(coord_deriv(1, 2), 1), "variational derivative requires jet order <= 1"),
    ],
    ids=[
        "integral-undeclared",
        "integral-index",
        "v-undeclared",
        "eta-undeclared",
        "generator",
        "jet",
        "components",
        "integral-not-real",
        "parameter-not-real",
        "evolutionary-components",
        "evolutionary-index",
        "evolutionary-undeclared",
        "independence-index",
        "independence-undeclared",
        "eta-zeta-lengths",
        "coefficient-jet",
        "variational-second-order",
    ],
)
def test_library_inputs_follow_the_system_file_rule(call, match, example1, kepler3):
    # a (t, q, p) expression from a library caller is checked as the system
    # file parser checks it, not decided with a stray symbol sampled
    with pytest.raises(HamsymError, match=match):
        call({"example1": example1, "kepler3": kepler3})


def test_lifting_refuses_an_expression_undefined_everywhere(kepler3):
    # (r + 1)*(r - 1) - r^2 + 1 is 0 under r^2 = q1^2 + q2^2 + q3^2, so the
    # field's exact zero test would "prove" anything over it zero
    sys_, r2 = kepler3.system, sum(coord(i) ** 2 for i in (1, 2, 3))
    nowhere = 1 / ((sp.sqrt(r2) + 1) * (sp.sqrt(r2) - 1) - r2 + 1)
    calls = [
        lambda: verify_first_integral(sys_, nowhere),
        lambda: check_invariance(sys_, replace(kepler3.symmetry("X0"), xi=nowhere)),
        lambda: relation_check({"I": nowhere}, Relation("r", sp.Symbol("I", real=True), sp.Integer(0)), sys_),
    ]
    for call in calls:
        with pytest.raises(HamsymError, match="is undefined everywhere"):
            call()


def test_a_residual_undefined_everywhere_keeps_its_free_form():
    # u = |q1 + q2|: H is defined where q1 + q2 < 0 and xi where q1 + q2 > 0,
    # so the residual's denominator is 0 under u^2 = (q1 + q2)^2. to_expr
    # then keeps the free form instead of dividing by 0, and no admissible
    # point exists for the verdict
    u = sp.sqrt(sp.expand((coord(1) + coord(2)) ** 2))
    H = (momentum(1) ** 2 + momentum(2) ** 2) / 2 + 1 / (u - coord(1) - coord(2))
    sys_ = HamiltonianSystem(n=2, hamiltonian=H)
    zero = (sp.Integer(0), sp.Integer(0))
    X = PointSymmetry("X", 1 / (u + coord(1) + coord(2)), zero, zero)
    residual = invariance_residual(sys_, X)
    assert residual.has(u) and not residual.has(sp.zoo, sp.nan)
    assert check_invariance(sys_, X, seed=SEED).status == Verdict.INCONCLUSIVE


def test_every_public_call_taking_a_symmetry_checks_its_components(example1, kepler3):
    # a symmetry is applied to a system only after its component count is
    # checked against the system's dimension; none zips too few silently
    args = {
        "HamiltonianSystem": kepler3.system,
        "PointSymmetry": example1.symmetry("X3"),
        "sp.Expr": kepler3.system.hamiltonian,
    }
    takes_symmetry = []
    for name in hamsym.noether.__all__:
        function = getattr(hamsym.noether, name)
        if not inspect.isfunction(function):
            continue
        required = [p for p in inspect.signature(function).parameters.values() if p.default is p.empty]
        if not any(p.annotation == "PointSymmetry" for p in required):
            continue
        takes_symmetry.append(name)
        with pytest.raises(HamsymError, match="symmetry X3 has 1 components, system has n=3"):
            function(*(args[p.annotation] for p in required))
    assert len(takes_symmetry) >= 10


class TestEquationInvariance:
    def test_theorem4_discriminates_from_action_invariance(self, coulomb):
        verdicts = theorem4_conditions(coulomb.system, coulomb.symmetry("X2"), seed=SEED)
        assert all(v.is_zero for v in verdicts)

    def test_theorem4_projective(self, example1):
        verdicts = theorem4_conditions(example1.system, example1.symmetry("X3"), seed=SEED)
        assert all(v.is_zero for v in verdicts)

    def test_theorem4_detects_non_symmetry(self):
        X = PointSymmetry("bad", q, (sp.Integer(0),), (sp.Integer(0),))
        verdicts = theorem4_conditions(FREE_PARTICLE, X, seed=SEED)
        assert any(v.status == Verdict.NONZERO for v in verdicts)

    def test_direct_conditions(self, example1, coulomb, kepler3):
        for defn, name in ((example1, "X1"), (coulomb, "X2"), (kepler3, "Y1")):
            verdicts = equation_invariance_direct(defn.system, defn.symmetry(name), seed=SEED)
            assert all(v.is_zero for v in verdicts), name

    def test_direct_agrees_with_theorem4(self, example1, coulomb):
        for defn in (example1, coulomb):
            for X in defn.symmetries:
                t4 = all(v.is_zero for v in theorem4_conditions(defn.system, X, seed=SEED))
                direct = all(v.is_zero for v in equation_invariance_direct(defn.system, X, seed=SEED))
                assert t4 == direct, X.name


class TestRelations:
    def test_conic_relation(self, example1):
        integrals = {
            X.name: first_integral(
                example1.system, X, v=(q**2 / 2 if X.name == "X3" else None), seed=SEED
            ).expression
            for X in example1.symmetries
        }
        verdict = relation_check(integrals, example1.relations[0], example1.system, seed=SEED)
        assert verdict.is_zero

    def test_kepler2_relation(self, kepler2):
        integrals = {
            X.name: first_integral(kepler2.system, X, v=X.v, seed=SEED).expression
            for X in kepler2.symmetries
        }
        verdict = relation_check(integrals, kepler2.relations[0], kepler2.system, seed=SEED)
        assert verdict.is_zero

    def test_unknown_integral_name(self, example1):
        with pytest.raises(Exception):
            relation_check({}, example1.relations[0], example1.system, seed=SEED)

    def test_integral_named_like_a_parameter_is_refused(self, kepler3):
        # an integral named K would shadow kepler3's parameter K, and the
        # relation K = 1 would be decided on the integral instead
        I = first_integral(kepler3.system, kepler3.symmetry("X0"), seed=SEED).expression
        K = sp.Symbol("K", real=True)
        with pytest.raises(HamsymError, match="integral name 'K' is a parameter"):
            relation_check({"K": I}, Relation("r", K, sp.Integer(1)), kepler3.system, seed=SEED)
        verdict = relation_check({"E": I}, Relation("r", K, sp.Integer(1)), kepler3.system, seed=SEED)
        assert verdict.status == Verdict.PROVEN


class TestFunctionalIndependence:
    def test_pairwise_dependent_triple(self, example1):
        integrals = [
            first_integral(
                example1.system, X, v=(q**2 / 2 if X.name == "X3" else None), seed=SEED
            )
            for X in example1.symmetries
        ]
        assert functional_independence(integrals, example1.system, seed=SEED) == 2

    def test_single_integral(self, example1):
        I = FirstIntegral("H", example1.system.hamiltonian)
        assert functional_independence([I], example1.system, seed=SEED) == 1

    def test_no_integrals(self):
        with pytest.raises(HamsymError, match="at least one integral"):
            functional_independence([], FREE_PARTICLE)

    def test_no_admissible_point(self):
        # the integral is real at no point, so every draw is rejected
        with pytest.raises(SamplingError, match="non-singular point"):
            functional_independence([FirstIntegral("J", sp.sqrt(-(q**2) - 1))], FREE_PARTICLE)


class TestConsistencyProperties:
    def test_invariance_implies_verified_integral(self, example1, coulomb, oscillator):
        for defn in (example1, coulomb, oscillator):
            for X in defn.symmetries:
                if check_invariance(defn.system, X, seed=SEED).is_zero:
                    I = first_integral(defn.system, X, seed=SEED)
                    assert I.verified.is_zero, X.name

    def test_invariance_implies_direct_conditions(self, example1, coulomb):
        for defn in (example1, coulomb):
            for X in defn.symmetries:
                if check_invariance(defn.system, X, seed=SEED).is_zero:
                    verdicts = equation_invariance_direct(defn.system, X, seed=SEED)
                    assert all(v.is_zero for v in verdicts), X.name

    def test_generated_field_is_divergence_invariant(self, example1, oscillator):
        # X_I shifts the action by D(p*dI/dp - I) on-shell, so it is a
        # divergence symmetry with that V, and reconstruction returns I
        for defn, I in (
            (example1, example1.system.hamiltonian),
            (example1, p * q - TIME * (p**2 + 1 / q**2)),
            (oscillator, sp.atan(p / q) + TIME),
        ):
            assert verify_first_integral(defn.system, I, seed=SEED).is_zero
            X = hamiltonian_vector_field(defn.system, I)
            v = simplify(p * sp.diff(I, p) - I)
            assert check_divergence_invariance(defn.system, X, v, seed=SEED).is_zero
            rebuilt = first_integral(defn.system, X, v=v, seed=SEED)
            assert is_zero(
                rebuilt.expression - I, defn.system.bound_singularities, seed=SEED
            ).is_zero


class TestBuildReport:
    def test_projective_report(self, example1):
        report = build_report(example1.system, example1.symmetry("X3"), seed=SEED)
        assert report.verdict_theorem1.status == Verdict.NONZERO
        assert report.divergence_status == "synthesized"
        assert report.divergence_verdict.is_zero
        assert report.integral is not None and report.integral.verified.is_zero
        assert len(report.theorem4_verdicts) == 2 and len(report.direct_invariance_verdicts) == 2

    def test_coulomb_scaling_report(self, coulomb):
        report = build_report(coulomb.system, coulomb.symmetry("X2"), seed=SEED)
        assert report.verdict_theorem1.status == Verdict.NONZERO
        assert report.divergence_status == "no-v-exists"
        assert report.integral is None
        assert all(v.is_zero for v in report.theorem4_verdicts)

    @pytest.mark.parametrize("name", ["example1", "coulomb", "oscillator"])
    def test_agrees_with_public_checkers(self, request, name):
        defn = request.getfixturevalue(name)
        sys_ = defn.system
        for X in defn.symmetries:
            report = build_report(sys_, X, seed=SEED)
            theorem1 = check_invariance(sys_, X, seed=SEED)
            assert report.verdict_theorem1 == theorem1, X.name
            if X.v is not None:
                assert report.divergence_status == "user-supplied"
                expected = check_divergence_invariance(sys_, X, X.v, seed=SEED)
            elif theorem1.is_zero:
                assert report.divergence_status == "zero"
                expected = theorem1
            else:
                status, term = find_divergence_term(sys_, X, seed=SEED)
                assert (report.divergence_status, report.divergence) == (status, term), X.name
                expected = None if term is None else check_divergence_invariance(sys_, X, term, seed=SEED)
            assert report.divergence_verdict == expected, X.name
            assert report.theorem4_verdicts == theorem4_conditions(sys_, X, seed=SEED), X.name
            assert report.direct_invariance_verdicts == equation_invariance_direct(sys_, X, seed=SEED), X.name
            v = report.divergence
            if report.integral is not None:
                assert report.integral == first_integral(sys_, X, v=v, seed=SEED), X.name
            else:
                with pytest.raises(InvarianceError):
                    first_integral(sys_, X, v=v, seed=SEED)

    def test_a_supplied_v_is_decided_as_the_symmetry_v(self, example1, oscillator, kepler3):
        # a V passed to the library takes the path of a file's v: the algebra
        # of H, X's coefficients and V together, even when V leaves X's own
        angle = sp.atan(p / q) + TIME
        generated = hamiltonian_vector_field(oscillator.system, angle)
        Y1 = kepler3.symmetry("Y1")
        for sys_, X, v in (
            (example1.system, example1.symmetry("X3"), q**2 / 2 + sp.sqrt(2)),
            (oscillator.system, generated, simplify(p * sp.diff(angle, p) - angle)),
            (kepler3.system, Y1, Y1.v),
        ):
            report = build_report(sys_, replace(X, v=v), seed=SEED)
            assert report.divergence_verdict.is_zero, X.name
            assert check_divergence_invariance(sys_, X, v, seed=SEED) == report.divergence_verdict, X.name
            assert first_integral(sys_, X, v=v, seed=SEED) == report.integral, X.name
        lift, _, lifted = hamsym.noether._algebra(kepler3.system, Y1)
        assert lifted.v == lift(Y1.v)
