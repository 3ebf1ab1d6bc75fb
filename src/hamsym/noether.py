"""Invariance tests, divergence terms, first integrals and identity checks
for canonical Hamiltonian systems.

Conventions: condition lists indexed by j=1..n come out as 2n-tuples with
the momentum-side entries first (j=1..n), then the coordinate-side entries.
All verdicts are seeded and deterministic.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from itertools import islice
from random import Random
from types import MappingProxyType
from typing import Mapping, Sequence

import sympy as sp

from .expressions import (
    DEFAULT_TOL,
    SamplingError,
    Verdict,
    algebra_lift,
    coord,
    coord_deriv,
    defined_nowhere,
    derive_seed,
    draw_samples,
    is_zero,
    jet_algebra,
    jet_order,
    momentum,
    momentum_deriv,
    parameter,
    partial_diff,
    simplify,
    state_symbols,
    substitute_jets,
    to_expr,
    total_derivative,
)
from .parsing import format_expression
from .systems import (
    FirstIntegral,
    HamiltonianSystem,
    InvarianceReport,
    PointSymmetry,
    HamsymError,
    Relation,
    check_phase_expression,
)

__all__ = [
    "InvarianceError",
    "canonical_equations",
    "on_shell",
    "invariance_residual",
    "check_invariance",
    "find_divergence_term",
    "check_divergence_invariance",
    "first_integral",
    "verify_first_integral",
    "hamiltonian_vector_field",
    "evolutionary_form",
    "variational_derivative_p",
    "variational_derivative_q",
    "lemma1_residual",
    "lemma2_residuals",
    "theorem4_conditions",
    "equation_invariance_direct",
    "relation_expression",
    "relation_check",
    "functional_independence",
    "build_report",
]


RANK_POINTS = 5
RANK_TOL = 1e-8


class InvarianceError(HamsymError):
    """Raised when an integral is requested for a non-invariant Hamiltonian."""


def _zero(sys: HamiltonianSystem, e, label: str, seed: int, tol: float) -> Verdict:
    """The seeded zero test of e for the check named label: the one decision
    that binds the parameters, in e's algebra; a pole there is inconclusive."""
    if sys.parameters:
        try:
            e = sys.bind(e)
        except ZeroDivisionError:
            return Verdict(Verdict.INCONCLUSIVE)
    return is_zero(e, sys.bound_singularities, seed=derive_seed(seed, label), tol=tol)


def _jets(n: int, order: int = 1) -> tuple[sp.Symbol, ...]:
    """The jet symbols of the given order, coordinates first: dq1..dqn, dp1..dpn."""
    return tuple(maker(i, order) for maker in (coord_deriv, momentum_deriv) for i in range(1, n + 1))


@lru_cache(maxsize=8)
def _canonical(sys: HamiltonianSystem, lift):
    """The canonical equations dx = F of sys in the algebra of `lift`: the
    gradient of H = lift(sys.hamiltonian) over (t, q1..qn, p1..pn), and
    (dx, F, dx - F) for each jet dx of `_jets`, lifted. Built once per
    (system, algebra); the integrator and every check read the equations
    from it, and nothing else differentiates H for them."""
    n, H = sys.n, lift(sys.hamiltonian)
    gradient = tuple(partial_diff(H, z) for z in state_symbols(n))
    sides = (*gradient[n + 1 :], *(-g for g in gradient[1 : n + 1]))
    return gradient, tuple((dx, F, dx - F) for dx, F in zip(map(lift, _jets(n)), sides))


def canonical_equations(sys: HamiltonianSystem) -> tuple[tuple[sp.Expr, ...], tuple[sp.Expr, ...]]:
    """Right-hand sides (dH/dp_i, -dH/dq^i) of the canonical equations in
    the algebra of sys.hamiltonian, read off `_canonical`: for an Expr H the
    Exprs that differentiating H gives, uncanonicalized. The integrator and
    evolutionary_form read them."""
    sides = [F for _, F, _ in _canonical(sys, algebra_lift(sys.hamiltonian))[1]]
    return tuple(sides[: sys.n]), tuple(sides[sys.n :])


def _sides(n: int) -> list[tuple[sp.Symbol, sp.Symbol, int]]:
    """A row (w, dw, sign) per entry of a 2n-tuple, w = p1..pn then q1..qn.
    Row k pairs with the k-th equation of `_canonical`: p_j with dq_j, with
    sign 1, and q_j with dp_j, with sign -1."""
    indices = range(1, n + 1)
    return [(momentum(j), momentum_deriv(j), 1) for j in indices] + [(coord(j), coord_deriv(j), -1) for j in indices]


@lru_cache(maxsize=8)
def _on_shell_maps(sys: HamiltonianSystem, lift) -> Mapping:
    """The canonical equations and their differential consequences as one
    substitution of every jet symbol, in the algebra of `lift`: each
    first-order jet goes to its canonical right-hand side, each second-order
    jet to the total derivative of that side with the first-order jets
    already substituted. Built once per (system, algebra), shared read-only."""
    _, equations = _canonical(sys, lift)
    first = {s: F for s, (_, F, _) in zip(_jets(sys.n), equations)}
    second = (substitute_jets(total_derivative(F), first) for F in first.values())
    return MappingProxyType({**first, **dict(zip(_jets(sys.n, 2), second))})


def on_shell(sys: HamiltonianSystem, e):
    """Substitute the canonical equations and their differential consequences
    for all jet symbols; the result is a function of (t, q, p) only, in the
    algebra of e. An Expr comes back uncanonicalized: the zero test
    canonicalizes it."""
    return substitute_jets(e, _on_shell_maps(sys, algebra_lift(e)))


def _lifted(sys: HamiltonianSystem, exprs):
    """(lift, exprs): `exprs` in the exact jet algebra of sys that holds them
    all, and the map of an Expr into it; else (sympify, exprs as Exprs).
    Refuses an expression that its algebra finds undefined everywhere."""
    found = jet_algebra(sys.n, exprs, tuple(map(parameter, sys.parameters)))
    for e, lifted in zip(exprs, () if found is None else found[1]):
        if defined_nowhere(lifted):
            raise HamsymError(f"{format_expression(e)} is undefined everywhere: its denominator is 0 under its radicals")
    return (sp.sympify, [to_expr(e) for e in exprs]) if found is None else found


def _check_symmetry(sys: HamiltonianSystem, X: PointSymmetry) -> tuple:
    """The one rule for a symmetry of sys: sys.n eta and sys.n zeta
    components, and each coefficient, v included, a function of (t, q, p)
    and the parameters of sys. Returns the coefficients xi, eta, zeta, v
    (when given) in that order; else raises HamsymError."""
    if (len(X.eta), len(X.zeta)) != (sys.n, sys.n):
        count = len(X.eta) if len(X.eta) == len(X.zeta) else f"{len(X.eta)} eta and {len(X.zeta)} zeta"
        raise HamsymError(f"symmetry {X.name} has {count} components, system has n={sys.n}")
    coefficients = (X.xi, *X.eta, *X.zeta, *(() if X.v is None else (X.v,)))
    for e in coefficients:
        check_phase_expression(e, sys.n, f"symmetry {X.name}", sys.parameters)
    return coefficients


@lru_cache(maxsize=8)
def _algebra(sys: HamiltonianSystem, X: PointSymmetry):
    """(lift, H, X) in the algebra that the code of (sys, X) computes in,
    where lift maps an Expr into it: the exact jet algebra of H, X's
    coefficients and X.v, whose arithmetic gives normal forms directly;
    else Expr. X.v, when given, is lifted with the rest. Refuses an X that
    breaks `_check_symmetry`."""
    n = sys.n
    lift, (H, xi, *rest) = _lifted(sys, (sys.hamiltonian, *_check_symmetry(sys, X)))
    return lift, H, PointSymmetry(X.name, xi, tuple(rest[:n]), tuple(rest[n : 2 * n]), *rest[2 * n :])


def _apply_operator(X: PointSymmetry, gradient) -> sp.Expr:
    """X(f) in the algebra of f = f(t, q, p), from f's gradient over
    (t, q1..qn, p1..pn); X must come from `_algebra`, which checks it."""
    return sum(c * g for c, g in zip((X.xi, *X.eta, *X.zeta), gradient))


@lru_cache(maxsize=8)
def _residual(sys: HamiltonianSystem, X: PointSymmetry):
    """Off-shell residual of the action-invariance condition,
    zeta_i*dq_i + p_i*D(eta^i) - X(H) - H*D(xi), in the algebra of (sys, X).
    Built once per (system, symmetry) and shared by every check that reads it."""
    lift, H, X = _algebra(sys, X)
    out = -_apply_operator(X, _canonical(sys, lift)[0]) - H * total_derivative(X.xi)
    for i, (eta, zeta) in enumerate(zip(X.eta, X.zeta), start=1):
        out += zeta * lift(coord_deriv(i)) + lift(momentum(i)) * total_derivative(eta)
    return simplify(out)


def invariance_residual(sys: HamiltonianSystem, X: PointSymmetry) -> sp.Expr:
    """The off-shell residual of (sys, X) as an Expr, simplified, with its
    parameters unbound."""
    return to_expr(_residual(sys, X))


def check_invariance(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    """Theorem 1: the on-shell verdict of the invariance residual."""
    return _zero(sys, on_shell(sys, _residual(sys, X)), f"theorem1:{X.name}", seed, tol)


def find_divergence_term(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[str, sp.Expr | None]:
    """Try to write the off-shell residual as D(V) for some V(t, q, p).

    The residual is A + B_i*dq_i + C_i*dp_i with A, B, C jet-free, so its
    gradient (A, B, C) is read off it. Returns (status, V) with status one
    of 'zero' (V = 0), 'synthesized' (every integrability condition proven
    zero and the gradient polynomial, so grad V = (A, B, C) exactly),
    'no-v-exists' (a condition is nonzero) or 'not-synthesizable' (anything
    else; a caller-supplied V may still verify); V is None for the last two.
    """
    residual = _residual(sys, X)
    if residual == 0:
        return "zero", sp.Integer(0)
    jets = _jets(sys.n)
    a = substitute_jets(residual, dict.fromkeys(jets, 0))
    gradient = [simplify(g) for g in (a, *(partial_diff(residual, jet) for jet in jets))]
    variables = state_symbols(sys.n)
    proven = True
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            mixed = partial_diff(gradient[i], variables[j]) - partial_diff(gradient[j], variables[i])
            verdict = _zero(sys, mixed, f"integrability:{X.name}:{i}:{j}", seed, tol)
            if verdict.status == Verdict.NONZERO:
                return "no-v-exists", None
            proven = proven and verdict.status == Verdict.PROVEN
    gradient = [to_expr(g) for g in gradient]
    if not (proven and all(g.is_polynomial(*variables) for g in gradient)):
        return "not-synthesizable", None
    # the homotopy V = int_0^1 z.g(s*z) ds: a degree-d monomial of g integrates to 1/(d + 1)
    v = sp.Integer(0)
    for z, g in zip(variables, gradient):
        for degrees, coefficient in sp.Poly(g, *variables).terms():
            v += coefficient * z * sp.Mul(*(x**d for x, d in zip(variables, degrees))) / (sum(degrees) + 1)
    return "synthesized", simplify(v)


def check_divergence_invariance(
    sys: HamiltonianSystem, X: PointSymmetry, v: sp.Expr, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    """The divergence remark: the on-shell verdict of residual - D(v),
    decided for X with v as its own v, in the algebra of both."""
    return _divergence(sys, replace(X, v=v), seed, tol)[3]


def _divergence_verdict(sys: HamiltonianSystem, X: PointSymmetry, v, seed: int, tol: float) -> Verdict:
    """The on-shell verdict of residual - D(v), with v in the algebra of (sys, X)."""
    return _zero(sys, on_shell(sys, _residual(sys, X) - total_derivative(v)), f"divergence:{X.name}", seed, tol)


def _divergence(sys: HamiltonianSystem, X: PointSymmetry, seed: int, tol: float):
    """The divergence decision of (sys, X): (Theorem 1's verdict, divergence
    status, V, the verdict that justifies V). V is X.v when given, and then
    Theorem 1 is not decided (None), since nothing reads it; else V is 0
    when Theorem 1 holds, else a synthesized term. V and its verdict are
    None when no V is found. Every V is decided in the algebra of (sys, X):
    X.v as `_algebra` lifted it, a V made here (a polynomial over QQ in t,
    q, p and the parameters) by that algebra's lift."""
    lift, _, lifted = _algebra(sys, X)
    if X.v is not None:
        return None, "user-supplied", X.v, _divergence_verdict(sys, X, lifted.v, seed, tol)
    theorem1 = check_invariance(sys, X, seed=seed, tol=tol)
    if theorem1.is_zero:
        return theorem1, "zero", sp.Integer(0), theorem1
    status, v = find_divergence_term(sys, X, seed=seed, tol=tol)
    return theorem1, status, v, None if v is None else _divergence_verdict(sys, X, lift(v), seed, tol)


def first_integral(
    sys: HamiltonianSystem,
    X: PointSymmetry,
    v: sp.Expr | None = None,
    force: bool = False,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> FirstIntegral:
    """I = p_i*eta^i - xi*H - V, refused unless V's verdict is zero. V is `v`
    when given, decided as X's own v, else the divergence decision's;
    `force` builds I anyway, with V = 0 when no V is found."""
    if v is not None:
        X = replace(X, v=v)
    theorem1, _, v, verdict = _divergence(sys, X, seed, tol)
    if force or (verdict is not None and verdict.is_zero):
        return _integral(sys, X, sp.Integer(0) if v is None else v, seed, tol)
    if verdict is None:
        raise InvarianceError(f"symmetry {X.name} does not leave the Hamiltonian action invariant ({theorem1.status})")
    raise InvarianceError(f"symmetry {X.name} is not invariant up to D(V), V = {format_expression(v)} ({verdict.status})")


def _integral(sys, X, v, seed, tol) -> FirstIntegral:
    """Build I = p_i*eta^i - xi*H - V once in the algebra of (sys, X), verify
    it without gating, and print it. V is X.v as `_algebra` lifted it, when
    given; else v (0 or a synthesized V), lifted here."""
    lift, H, X = _algebra(sys, X)
    integral = -X.xi * H - (lift(v) if X.v is None else X.v)
    for i, eta in enumerate(X.eta, start=1):
        integral += lift(momentum(i)) * eta
    integral = simplify(integral)
    return FirstIntegral(X.name, to_expr(integral), _conserved(sys, integral, seed, tol))


def _conserved(sys: HamiltonianSystem, integral, seed: int, tol: float) -> Verdict:
    """The on-shell verdict of D(integral), in the algebra of integral."""
    return _zero(sys, on_shell(sys, total_derivative(integral)), "verify-integral", seed, tol)


def verify_first_integral(
    sys: HamiltonianSystem, integral: sp.Expr, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    check_phase_expression(integral, sys.n, "first integral", sys.parameters)
    _, (_, integral) = _lifted(sys, (sys.hamiltonian, integral))
    return _conserved(sys, integral, seed, tol)


def hamiltonian_vector_field(sys: HamiltonianSystem, integral: sp.Expr) -> PointSymmetry:
    """The phase-space vector field X_I generated by I: eta = dI/dp, zeta =
    -dI/dq, differentiated here and not read off `_canonical`, so that it
    stays a route to the canonical equations independent of that record."""
    check_phase_expression(integral, sys.n, "generating function", sys.parameters)
    state = state_symbols(sys.n)
    eta = tuple(simplify(partial_diff(integral, p)) for p in state[sys.n + 1 :])
    zeta = tuple(simplify(-partial_diff(integral, q)) for q in state[1 : sys.n + 1])
    return PointSymmetry("X_I", sp.Integer(0), eta, zeta)


def evolutionary_form(sys: HamiltonianSystem, X: PointSymmetry) -> PointSymmetry:
    """On-shell evolutionary representative: xi = 0 with the time shift
    absorbed into the dependent components."""
    _check_symmetry(sys, X)
    qdot, pdot = canonical_equations(sys)
    eta = tuple(simplify(X.eta[i] - X.xi * qdot[i]) for i in range(sys.n))
    zeta = tuple(simplify(X.zeta[i] - X.xi * pdot[i]) for i in range(sys.n))
    return PointSymmetry(name=f"{X.name}~", xi=sp.Integer(0), eta=eta, zeta=zeta)


def _variational_derivative(e: sp.Expr, w: sp.Symbol, dw: sp.Symbol) -> sp.Expr:
    """delta e / delta w = de/dw - D(de/d(dw))."""
    if jet_order(e) > 1:
        raise HamsymError("variational derivative requires jet order <= 1")
    return partial_diff(e, w) - total_derivative(partial_diff(e, dw))


def variational_derivative_p(e: sp.Expr, j: int) -> sp.Expr:
    """delta e / delta p_j."""
    return _variational_derivative(e, momentum(j), momentum_deriv(j))


def variational_derivative_q(e: sp.Expr, j: int) -> sp.Expr:
    """delta e / delta q^j."""
    return _variational_derivative(e, coord(j), coord_deriv(j))


def lemma1_residual(sys: HamiltonianSystem, X: PointSymmetry) -> sp.Expr:
    """Difference of the two sides of the Hamiltonian identity; identically
    zero off-shell for every smooth H and point symmetry."""
    lhs = _residual(sys, X)
    lift, H, X = _algebra(sys, X)
    gradient, equations = _canonical(sys, lift)
    rhs = X.xi * (total_derivative(H) - gradient[0])
    boundary = -X.xi * H
    for i, (eta, zeta) in enumerate(zip(X.eta, X.zeta)):
        rhs += zeta * equations[i][2] - eta * equations[sys.n + i][2]
        boundary += lift(momentum(i + 1)) * eta
    rhs += total_derivative(boundary)
    return to_expr(simplify(lhs - rhs))


def _direct_conditions(sys: HamiltonianSystem, X: PointSymmetry) -> list:
    """X applied to each canonical equation dx = F, off-shell and in the
    algebra of (sys, X): D(c) - dx*D(xi) - X(F), with c = eta^1..eta^n, then
    zeta_1..zeta_n."""
    lift, _, X = _algebra(sys, X)
    dxi = total_derivative(X.xi)
    return [
        total_derivative(c) - dx * dxi - _apply_operator(X, [partial_diff(F, z) for z in state_symbols(sys.n)])
        for c, (dx, F, _) in zip((*X.eta, *X.zeta), _canonical(sys, lift)[1])
    ]


def lemma2_residuals(sys: HamiltonianSystem, X: PointSymmetry) -> tuple[sp.Expr, ...]:
    """Off-shell residuals of the variational-derivative identities, one per
    row of `_sides`. Each right-hand side is sign*(the paired direct
    condition) plus multiples of the canonical equations."""
    n = sys.n
    residual, conditions = _residual(sys, X), _direct_conditions(sys, X)
    lift, H, X = _algebra(sys, X)
    gradient, equations = _canonical(sys, lift)
    dxi = total_derivative(X.xi)
    commutator = total_derivative(H) - gradient[0]
    out = []
    for (w, dw, sign), condition, (_, _, own) in zip(_sides(n), conditions, equations):
        rhs = sign * (condition + dxi * own) + partial_diff(X.xi, w) * commutator
        for eta, zeta, (_, _, r_q), (_, _, r_p) in zip(X.eta, X.zeta, equations, equations[n:]):
            rhs += partial_diff(zeta, w) * r_q - partial_diff(eta, w) * r_p
        out.append(to_expr(simplify(_variational_derivative(residual, w, dw) - rhs)))
    return tuple(out)


def theorem4_conditions(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[Verdict, ...]:
    """On-shell verdicts of the 2n variational-derivative conditions that
    characterize invariance of the canonical equations, one per row of
    `_sides`."""
    residual = _residual(sys, X)
    return tuple(
        _zero(sys, on_shell(sys, _variational_derivative(residual, w, dw)), f"theorem4:{X.name}:{w}", seed, tol)
        for w, dw, _ in _sides(sys.n)
    )


def equation_invariance_direct(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[Verdict, ...]:
    """Apply X directly to the canonical equations; 2n on-shell verdicts,
    momentum side first."""
    return tuple(
        _zero(sys, on_shell(sys, condition), f"direct:{X.name}:{k}", seed, tol)
        for k, condition in enumerate(_direct_conditions(sys, X))
    )


def relation_expression(
    integrals: Mapping[str, sp.Expr], relation: Relation, sys: HamiltonianSystem
) -> sp.Expr | None:
    """The relation's expression with each named integral substituted, or
    None when it names an integral missing from `integrals`. Refuses an
    integral named like a parameter of sys, which would shadow it."""
    shadowed = sorted(set(integrals) & set(sys.parameters))
    if shadowed:
        raise HamsymError(f"integral name {shadowed[0]!r} is a parameter of the system")
    subs = {}
    for s in relation.expression.free_symbols:
        if s.name in integrals:
            subs[s] = integrals[s.name]
        elif s.name not in sys.parameters:
            return None
    return relation.expression.xreplace(subs)


def relation_check(
    integrals: Mapping[str, sp.Expr],
    relation: Relation,
    sys: HamiltonianSystem,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Substitute integral expressions into a relation and test it against
    its constant, in the exact algebra of the result when there is one."""
    e = relation_expression(integrals, relation, sys)
    if e is None:
        raise HamsymError(f"relation {relation.name} references an integral not among {sorted(integrals)}")
    _, (e,) = _lifted(sys, (e - relation.equals,))
    return _zero(sys, e, f"relation:{relation.name}", seed, tol)


def functional_independence(integrals: Sequence[FirstIntegral], sys: HamiltonianSystem, seed: int = 0) -> int:
    """Maximum observed rank of the Jacobian of the integrals with respect
    to (q, p) at RANK_POINTS random non-singular points; singular values at
    or below RANK_TOL * max(1, largest |entry|) count as zero."""
    import numpy as np

    if not integrals:
        raise HamsymError("need at least one integral")
    for integral in integrals:
        check_phase_expression(integral.expression, sys.n, f"integral {integral.name}", sys.parameters)
    state = state_symbols(sys.n)
    jacobian = [partial_diff(sys.bind(integral.expression), z) for integral in integrals for z in state[1:]]
    draws = draw_samples(state, jacobian, Random(derive_seed(seed, "independence")), sys.bound_singularities)
    ranks = []
    for _, values in islice(draws, RANK_POINTS):
        rows = np.array(values, dtype=float).reshape(len(integrals), -1)
        threshold = RANK_TOL * max(1.0, float(np.abs(rows).max()))
        ranks.append(int(np.linalg.matrix_rank(rows, tol=threshold)))
    if not ranks:
        raise SamplingError("could not sample any non-singular point for the Jacobian")
    return max(ranks)


def build_report(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> InvarianceReport:
    """Run the full per-symmetry pipeline: the divergence decision, Theorem 4,
    direct invariance, and the integral when the decision justifies one."""
    theorem1, divergence_status, divergence, divergence_verdict = _divergence(sys, X, seed, tol)
    if theorem1 is None:
        theorem1 = check_invariance(sys, X, seed=seed, tol=tol)
    justified = divergence_verdict is not None and divergence_verdict.is_zero
    return InvarianceReport(
        symmetry=X.name,
        verdict_theorem1=theorem1,
        divergence=divergence,
        divergence_status=divergence_status,
        divergence_verdict=divergence_verdict,
        theorem4_verdicts=theorem4_conditions(sys, X, seed=seed, tol=tol),
        direct_invariance_verdicts=equation_invariance_direct(sys, X, seed=seed, tol=tol),
        integral=_integral(sys, X, divergence, seed, tol) if justified else None,
    )
