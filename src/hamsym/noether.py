"""Invariance tests, divergence terms, first integrals and identity checks
for canonical Hamiltonian systems.

Conventions: condition lists indexed by j=1..n come out as 2n-tuples with
the momentum-side entries first (j=1..n), then the coordinate-side entries.
All verdicts are seeded and deterministic.
"""
from __future__ import annotations

from random import Random
from typing import Mapping, Sequence

import sympy as sp

from .expressions import (
    DEFAULT_TOL,
    TIME,
    SamplingError,
    SingularEvaluationError,
    Verdict,
    coord,
    coord_deriv,
    derive_seed,
    evaluate,
    is_zero,
    jet_order,
    momentum,
    momentum_deriv,
    partial_diff,
    sample_point,
    simplify,
    total_derivative,
)
from .systems import (
    DivergenceTerm,
    FirstIntegral,
    HamiltonianSystem,
    InvarianceReport,
    PointSymmetry,
    Relation,
    SystemError,
)

__all__ = [
    "InvarianceError",
    "canonical_equations",
    "on_shell",
    "apply_operator",
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
    "relation_check",
    "functional_independence",
    "build_report",
]


class InvarianceError(SystemError):
    """Raised when an integral is requested for a non-invariant Hamiltonian."""


def _phase_symbols(n: int):
    return [coord(i) for i in range(1, n + 1)], [momentum(i) for i in range(1, n + 1)]


def canonical_equations(sys: HamiltonianSystem) -> tuple[tuple[sp.Expr, ...], tuple[sp.Expr, ...]]:
    """Right-hand sides (dH/dp_i, -dH/dq^i) of the canonical equations."""
    qs, ps = _phase_symbols(sys.n)
    qdot = tuple(simplify(partial_diff(sys.hamiltonian, p)) for p in ps)
    pdot = tuple(simplify(-partial_diff(sys.hamiltonian, q)) for q in qs)
    return qdot, pdot


def on_shell(sys: HamiltonianSystem, e: sp.Expr) -> sp.Expr:
    """Substitute the canonical equations and their differential consequences
    for all jet symbols; the result is a function of (t, q, p) only."""
    e = sp.sympify(e)
    qdot, pdot = canonical_equations(sys)
    order = jet_order(e)
    if order >= 2:
        second = {}
        for i in range(1, sys.n + 1):
            second[coord_deriv(i, 2)] = total_derivative(qdot[i - 1])
            second[momentum_deriv(i, 2)] = total_derivative(pdot[i - 1])
        e = e.subs(second, simultaneous=True)
    first = {}
    for i in range(1, sys.n + 1):
        first[coord_deriv(i)] = qdot[i - 1]
        first[momentum_deriv(i)] = pdot[i - 1]
    return simplify(e.subs(first, simultaneous=True))


def apply_operator(X: PointSymmetry, f: sp.Expr) -> sp.Expr:
    """X(f) for f = f(t, q, p)."""
    out = X.xi * partial_diff(f, TIME)
    for i, (eta, zeta) in enumerate(zip(X.eta, X.zeta), start=1):
        out += eta * partial_diff(f, coord(i)) + zeta * partial_diff(f, momentum(i))
    return out


def invariance_residual(sys: HamiltonianSystem, X: PointSymmetry) -> sp.Expr:
    """Off-shell residual of the action-invariance condition:
    zeta_i*dq_i + p_i*D(eta^i) - X(H) - H*D(xi)."""
    if len(X.eta) != sys.n:
        raise SystemError(f"symmetry {X.name} has {len(X.eta)} components, system has n={sys.n}")
    H = sys.hamiltonian
    out = -apply_operator(X, H) - H * total_derivative(X.xi)
    for i, (eta, zeta) in enumerate(zip(X.eta, X.zeta), start=1):
        out += zeta * coord_deriv(i) + momentum(i) * total_derivative(eta)
    return simplify(out)


def check_invariance(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    residual = sys.bind(on_shell(sys, invariance_residual(sys, X)))
    return is_zero(residual, sys.bound_singularities, seed=derive_seed(seed, f"theorem1:{X.name}"), tol=tol)


def _jet_linear_coefficients(sys: HamiltonianSystem, residual: sp.Expr):
    """Write residual = A + B_i*dq_i + C_i*dp_i; all three jet-free."""
    b, c = [], []
    rest = residual
    for i in range(1, sys.n + 1):
        bi = simplify(partial_diff(residual, coord_deriv(i)))
        ci = simplify(partial_diff(residual, momentum_deriv(i)))
        if jet_order(bi) > 0 or jet_order(ci) > 0:
            return None
        b.append(bi)
        c.append(ci)
        rest = rest - bi * coord_deriv(i) - ci * momentum_deriv(i)
    a = simplify(rest)
    if jet_order(a) > 0:
        return None
    return a, b, c


def find_divergence_term(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[str, DivergenceTerm | None]:
    """Try to write the off-shell residual as D(V) for some V(t, q, p).

    Returns (status, term) with status one of 'zero' (residual already
    vanishes, V = 0), 'synthesized', 'no-v-exists' (integrability fails
    definitively) or 'not-synthesizable' (non-polynomial coefficients;
    a caller-supplied V may still verify).
    """
    residual = invariance_residual(sys, X)
    if simplify(residual) == 0:
        return "zero", DivergenceTerm(sp.Integer(0), "synthesized")
    decomposition = _jet_linear_coefficients(sys, residual)
    if decomposition is None:
        return "not-synthesizable", None
    a, b, c = decomposition
    qs, ps = _phase_symbols(sys.n)
    variables = [TIME, *qs, *ps]
    gradient = [a, *b, *c]
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            mixed = partial_diff(gradient[i], variables[j]) - partial_diff(gradient[j], variables[i])
            verdict = is_zero(
                sys.bind(mixed),
                sys.bound_singularities,
                seed=derive_seed(seed, f"integrability:{X.name}:{i}:{j}"),
                tol=tol,
            )
            if verdict.status == Verdict.NONZERO:
                return "no-v-exists", None
            if verdict.status == Verdict.INCONCLUSIVE:
                return "not-synthesizable", None
    if not all(g.is_polynomial(*variables) for g in gradient):
        return "not-synthesizable", None
    s = sp.Dummy("s")
    scaled = {z: s * z for z in variables}
    v = sp.Integer(0)
    for z, g in zip(variables, gradient):
        v += sp.integrate(sp.expand(z * g.subs(scaled, simultaneous=True)), (s, 0, 1))
    v = simplify(v)
    check = is_zero(
        sys.bind(residual - total_derivative(v)),
        sys.bound_singularities,
        seed=derive_seed(seed, f"divsynth:{X.name}"),
        tol=tol,
    )
    if not check.is_zero:
        return "not-synthesizable", None
    return "synthesized", DivergenceTerm(v, "synthesized")


def check_divergence_invariance(
    sys: HamiltonianSystem, X: PointSymmetry, v: sp.Expr, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    if jet_order(v) > 0:
        raise SystemError("divergence term must not contain jet symbols")
    residual = invariance_residual(sys, X) - total_derivative(v)
    return is_zero(
        sys.bind(on_shell(sys, residual)),
        sys.bound_singularities,
        seed=derive_seed(seed, f"divergence:{X.name}"),
        tol=tol,
    )


def first_integral(
    sys: HamiltonianSystem,
    X: PointSymmetry,
    v: sp.Expr | None = None,
    force: bool = False,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> FirstIntegral:
    """I = p_i*eta^i - xi*H - V, gated on the invariance check."""
    if v is None:
        v = sp.Integer(0)
        verdict = check_invariance(sys, X, seed=seed, tol=tol)
    else:
        verdict = check_divergence_invariance(sys, X, v, seed=seed, tol=tol)
    if not verdict.is_zero and not force:
        raise InvarianceError(
            f"symmetry {X.name} does not leave the Hamiltonian action invariant ({verdict.status})"
        )
    expr = -X.xi * sys.hamiltonian - v
    for i, eta in enumerate(X.eta, start=1):
        expr += momentum(i) * eta
    expr = simplify(expr)
    return FirstIntegral(name=X.name, expression=expr, verified=verify_first_integral(sys, expr, seed=seed, tol=tol))


def verify_first_integral(
    sys: HamiltonianSystem, integral: sp.Expr, seed: int = 0, tol: float = DEFAULT_TOL
) -> Verdict:
    if jet_order(integral) > 0:
        raise SystemError("a first integral must be a function of (t, q, p) only")
    residual = sys.bind(on_shell(sys, total_derivative(integral)))
    return is_zero(residual, sys.bound_singularities, seed=derive_seed(seed, "verify-integral"), tol=tol)


def hamiltonian_vector_field(sys: HamiltonianSystem, integral: sp.Expr, name: str = "X_I") -> PointSymmetry:
    """The phase-space vector field generated by I: eta = dI/dp, zeta = -dI/dq."""
    if jet_order(integral) > 0:
        raise SystemError("generating function must not contain jet symbols")
    qs, ps = _phase_symbols(sys.n)
    return PointSymmetry(
        name=name,
        xi=sp.Integer(0),
        eta=tuple(simplify(partial_diff(integral, p)) for p in ps),
        zeta=tuple(simplify(-partial_diff(integral, q)) for q in qs),
    )


def evolutionary_form(sys: HamiltonianSystem, X: PointSymmetry) -> PointSymmetry:
    """On-shell evolutionary representative: xi = 0 with the time shift
    absorbed into the dependent components."""
    qs, ps = _phase_symbols(sys.n)
    H = sys.hamiltonian
    eta = tuple(simplify(X.eta[i] - X.xi * partial_diff(H, ps[i])) for i in range(sys.n))
    zeta = tuple(simplify(X.zeta[i] + X.xi * partial_diff(H, qs[i])) for i in range(sys.n))
    return PointSymmetry(name=f"{X.name}~", xi=sp.Integer(0), eta=eta, zeta=zeta)


def variational_derivative_p(e: sp.Expr, j: int) -> sp.Expr:
    """delta e / delta p_j = de/dp_j - D(de/d(dp_j))."""
    if jet_order(e) > 1:
        raise SystemError("variational derivative requires jet order <= 1")
    return partial_diff(e, momentum(j)) - total_derivative(partial_diff(e, momentum_deriv(j)))


def variational_derivative_q(e: sp.Expr, j: int) -> sp.Expr:
    """delta e / delta q^j = de/dq^j - D(de/d(dq_j))."""
    if jet_order(e) > 1:
        raise SystemError("variational derivative requires jet order <= 1")
    return partial_diff(e, coord(j)) - total_derivative(partial_diff(e, coord_deriv(j)))


def lemma1_residual(sys: HamiltonianSystem, X: PointSymmetry) -> sp.Expr:
    """Difference of the two sides of the Hamiltonian identity; identically
    zero off-shell for every smooth H and point symmetry."""
    H = sys.hamiltonian
    lhs = invariance_residual(sys, X)
    rhs = X.xi * (total_derivative(H) - partial_diff(H, TIME))
    boundary = -X.xi * H
    for i, (eta, zeta) in enumerate(zip(X.eta, X.zeta), start=1):
        rhs -= eta * (momentum_deriv(i) + partial_diff(H, coord(i)))
        rhs += zeta * (coord_deriv(i) - partial_diff(H, momentum(i)))
        boundary += momentum(i) * eta
    rhs += total_derivative(boundary)
    return simplify(lhs - rhs)


def _lemma2_rhs(sys: HamiltonianSystem, X: PointSymmetry, j: int, side: str) -> sp.Expr:
    H = sys.hamiltonian
    dxi = total_derivative(X.xi)
    commutator = total_derivative(H) - partial_diff(H, TIME)
    if side == "p":
        w = momentum(j)
        out = (
            total_derivative(X.eta[j - 1])
            - coord_deriv(j) * dxi
            - apply_operator(X, partial_diff(H, momentum(j)))
            + partial_diff(X.xi, w) * commutator
        )
    else:
        w = coord(j)
        out = (
            -total_derivative(X.zeta[j - 1])
            + momentum_deriv(j) * dxi
            - apply_operator(X, partial_diff(H, coord(j)))
            + partial_diff(X.xi, w) * commutator
        )
    for i in range(1, sys.n + 1):
        delta = sp.Integer(1 if i == j else 0)
        eq_q = momentum_deriv(i) + partial_diff(H, coord(i))
        eq_p = coord_deriv(i) - partial_diff(H, momentum(i))
        if side == "p":
            out -= partial_diff(X.eta[i - 1], w) * eq_q
            out += (partial_diff(X.zeta[i - 1], w) + delta * dxi) * eq_p
        else:
            out -= (partial_diff(X.eta[i - 1], w) + delta * dxi) * eq_q
            out += partial_diff(X.zeta[i - 1], w) * eq_p
    return out


def lemma2_residuals(sys: HamiltonianSystem, X: PointSymmetry) -> tuple[sp.Expr, ...]:
    """Off-shell residuals of the variational-derivative identities,
    momentum side first (j=1..n), then coordinate side."""
    residual = invariance_residual(sys, X)
    out = []
    for j in range(1, sys.n + 1):
        out.append(simplify(variational_derivative_p(residual, j) - _lemma2_rhs(sys, X, j, "p")))
    for j in range(1, sys.n + 1):
        out.append(simplify(variational_derivative_q(residual, j) - _lemma2_rhs(sys, X, j, "q")))
    return tuple(out)


def theorem4_conditions(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[Verdict, ...]:
    """On-shell verdicts of the 2n variational-derivative conditions that
    characterize invariance of the canonical equations."""
    residual = invariance_residual(sys, X)
    verdicts = []
    for side, vard in (("p", variational_derivative_p), ("q", variational_derivative_q)):
        for j in range(1, sys.n + 1):
            condition = sys.bind(on_shell(sys, vard(residual, j)))
            verdicts.append(
                is_zero(
                    condition,
                    sys.bound_singularities,
                    seed=derive_seed(seed, f"theorem4:{X.name}:{side}{j}"),
                    tol=tol,
                )
            )
    return tuple(verdicts)


def equation_invariance_direct(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> tuple[Verdict, ...]:
    """Apply X directly to the canonical equations; 2n on-shell verdicts,
    momentum side first."""
    H = sys.hamiltonian
    dxi = total_derivative(X.xi)
    conditions = []
    for j in range(1, sys.n + 1):
        conditions.append(
            total_derivative(X.eta[j - 1])
            - coord_deriv(j) * dxi
            - apply_operator(X, partial_diff(H, momentum(j)))
        )
    for j in range(1, sys.n + 1):
        conditions.append(
            total_derivative(X.zeta[j - 1])
            - momentum_deriv(j) * dxi
            + apply_operator(X, partial_diff(H, coord(j)))
        )
    return tuple(
        is_zero(
            sys.bind(on_shell(sys, condition)),
            sys.bound_singularities,
            seed=derive_seed(seed, f"direct:{X.name}:{k}"),
            tol=tol,
        )
        for k, condition in enumerate(conditions)
    )


def relation_check(
    integrals: Mapping[str, sp.Expr],
    relation: Relation,
    sys: HamiltonianSystem,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Substitute integral expressions into a relation and test it against
    its constant."""
    parameter_names = set(sys.parameters)
    subs = {}
    for s in relation.expression.free_symbols:
        if s.name in integrals:
            subs[s] = integrals[s.name]
        elif s.name not in parameter_names:
            raise SystemError(f"relation {relation.name} references unknown integral {s.name!r}")
    e = relation.expression.subs(subs, simultaneous=True) - relation.equals
    return is_zero(
        sys.bind(e),
        sys.bound_singularities,
        seed=derive_seed(seed, f"relation:{relation.name}"),
        tol=tol,
    )


def _pivoted_rank(rows: list[list[float]], tol: float) -> int:
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    scale = max((abs(x) for row in m for x in row), default=0.0)
    threshold = tol * max(1.0, scale)
    rank = 0
    for col in range(n_cols):
        pivot = max(range(rank, n_rows), key=lambda r: abs(m[r][col]), default=None)
        if pivot is None or abs(m[pivot][col]) <= threshold:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, n_rows):
            factor = m[r][col] / m[rank][col]
            for c in range(col, n_cols):
                m[r][c] -= factor * m[rank][c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def functional_independence(
    integrals: Sequence[FirstIntegral],
    sys: HamiltonianSystem,
    seed: int = 0,
    points: int = 5,
    tol: float = 1e-8,
) -> int:
    """Maximum observed rank of the Jacobian of the integrals with respect
    to (q, p) at random non-singular points."""
    if not integrals:
        raise SystemError("need at least one integral")
    qs, ps = _phase_symbols(sys.n)
    variables = [*qs, *ps]
    jacobian = [
        [sys.bind(partial_diff(sys.bind(integral.expression), z)) for z in variables]
        for integral in integrals
    ]
    sample_symbols = {TIME, *variables}
    for row in jacobian:
        for entry in row:
            sample_symbols |= entry.free_symbols
    rng = Random(derive_seed(seed, "independence"))
    best = 0
    sampled = 0
    attempts = 0
    while sampled < points and attempts < 200:
        attempts += 1
        try:
            point = sample_point(sample_symbols, rng, sys.bound_singularities)
            rows = [[evaluate(entry, point) for entry in row] for row in jacobian]
        except (SamplingError, SingularEvaluationError):
            continue
        sampled += 1
        best = max(best, _pivoted_rank(rows, tol))
    if sampled == 0:
        raise SamplingError("could not sample any non-singular point for the Jacobian")
    return best


def build_report(
    sys: HamiltonianSystem, X: PointSymmetry, seed: int = 0, tol: float = DEFAULT_TOL
) -> InvarianceReport:
    """Run the full per-symmetry pipeline: Theorem 1, divergence handling,
    Theorem 4, direct invariance, and integral construction when justified."""
    residual_off = invariance_residual(sys, X)
    residual_on = on_shell(sys, residual_off)
    theorem1 = check_invariance(sys, X, seed=seed, tol=tol)

    divergence: DivergenceTerm | None = None
    divergence_verdict: Verdict | None = None
    if X.v is not None:
        divergence = DivergenceTerm(X.v, "user-supplied")
        divergence_status = "user-supplied"
        divergence_verdict = check_divergence_invariance(sys, X, X.v, seed=seed, tol=tol)
    elif theorem1.is_zero:
        divergence = DivergenceTerm(sp.Integer(0), "synthesized")
        divergence_status = "zero"
        divergence_verdict = theorem1
    else:
        divergence_status, divergence = find_divergence_term(sys, X, seed=seed, tol=tol)
        if divergence is not None:
            divergence_verdict = check_divergence_invariance(sys, X, divergence.v, seed=seed, tol=tol)

    integral = None
    if divergence is not None and divergence_verdict is not None and divergence_verdict.is_zero:
        integral = first_integral(sys, X, v=divergence.v, seed=seed, tol=tol)

    return InvarianceReport(
        symmetry=X.name,
        residual_off_shell=residual_off,
        residual_on_shell=residual_on,
        verdict_theorem1=theorem1,
        divergence=divergence,
        divergence_status=divergence_status,
        divergence_verdict=divergence_verdict,
        theorem4_verdicts=theorem4_conditions(sys, X, seed=seed, tol=tol),
        direct_invariance_verdicts=equation_invariance_direct(sys, X, seed=seed, tol=tol),
        integral=integral,
    )
