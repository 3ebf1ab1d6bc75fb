"""Property checks of the off-shell identities on random polynomial data.

Generates random polynomial Hamiltonians and point symmetries, then tests
that the Lemma-style residuals vanish identically. A deliberate corruption
hook exists so the checker itself can be mutation-tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random

import sympy as sp

from .expressions import (
    DEFAULT_TOL,
    Verdict,
    coord_deriv,
    derive_seed,
    is_zero,
    momentum,
    partial_diff,
    random_polynomial,
    state_symbols,
)
from .noether import lemma1_residual, lemma2_residuals
from .parsing import format_expression
from .systems import HamiltonianSystem, HamsymError, PointSymmetry

__all__ = ["IdentityCase", "IdentityReport", "random_pair", "identity_check"]

IDENTITY_POINTS = 100


@dataclass(frozen=True)
class IdentityCase:
    index: int
    system: HamiltonianSystem
    symmetry: PointSymmetry
    lemma1: Verdict
    lemma2: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return self.lemma1.is_zero and all(v.is_zero for v in self.lemma2)

    def reproducer(self) -> str | None:
        """Human-readable description of the first failing check, if any."""
        checks = [("lemma1", self.lemma1), *((f"lemma2[{k}]", v) for k, v in enumerate(self.lemma2))]
        failing = [(label, v) for label, v in checks if not v.is_zero]
        if not failing:
            return None
        label, verdict = failing[0]
        X = self.symmetry
        return (
            f"case {self.index}: {label} {verdict.status}"
            f" (H = {_quoted(self.system.hamiltonian)}, xi = {_quoted(X.xi)},"
            f" eta = [{', '.join(map(_quoted, X.eta))}], zeta = [{', '.join(map(_quoted, X.zeta))}],"
            f" witness = {verdict.witness}, value = {verdict.value})"
        )


def _quoted(e: sp.Expr) -> str:
    """e as a quoted string of a system file."""
    return f'"{format_expression(e)}"'


@dataclass(frozen=True)
class IdentityReport:
    n: int
    degree: int
    count: int
    seed: int
    cases: tuple[IdentityCase, ...]

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def failures(self) -> list[str]:
        return [r for case in self.cases if (r := case.reproducer()) is not None]


def random_pair(n: int, degree: int, rng: Random) -> tuple[HamiltonianSystem, PointSymmetry]:
    """A random polynomial Hamiltonian of the given degree and a random
    point symmetry with polynomial coefficients of degree <= 2."""
    symbols = state_symbols(n)
    coeff_degree = min(degree, 2)
    sys = HamiltonianSystem(n=n, hamiltonian=random_polynomial(symbols, degree, rng))
    X = PointSymmetry(
        name="X",
        xi=random_polynomial(symbols, coeff_degree, rng, terms=3),
        eta=tuple(random_polynomial(symbols, coeff_degree, rng, terms=3) for _ in range(n)),
        zeta=tuple(random_polynomial(symbols, coeff_degree, rng, terms=3) for _ in range(n)),
    )
    return sys, X


def _corruption(sys: HamiltonianSystem, X: PointSymmetry) -> sp.Expr:
    """Twice the zeta_i*(dq_i - dH/dp_i) term: adding this to the residual
    emulates a sign error in that term of the identity."""
    out = sp.Integer(0)
    for i, zeta in enumerate(X.zeta, start=1):
        out += 2 * zeta * (coord_deriv(i) - partial_diff(sys.hamiltonian, momentum(i)))
    return out


def identity_check(
    n: int,
    degree: int,
    count: int,
    seed: int = 0,
    points: int = IDENTITY_POINTS,
    tol: float = DEFAULT_TOL,
    corrupt: bool = False,
) -> IdentityReport:
    """Check the off-shell identities on `count` random (H, X) pairs.

    `corrupt` flips a sign inside the Lemma-1 identity; it exists only so
    tests can confirm the checker detects a broken identity.
    """
    if n < 1:
        raise HamsymError("dimension must be >= 1")
    if degree < 0 or count < 1:
        raise HamsymError("degree must be >= 0 and count >= 1")
    rng = Random(derive_seed(seed, f"identity:{n}:{degree}"))
    cases = []
    for index in range(count):
        sys, X = random_pair(n, degree, rng)
        residual1 = lemma1_residual(sys, X)
        if corrupt:
            residual1 += _corruption(sys, X)
        lemma1 = is_zero(residual1, seed=derive_seed(seed, f"lemma1:{index}"), points=points, tol=tol)
        lemma2 = tuple(
            is_zero(r, seed=derive_seed(seed, f"lemma2:{index}:{k}"), points=points, tol=tol)
            for k, r in enumerate(lemma2_residuals(sys, X))
        )
        cases.append(IdentityCase(index=index, system=sys, symmetry=X, lemma1=lemma1, lemma2=lemma2))
    return IdentityReport(n=n, degree=degree, count=count, seed=seed, cases=tuple(cases))
