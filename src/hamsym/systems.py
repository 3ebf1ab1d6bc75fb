"""Core value types for Hamiltonian systems, symmetries and integrals."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import sympy as sp

from .expressions import Verdict, jet_order, parameter, substitute_jets, symbol_info

__all__ = [
    "HamsymError",
    "HamiltonianSystem",
    "PointSymmetry",
    "DivergenceTerm",
    "FirstIntegral",
    "Relation",
    "SystemDefinition",
    "InvarianceReport",
]


class HamsymError(Exception):
    """Base class of the domain errors hamsym reports: bad input, a failed
    precondition or a numeric abort, as opposed to an internal fault."""


def _check_phase_expr(e: sp.Expr, n: int, what: str, parameters) -> None:
    if jet_order(e) > 0:
        raise HamsymError(f"{what} must not contain jet symbols: {e}")
    for s in e.free_symbols:
        info = symbol_info(s)
        if info is None:
            if s.name not in parameters:
                raise HamsymError(f"{what} references undeclared parameter {s.name}")
        elif info[0] in "qp" and not 1 <= info[1] <= n:
            raise HamsymError(f"{what} references {s} outside dimension {n}")


@dataclass(frozen=True)
class HamiltonianSystem:
    """Dimension, Hamiltonian over (t, q, p) and rational parameter values."""

    n: int
    hamiltonian: sp.Expr
    # not hashed (a dict is unhashable); equality still compares it
    parameters: Mapping[str, sp.Rational] = field(default_factory=dict, hash=False)
    singularities: tuple[sp.Expr, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise HamsymError("dimension must be >= 1")
        for name in self.parameters:
            try:
                parameter(name)
            except ValueError as exc:
                raise HamsymError(str(exc)) from None
        _check_phase_expr(self.hamiltonian, self.n, "hamiltonian", self.parameters)
        for g in self.singularities:
            _check_phase_expr(g, self.n, "singularity guard", self.parameters)

    def bind(self, e: sp.Expr) -> sp.Expr:
        """Substitute the parameter values into e in its algebra (substitute_jets)."""
        subs = {sp.Symbol(name, real=True): value for name, value in self.parameters.items()}
        return substitute_jets(e, subs)

    @property
    def bound_singularities(self) -> tuple[sp.Expr, ...]:
        return tuple(self.bind(g) for g in self.singularities)


@dataclass(frozen=True)
class PointSymmetry:
    """Coefficients of xi*d/dt + eta^i*d/dq^i + zeta_i*d/dp_i on (t, q, p)."""

    name: str
    xi: sp.Expr
    eta: tuple[sp.Expr, ...]
    zeta: tuple[sp.Expr, ...]
    v: sp.Expr | None = None

    def __post_init__(self):
        if len(self.eta) != len(self.zeta):
            raise HamsymError(f"symmetry {self.name}: eta and zeta lengths differ")
        for e in (self.xi, *self.eta, *self.zeta, *(() if self.v is None else (self.v,))):
            if jet_order(e) > 0:
                raise HamsymError(f"symmetry {self.name}: coefficient {e} contains jet symbols")


@dataclass(frozen=True)
class DivergenceTerm:
    """A function V(t,q,p) with residual = D(V), user-supplied or synthesized."""

    v: sp.Expr
    provenance: str  # "user-supplied" | "synthesized"


@dataclass(frozen=True)
class FirstIntegral:
    name: str
    expression: sp.Expr
    verified: Verdict | None = None


@dataclass(frozen=True)
class Relation:
    """Algebraic relation among named first integrals: expression == equals."""

    name: str
    expression: sp.Expr
    equals: sp.Rational


@dataclass(frozen=True)
class SystemDefinition:
    system: HamiltonianSystem
    symmetries: tuple[PointSymmetry, ...]
    relations: tuple[Relation, ...] = ()

    def symmetry(self, name: str) -> PointSymmetry:
        for s in self.symmetries:
            if s.name == name:
                return s
        raise HamsymError(f"no symmetry named {name!r}")


@dataclass(frozen=True)
class InvarianceReport:
    """Aggregated verdicts for one symmetry: Theorem 1, divergence remark,
    Theorem 4 and the direct equation-invariance conditions."""

    symmetry: str
    verdict_theorem1: Verdict
    divergence: DivergenceTerm | None
    divergence_status: str
    divergence_verdict: Verdict | None
    theorem4_verdicts: tuple[Verdict, ...]
    direct_invariance_verdicts: tuple[Verdict, ...]
    integral: FirstIntegral | None
