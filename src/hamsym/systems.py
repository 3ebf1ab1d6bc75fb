"""Core value types for Hamiltonian systems, symmetries and integrals."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import sympy as sp
from sympy.polys.rings import PolyElement

from .expressions import TIME, Verdict, coord, jet_order, jet_ring, momentum, parameter, substitute_jets, symbol_info

__all__ = [
    "HamsymError",
    "check_phase_expression",
    "HamiltonianSystem",
    "PointSymmetry",
    "FirstIntegral",
    "Relation",
    "SystemDefinition",
    "InvarianceReport",
]


class HamsymError(Exception):
    """Base class of the domain errors hamsym reports: bad input, a failed
    precondition or a numeric abort, as opposed to an internal fault."""


def check_phase_expression(e: sp.Expr | PolyElement, n: int, what: str, parameters=()) -> None:
    """The one rule for an expression over (t, q, p): each of its symbols is
    t, q1..qn, p1..pn or a name in `parameters`, and none is a jet symbol.
    Each must also be the real symbol of its name that hamsym builds: a
    Symbol("p1") without real=True is a different symbol from p1. A ring
    element must belong to jet_ring(n, parameters), whose generators are
    those symbols and the jets. Else raises HamsymError naming the
    expression (jets), the ring, or the first stray symbol by name."""
    if isinstance(e, PolyElement):
        if e.ring != jet_ring(n, tuple(map(parameter, parameters))):
            raise HamsymError(f"{what} is an element of a ring other than the jet ring of dimension {n}")
        symbols = ()
    else:
        e = sp.sympify(e)
        symbols = sorted(e.free_symbols, key=lambda s: s.name)
    if jet_order(e) > 0:
        raise HamsymError(f"{what} must not contain jet symbols: {e}")
    for s in symbols:
        info = symbol_info(s)
        if info is None:
            if s.name not in parameters:
                raise HamsymError(f"{what} references undeclared parameter {s.name}")
            own = parameter(s.name)
        elif info[0] == "t":
            own = TIME
        elif not 1 <= info[1] <= n:
            raise HamsymError(f"{what} references {s} outside dimension {n}")
        else:
            own = (coord if info[0] == "q" else momentum)(info[1])
        if s != own:
            raise HamsymError(f"{what} references a {s.name} other than hamsym's real symbol {s.name}")


@dataclass(frozen=True)
class HamiltonianSystem:
    """Dimension, Hamiltonian over (t, q, p) and rational parameter values.
    The Hamiltonian is an Expr or an element of jet_ring(n, parameters)."""

    n: int
    hamiltonian: sp.Expr | PolyElement
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
        check_phase_expression(self.hamiltonian, self.n, "hamiltonian", self.parameters)
        for g in self.singularities:
            check_phase_expression(g, self.n, "singularity guard", self.parameters)

    def bind(self, e: sp.Expr) -> sp.Expr:
        """Substitute the parameter values into e in its algebra (substitute_jets)."""
        subs = {sp.Symbol(name, real=True): value for name, value in self.parameters.items()}
        return substitute_jets(e, subs)

    @property
    def bound_singularities(self) -> tuple[sp.Expr, ...]:
        return tuple(self.bind(g) for g in self.singularities)


@dataclass(frozen=True)
class PointSymmetry:
    """Coefficients of xi*d/dt + eta^i*d/dq^i + zeta_i*d/dp_i on (t, q, p),
    each an Expr or, like the Hamiltonian, an element of the jet ring."""

    name: str
    xi: sp.Expr
    eta: tuple[sp.Expr, ...]
    zeta: tuple[sp.Expr, ...]
    v: sp.Expr | None = None


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
    divergence: sp.Expr | None  # V: the given v, 0 or synthesized; None when none is found
    divergence_status: str
    divergence_verdict: Verdict | None
    theorem4_verdicts: tuple[Verdict, ...]
    direct_invariance_verdicts: tuple[Verdict, ...]
    integral: FirstIntegral | None
