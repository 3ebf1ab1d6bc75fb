"""Bracket oracle: answers that do not come from hamsym.

The commutator [X, Y] of two divergence symmetries is a divergence symmetry,
and its first integral is +-{I_X, I_Y} + c, where {,} is the Poisson bracket
in (q, p) and c a constant (Olver, *Applications of Lie Groups to
Differential Equations*, ch. 5-6). The commutators and Poisson brackets are
computed here with sympy alone; hamsym only finds the bracket's integral and
decides, by its exact zero test, that the difference is constant.
"""
from itertools import combinations

import pytest
import sympy as sp

from hamsym.expressions import coord, is_zero, jet_algebra, momentum, parameter, partial_diff, state_symbols, to_expr
from hamsym.noether import find_divergence_term, first_integral
from hamsym.systems import PointSymmetry

SEED = 42

# pairs whose bracket has a synthesized (or zero) V
INTEGRABLE = [
    ("example1", "X1", "X2"),
    ("example1", "X1", "X3"),
    ("example1", "X2", "X3"),
    ("kepler3", "X12", "X13"),
    ("kepler3", "X12", "X23"),
    ("kepler3", "X13", "X23"),
]

# the number of nonzero brackets that involve a Lenz symmetry Y
LENZ = {"kepler2": 3, "kepler3": 12}


def _brackets(defn, pairs):
    """[X, Y] for each (X, Y) of `pairs`, as a point symmetry over (t, q, p),
    or None when every component is proven zero. The coefficients are
    lifted once into the exact algebra that holds them all, and each
    component comes back as the Expr of its normal form there."""
    sys, n = defn.system, defn.system.n
    symmetries = {S.name: S for pair in pairs for S in pair}
    _, lifted = _exact(sys, [c for S in symmetries.values() for c in (S.xi, *S.eta, *S.zeta)])
    width = 2 * n + 1
    coefficients = {name: lifted[k * width : (k + 1) * width] for k, name in enumerate(symmetries)}
    out = []
    for X, Y in pairs:
        cx, cy = coefficients[X.name], coefficients[Y.name]
        z = state_symbols(n)
        c = [sum(a * partial_diff(g, s) - b * partial_diff(f, s) for a, b, s in zip(cx, cy, z)) for f, g in zip(cx, cy)]
        if all(is_zero(e).status == "proven-zero" for e in c):
            out.append(None)
            continue
        c = [to_expr(e) for e in c]
        out.append(PointSymmetry(f"[{X.name}, {Y.name}]", c[0], tuple(c[1 : n + 1]), tuple(c[n + 1 :])))
    return out


def _poisson(F, G, n):
    """{F, G} = sum_i dF/dq_i*dG/dp_i - dF/dp_i*dG/dq_i."""
    q, p = [coord(i) for i in range(1, n + 1)], [momentum(i) for i in range(1, n + 1)]
    return sum(sp.diff(F, a) * sp.diff(G, b) - sp.diff(F, b) * sp.diff(G, a) for a, b in zip(q, p))


def _exact(sys, exprs):
    """(lift, exprs): exprs in the exact algebra of sys that holds them all."""
    found = jet_algebra(sys.n, exprs, tuple(map(parameter, sys.parameters)))
    assert found is not None
    return found


def _constant(sys, e) -> bool:
    """Whether e is proven constant: each of its partials over (t, q, p) in
    its exact algebra is proven zero."""
    _, (e,) = _exact(sys, [e])
    return all(is_zero(partial_diff(e, s), seed=SEED).status == "proven-zero" for s in state_symbols(sys.n))


@pytest.mark.parametrize("example, x, y", INTEGRABLE)
def test_bracket_integral_is_the_poisson_bracket_of_the_integrals(request, example, x, y):
    defn = request.getfixturevalue(example)
    sys, n = defn.system, defn.system.n
    X, Y = defn.symmetry(x), defn.symmetry(y)
    integral = first_integral(sys, *_brackets(defn, [(X, Y)]), seed=SEED).expression
    bracket = _poisson(*(first_integral(sys, S, seed=SEED).expression for S in (X, Y)), n)
    assert not _constant(sys, bracket)
    assert _constant(sys, integral - bracket) or _constant(sys, integral + bracket)


@pytest.mark.parametrize("example", sorted(LENZ))
def test_lenz_brackets_are_not_synthesizable(request, example):
    # every V of these brackets needs the Lenz divergence terms, which
    # find_divergence_term cannot build yet; this flips once it can
    defn = request.getfixturevalue(example)
    sys = defn.system
    pairs = [(X, Y) for X, Y in combinations(defn.symmetries, 2) if "Y" in (X.name[0], Y.name[0])]
    brackets = [Z for Z in _brackets(defn, pairs) if Z is not None]
    assert len(brackets) == LENZ[example]
    for Z in brackets:
        assert find_divergence_term(sys, Z, seed=SEED) == ("not-synthesizable", None), Z.name
