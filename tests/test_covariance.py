"""Covariance oracle: answers that do not come from hamsym.

A linear canonical point map Q = A*q, P = A^(-T)*p with A rational and
invertible preserves p.dq (Arnold, *Mathematical Methods of Classical
Mechanics*, ch. 9). So pushing a system, its guards, its symmetries and their
divergence terms through the map must give the same verdict class for every
check of `build_report`, and each integral must be the original one composed
with the inverse map. Each transformed system is written out with
`format_expression` and read back with `parse_system_file`, so the printer
and parser round trip is exercised as well.
"""
import pytest
import sympy as sp

from hamsym.expressions import coord, is_zero, jet_algebra, momentum, parameter
from hamsym.noether import build_report
from hamsym.parsing import format_expression, parse_system_file
from hamsym.registry import load_example

SEED = 42
R = sp.Rational

# (bundled system, A): kepler2 under the rotation with cosine 3/5 and sine
# 4/5, and under a shear, which turns the radical's base q1^2 + q2^2 into
# another quadratic form
MAPS = [
    pytest.param("example1", [[R(3, 2)]], id="example1"),
    pytest.param("kepler2", [[R(3, 5), R(-4, 5)], [R(4, 5), R(3, 5)]], id="kepler2-rotation"),
    pytest.param("kepler2", [[1, R(1, 2)], [0, 1]], id="kepler2-shear"),
    pytest.param("kepler3", [[1, R(1, 2), 0], [0, 1, 0], [0, 0, 2]], id="kepler3"),
    pytest.param("coulomb", [[-2]], id="coulomb"),
]

ZERO = ("proven-zero", "numerically-zero")


def _class(verdict):
    """A verdict's class: zero, nonzero or inconclusive; None for no verdict."""
    if verdict is None:
        return None
    return "zero" if verdict.status in ZERO else verdict.status


def _classes(report):
    """The verdict class of every check of a report, and its divergence status."""
    return (
        _class(report.verdict_theorem1),
        report.divergence_status,
        _class(report.divergence_verdict),
        tuple(map(_class, report.theorem4_verdicts)),
        tuple(map(_class, report.direct_invariance_verdicts)),
        None if report.integral is None else _class(report.integral.verified),
    )


def _pull_back(A, n):
    """e -> e composed with the inverse map, q = A^-1*Q and p = A^T*P, with
    each radical's base expanded, so that equal bases print alike."""
    q = sp.Matrix([coord(i) for i in range(1, n + 1)])
    p = sp.Matrix([momentum(i) for i in range(1, n + 1)])
    subs = dict(zip((*q, *p), (*(A.inv() * q), *(A.T * p))))

    def pull(e):
        e = sp.sympify(e).xreplace(subs)
        return e.replace(lambda x: x.is_Pow and not x.exp.is_Integer, lambda x: sp.Pow(sp.expand(x.base), x.exp))

    return pull


def _transformed_file(defn, A) -> str:
    """The system file of `defn` pushed forward by Q = A*q, P = A^(-T)*p: H,
    the guards, xi and v pulled back, eta pushed by A and zeta by A^(-T)."""
    sys = defn.system
    pull = _pull_back(A, sys.n)

    def quoted(e):
        return f'"{format_expression(e)}"'

    def listed(es):
        return f"[{', '.join(map(quoted, es))}]"

    lines = ["[system]", f"n = {sys.n}", f"hamiltonian = {quoted(pull(sys.hamiltonian))}"]
    if sys.parameters:
        lines.append(f"parameters = {{ {', '.join(f'{k} = {v}' for k, v in sys.parameters.items())} }}")
    lines.append(f"singularities = {listed(map(pull, sys.singularities))}")
    for X in defn.symmetries:
        eta = A * sp.Matrix([pull(e) for e in X.eta])
        zeta = A.inv().T * sp.Matrix([pull(e) for e in X.zeta])
        lines += ["", "[[symmetry]]", f'name = "{X.name}"', f"xi = {quoted(pull(X.xi))}"]
        lines += [f"eta = {listed(eta)}", f"zeta = {listed(zeta)}"]
        if X.v is not None:
            lines.append(f"v = {quoted(pull(X.v))}")
    for relation in defn.relations:
        lines += ["", "[[relation]]", f'name = "{relation.name}"']
        lines += [f"expr = {quoted(relation.expression)}", f"equals = {relation.equals}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("example, matrix", MAPS)
def test_linear_canonical_map_keeps_verdicts_and_moves_integrals(example, matrix):
    defn = load_example(example)
    A = sp.Matrix(matrix)
    moved = parse_system_file(_transformed_file(defn, A))
    sys, pull = moved.system, _pull_back(A, defn.system.n)
    assert [X.name for X in moved.symmetries] == [X.name for X in defn.symmetries]
    assert moved.relations == defn.relations
    integrals = 0
    for X, Y in zip(defn.symmetries, moved.symmetries):
        before = build_report(defn.system, X, seed=SEED)
        after = build_report(sys, Y, seed=SEED)
        assert _classes(after) == _classes(before), X.name
        if before.integral is None:
            continue
        integrals += 1
        difference = after.integral.expression - pull(before.integral.expression)
        # hamsym's exact zero test, in the exact algebra of the difference
        exact = jet_algebra(sys.n, [difference], tuple(map(parameter, sys.parameters)))
        assert exact is not None, X.name
        assert is_zero(exact[1][0], seed=SEED).status == "proven-zero", X.name
        # and sympy's, independent of hamsym's algebra code
        assert sp.cancel(difference) == 0, X.name
    assert integrals > 0
