"""Built-in example systems, stored in the system-file format so that the
registry exercises the same parsing path as user files."""
from __future__ import annotations

from .parsing import parse_system_file
from .systems import HamsymError, SystemDefinition

__all__ = ["EXAMPLES", "example_names", "load_example"]

_EXAMPLE1 = """\
# Scalar ODE ddq = 1/q^3 in canonical variables.
[system]
n = 1
hamiltonian = "(p1^2 + 1/q1^2)/2"
singularities = ["q1"]

[[symmetry]]
name = "X1"
xi = "1"
eta = ["0"]
zeta = ["0"]

[[symmetry]]
name = "X2"
xi = "2*t"
eta = ["q1"]
zeta = ["-p1"]

[[symmetry]]
name = "X3"
xi = "t^2"
eta = ["t*q1"]
zeta = ["q1 - t*p1"]

[[relation]]
name = "conic"
expr = "4*X1*X3 - X2^2"
equals = 1
"""

_COULOMB = """\
# Repulsive one-dimensional Coulomb motion, ddq = 1/q^2.
[system]
n = 1
hamiltonian = "p1^2/2 + 1/q1"
singularities = ["q1"]

[[symmetry]]
name = "X1"
xi = "1"
eta = ["0"]
zeta = ["0"]

[[symmetry]]
name = "X2"
xi = "3*t"
eta = ["2*q1"]
zeta = ["-p1"]
"""

_OSCILLATOR = """\
# One-dimensional harmonic oscillator.
[system]
n = 1
hamiltonian = "(p1^2 + q1^2)/2"
singularities = ["q1"]

[[symmetry]]
name = "X1"
xi = "1"
eta = ["0"]
zeta = ["0"]
"""

_KEPLER3 = """\
# Three-dimensional Kepler motion, H = |p|^2/2 - K^2/r.
[system]
n = 3
hamiltonian = "(p1^2 + p2^2 + p3^2)/2 - K^2/sqrt(q1^2 + q2^2 + q3^2)"
parameters = { K = 1 }
singularities = ["sqrt(q1^2 + q2^2 + q3^2)"]

[[symmetry]]
name = "X0"
xi = "1"
eta = ["0", "0", "0"]
zeta = ["0", "0", "0"]

[[symmetry]]
name = "X1"
xi = "3*t"
eta = ["2*q1", "2*q2", "2*q3"]
zeta = ["-p1", "-p2", "-p3"]

[[symmetry]]
name = "X12"
xi = "0"
eta = ["-q2", "q1", "0"]
zeta = ["-p2", "p1", "0"]

[[symmetry]]
name = "X13"
xi = "0"
eta = ["-q3", "0", "q1"]
zeta = ["-p3", "0", "p1"]

[[symmetry]]
name = "X23"
xi = "0"
eta = ["0", "-q3", "q2"]
zeta = ["0", "-p3", "p2"]

[[symmetry]]
name = "Y1"
xi = "0"
eta = ["-q2*p2 - q3*p3", "2*q1*p2 - q2*p1", "2*q1*p3 - q3*p1"]
zeta = ["-p2^2 - p3^2 + K^2*(q2^2 + q3^2)/sqrt(q1^2 + q2^2 + q3^2)^3", "p1*p2 - K^2*q1*q2/sqrt(q1^2 + q2^2 + q3^2)^3", "p1*p3 - K^2*q1*q3/sqrt(q1^2 + q2^2 + q3^2)^3"]
v = "q1*(p1^2 + p2^2 + p3^2 + K^2/sqrt(q1^2 + q2^2 + q3^2)) - p1*(q1*p1 + q2*p2 + q3*p3)"

[[symmetry]]
name = "Y2"
xi = "0"
eta = ["2*q2*p1 - q1*p2", "-q1*p1 - q3*p3", "2*q2*p3 - q3*p2"]
zeta = ["p1*p2 - K^2*q1*q2/sqrt(q1^2 + q2^2 + q3^2)^3", "-p1^2 - p3^2 + K^2*(q1^2 + q3^2)/sqrt(q1^2 + q2^2 + q3^2)^3", "p2*p3 - K^2*q2*q3/sqrt(q1^2 + q2^2 + q3^2)^3"]
v = "q2*(p1^2 + p2^2 + p3^2 + K^2/sqrt(q1^2 + q2^2 + q3^2)) - p2*(q1*p1 + q2*p2 + q3*p3)"

[[symmetry]]
name = "Y3"
xi = "0"
eta = ["2*q3*p1 - q1*p3", "2*q3*p2 - q2*p3", "-q1*p1 - q2*p2"]
zeta = ["p1*p3 - K^2*q1*q3/sqrt(q1^2 + q2^2 + q3^2)^3", "p2*p3 - K^2*q2*q3/sqrt(q1^2 + q2^2 + q3^2)^3", "-p1^2 - p2^2 + K^2*(q1^2 + q2^2)/sqrt(q1^2 + q2^2 + q3^2)^3"]
v = "q3*(p1^2 + p2^2 + p3^2 + K^2/sqrt(q1^2 + q2^2 + q3^2)) - p3*(q1*p1 + q2*p2 + q3*p3)"

# A^2 - 2*H*L^2 = K^4 and (A, L) = 0, written over the integral names:
# the X0 integral is -H, the rotation integrals are L3 = X12, -L2 = X13, L1 = X23.
[[relation]]
name = "lenz-energy-momentum"
expr = "Y1^2 + Y2^2 + Y3^2 + 2*X0*(X12^2 + X13^2 + X23^2)"
equals = 1

[[relation]]
name = "lenz-orthogonal"
expr = "Y1*X23 - Y2*X13 + Y3*X12"
equals = 0
"""

_KEPLER2 = """\
# Two-dimensional Kepler motion (restriction of the 3D problem).
[system]
n = 2
hamiltonian = "(p1^2 + p2^2)/2 - K^2/sqrt(q1^2 + q2^2)"
parameters = { K = 1 }
singularities = ["sqrt(q1^2 + q2^2)"]

[[symmetry]]
name = "X0"
xi = "1"
eta = ["0", "0"]
zeta = ["0", "0"]

[[symmetry]]
name = "X12"
xi = "0"
eta = ["-q2", "q1"]
zeta = ["-p2", "p1"]

[[symmetry]]
name = "Y1"
xi = "0"
eta = ["-q2*p2", "2*q1*p2 - q2*p1"]
zeta = ["-p2^2 + K^2*q2^2/sqrt(q1^2 + q2^2)^3", "p1*p2 - K^2*q1*q2/sqrt(q1^2 + q2^2)^3"]
v = "q1*(p1^2 + p2^2 + K^2/sqrt(q1^2 + q2^2)) - p1*(q1*p1 + q2*p2)"

[[symmetry]]
name = "Y2"
xi = "0"
eta = ["2*q2*p1 - q1*p2", "-q1*p1"]
zeta = ["p1*p2 - K^2*q1*q2/sqrt(q1^2 + q2^2)^3", "-p1^2 + K^2*q1^2/sqrt(q1^2 + q2^2)^3"]
v = "q2*(p1^2 + p2^2 + K^2/sqrt(q1^2 + q2^2)) - p2*(q1*p1 + q2*p2)"

[[relation]]
name = "lenz-energy-momentum"
expr = "Y1^2 + Y2^2 + 2*X0*X12^2"
equals = 1
"""

EXAMPLES: dict[str, str] = {
    "example1": _EXAMPLE1,
    "coulomb": _COULOMB,
    "oscillator": _OSCILLATOR,
    "kepler2": _KEPLER2,
    "kepler3": _KEPLER3,
}


def example_names() -> list[str]:
    return sorted(EXAMPLES)


def load_example(name: str) -> SystemDefinition:
    try:
        text = EXAMPLES[name]
    except KeyError:
        raise HamsymError(f"unknown example {name!r}; available: {', '.join(example_names())}") from None
    return parse_system_file(text)
