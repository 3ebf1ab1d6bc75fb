"""Hand-written golden verdicts for the benchmark workloads, and the checker
that judges one process's output against them.

The goldens come from the paper's results for the bundled systems and from
the acceptance criteria, not from a captured run. Each verdict is compared by
class: ``proven-zero`` and ``numerically-zero`` are both the zero class, so a
stronger proof tier (numeric -> proven) is not a failure, while any move
between zero, nonzero and inconclusive is.
"""
from __future__ import annotations

import json

ZERO = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

_CLASS_OF = {
    "proven-zero": ZERO,
    "numerically-zero": ZERO,
    "nonzero": NONZERO,
    "inconclusive": INCONCLUSIVE,
}

# Largest accepted relative drift of any integral along the example1 orbit
# (RK4, h = 1e-3, t in [0, 100]). The integrator's truncation error sits
# near 1e-11; a wrong integral or a broken integrator drifts by far more.
DRIFT_BOUND = 1e-9

# Spatial Kepler problem: energy (X0), the angular momenta (X12, X13, X23)
# and the Laplace-Runge-Lenz vector (Y1-Y3, from user-supplied divergence
# terms). X1 is a Lie point symmetry of the equations whose action is not
# invariant even up to a divergence, so it yields no integral. Theorem 4 and
# direct invariance of the canonical equations hold for all eight.
KEPLER3 = {
    "n": 3,
    "symmetries": {
        "X0": {"theorem1": ZERO, "integral": ZERO},
        "X1": {"theorem1": NONZERO, "divergence": "no-v-exists", "integral": None},
        "X12": {"theorem1": ZERO, "integral": ZERO},
        "X13": {"theorem1": ZERO, "integral": ZERO},
        "X23": {"theorem1": ZERO, "integral": ZERO},
        "Y1": {"theorem1": NONZERO, "integral": ZERO},
        "Y2": {"theorem1": NONZERO, "integral": ZERO},
        "Y3": {"theorem1": NONZERO, "integral": ZERO},
    },
    "relations": {"lenz-energy-momentum": ZERO, "lenz-orthogonal": ZERO},
}

# Inverse-square potential H = (p^2 + 1/q^2)/2: time translation (X1) and
# scaling (X2) leave the action invariant; the projective symmetry X3 does so
# only up to the divergence of V = q^2/2, which is synthesized. All three
# integrals verify, and the conic relation among them holds.
EXAMPLE1 = {
    "n": 1,
    "symmetries": {
        "X1": {"theorem1": ZERO, "integral": ZERO},
        "X2": {"theorem1": ZERO, "integral": ZERO},
        "X3": {"theorem1": NONZERO, "divergence": "synthesized", "integral": ZERO},
    },
    "relations": {"conic": ZERO},
    "drift": ("X1", "X2", "X3", "conic"),
}

# The off-shell identities (Lemmas 1 and 2) hold for every Hamiltonian and
# point symmetry, so every random case must pass.
IDENTITY_N3 = {"n": 3, "count": 10}


def verdict_class(status: str) -> str | None:
    return _CLASS_OF.get(status)


def _check_classes(label: str, statuses, expected: str, n_expected: int, problems: list[str]) -> None:
    if len(statuses) != n_expected:
        problems.append(f"{label}: {len(statuses)} verdicts, expected {n_expected}")
    for k, status in enumerate(statuses):
        if verdict_class(status) != expected:
            problems.append(f"{label}[{k}]: {status!r} is not {expected}")


def _check_report(doc: dict, golden: dict, problems: list[str]) -> None:
    """Shared part of `check` and `simulate` reports: per-symmetry verdicts
    and relations."""
    n = golden["n"]
    if doc.get("system", {}).get("n") != n:
        problems.append(f"system dimension {doc.get('system', {}).get('n')!r}, expected {n}")
    entries = {entry.get("name"): entry for entry in doc.get("symmetries", [])}
    if set(entries) != set(golden["symmetries"]):
        problems.append(f"symmetries {sorted(entries)} differ from {sorted(golden['symmetries'])}")
    for name, want in golden["symmetries"].items():
        entry = entries.get(name)
        if entry is None:
            continue
        got = verdict_class(entry.get("theorem1", {}).get("status", ""))
        if got != want["theorem1"]:
            problems.append(f"{name} theorem1: {got}, expected {want['theorem1']}")
        if "divergence" in want and entry.get("divergence", {}).get("status") != want["divergence"]:
            problems.append(
                f"{name} divergence: {entry.get('divergence', {}).get('status')!r}, expected {want['divergence']!r}"
            )
        integral = entry.get("integral")
        if want["integral"] is None:
            if integral is not None:
                problems.append(f"{name}: integral reported, expected none")
        elif integral is None:
            problems.append(f"{name}: no integral, expected one")
        else:
            got = verdict_class(integral.get("verified", {}).get("status", ""))
            if got != want["integral"]:
                problems.append(f"{name} integral: {got}, expected {want['integral']}")
        _check_classes(f"{name} theorem4", entry.get("theorem4", []), ZERO, 2 * n, problems)
        _check_classes(f"{name} direct", entry.get("direct", []), ZERO, 2 * n, problems)
    relations = {r.get("name"): r.get("status") for r in doc.get("relations", [])}
    if set(relations) != set(golden["relations"]):
        problems.append(f"relations {sorted(relations)} differ from {sorted(golden['relations'])}")
    for name, want in golden["relations"].items():
        if name in relations and verdict_class(relations[name]) != want:
            problems.append(f"relation {name}: {relations[name]!r} is not {want}")


def _check_example1(doc: dict, problems: list[str]) -> None:
    _check_report(doc, EXAMPLE1, problems)
    entries = {e.get("integral"): e for e in doc.get("drift", [])}
    if set(entries) != set(EXAMPLE1["drift"]):
        problems.append(f"drift entries {sorted(entries)} differ from {sorted(EXAMPLE1['drift'])}")
    for name, entry in entries.items():
        relative = entry.get("relative")
        if not isinstance(relative, (int, float)) or not 0.0 <= relative < DRIFT_BOUND:
            problems.append(f"drift {name}: relative {relative!r} not below {DRIFT_BOUND}")


def _check_identity(doc: dict, problems: list[str]) -> None:
    report = doc.get("identity", {})
    if report.get("passed") is not True:
        problems.append(f"identity passed = {report.get('passed')!r}, expected true")
    cases = report.get("cases", [])
    if report.get("n") != IDENTITY_N3["n"] or len(cases) != IDENTITY_N3["count"]:
        problems.append(f"identity n={report.get('n')!r} with {len(cases)} cases, expected n=3 with 10")
    for case in cases:
        index = case.get("index")
        got = verdict_class(case.get("lemma1", {}).get("status", ""))
        if got != ZERO:
            problems.append(f"case {index} lemma1: {got}, expected {ZERO}")
        _check_classes(f"case {index} lemma2", case.get("lemma2", []), ZERO, 2 * IDENTITY_N3["n"], problems)


CHECKERS = {
    "check-kepler3": lambda doc, problems: _check_report(doc, KEPLER3, problems),
    "simulate-example1": _check_example1,
    "identity-n3": _check_identity,
}


def check_output(workload: str, seed: int, exit_code: int, expected_exit: int, stdout: bytes) -> list[str]:
    """Every way one process's result departs from the golden; empty when it
    is correct. Byte identity across processes is checked by the caller."""
    problems: list[str] = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return problems + ["output is not a JSON object"]
    if doc.get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r} in output, expected {seed}")
    CHECKERS[workload](doc, problems)
    return problems
