"""Command-line front end: run invariance checks, build and verify first
integrals, simulate trajectories and monitor conservation drift.

Exit codes: 0 all requested verdicts pass, 1 verdict failure, 2 usage or
parse error, 3 numeric abort during integration, 4 internal error (with a
traceback on stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from . import __version__
from .dynamics import (
    IntegratorConfig,
    SingularityAbort,
    allocate_trajectory,
    drift,
    integrate,
)
from .expressions import DEFAULT_TOL, Verdict
from .identity import identity_check
from .noether import (
    InvarianceError,
    build_report,
    first_integral,
    relation_check,
    relation_expression,
    verify_first_integral,
)
from .parsing import (
    ParseContext,
    format_expression,
    parse_expression,
    parse_system_file,
)
from .registry import example_names, load_example
from .systems import FirstIntegral, HamsymError, SystemDefinition

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _positive_float(raw: str) -> float:
    """argparse type of --tol and --modulo: a NaN tolerance passes every
    comparison and a zero period folds drift into NaN."""
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, needs_source: bool = True) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, metavar="U64", help="seed for numeric verdicts")
    parser.add_argument(
        "--tol", type=_positive_float, default=DEFAULT_TOL, metavar="FLOAT", help="zero-test tolerance"
    )
    if needs_source:
        source = parser.add_mutually_exclusive_group()
        source.add_argument("--example", metavar="NAME", help="built-in example system")
        source.add_argument("--file", metavar="PATH", help="system definition file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamsym", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hamsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run invariance checks for each symmetry")
    _add_common(p)
    p.add_argument("--symmetry", metavar="NAME", help="restrict to one symmetry")

    p = sub.add_parser("integral", help="construct and verify a first integral")
    _add_common(p)
    p.add_argument("symmetry", help="symmetry name")
    p.add_argument("--force", action="store_true", help="construct the integral despite failed invariance")

    p = sub.add_parser("verify", help="test whether an expression is a first integral")
    _add_common(p)
    p.add_argument("expression", help="expression in (t, q, p)")

    p = sub.add_parser("simulate", help="integrate the canonical equations and report drift")
    _add_common(p)
    p.add_argument("--state", required=True, metavar="X1,...", help="initial state q1..qn,p1..pn")
    p.add_argument("--method", default="rk4", choices=("rk4", "implicit_midpoint"))
    p.add_argument("--h", type=float, default=1e-3, help="step size")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--csv", metavar="PATH", help="dump the trajectory as CSV")
    p.add_argument("--modulo", type=_positive_float, help="fold drift onto this period (angle-valued integrals)")

    p = sub.add_parser("identity-check", help="test the off-shell identities on random data")
    _add_common(p, needs_source=False)
    p.add_argument("--n", type=int, default=2, help="phase-space dimension")
    p.add_argument("--degree", type=int, default=3, help="Hamiltonian degree bound")
    p.add_argument("--count", type=int, default=10, help="number of random pairs")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("examples", help="list built-in examples")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def _load(args) -> SystemDefinition:
    if args.example is not None:
        return load_example(args.example)
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise HamsymError(f"{args.file} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        return parse_system_file(text)
    raise HamsymError("one of --example or --file is required")


def _header(args, sys_=None) -> dict:
    """The leading keys of every report: version, seed and, given one, the system."""
    out = {"version": __version__, "seed": args.seed}
    if sys_ is not None:
        out["system"] = {"n": sys_.n, "hamiltonian": format_expression(sys_.hamiltonian)}
    return out


def _integral_entry(integral: FirstIntegral) -> dict:
    return {"expr": format_expression(integral.expression), "verified": integral.verified.to_dict()}


def _symmetry_entry(report) -> dict:
    entry = {
        "name": report.symmetry,
        "theorem1": report.verdict_theorem1.to_dict(),
        "divergence": {"status": report.divergence_status},
        "theorem4": [v.status for v in report.theorem4_verdicts],
        "direct": [v.status for v in report.direct_invariance_verdicts],
    }
    if report.divergence is not None:
        entry["divergence"]["v"] = format_expression(report.divergence.v)
    if report.divergence_verdict is not None and not report.divergence_verdict.is_zero:
        entry["divergence"]["verdict"] = report.divergence_verdict.to_dict()
    if report.integral is not None:
        entry["integral"] = _integral_entry(report.integral)
    return entry


def _system_report(defn: SystemDefinition, args, names=None):
    """Per-symmetry reports plus relation verdicts; returns (json dict,
    InvarianceReport list, all-pass flag). A symmetry passes exactly when
    it yields an integral."""
    sys_ = defn.system
    out = {**_header(args, sys_), "symmetries": [], "relations": []}
    selected = [s for s in defn.symmetries if names is None or s.name in names]
    if names is not None and len(selected) != len(names):
        missing = sorted(set(names) - {s.name for s in selected})
        raise HamsymError(f"unknown symmetry {missing[0]!r}")
    reports = [build_report(sys_, X, seed=args.seed, tol=args.tol) for X in selected]
    out["symmetries"] = [_symmetry_entry(report) for report in reports]
    integrals = {r.symmetry: r.integral.expression for r in reports if r.integral is not None}
    ok = len(integrals) == len(reports)
    for relation in defn.relations:
        if relation_expression(integrals, relation, sys_) is None:
            out["relations"].append({"name": relation.name, "status": "skipped"})
            continue
        verdict = relation_check(integrals, relation, sys_, seed=args.seed, tol=args.tol)
        out["relations"].append({"name": relation.name, "status": verdict.status})
        ok = ok and verdict.is_zero
    return out, reports, ok


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _describe_symmetry(entry: dict) -> str:
    divergence = entry["divergence"]
    bits = [f"theorem1 {entry['theorem1']['status']}", f"divergence {divergence['status']}"]
    if "verdict" in divergence:
        bits[-1] += f" ({divergence['verdict']['status']})"
    if divergence.get("v", "0") != "0":
        bits.append(f"v = {divergence['v']}")
    for check in ("theorem4", "direct"):
        bits.append(f"{check} " + ("pass" if all(Verdict(s).is_zero for s in entry[check]) else "fail"))
    if "integral" in entry:
        bits.append(f"integral {entry['integral']['expr']} ({entry['integral']['verified']['status']})")
    else:
        bits.append("no integral")
    return f"{entry['name']}: " + "; ".join(bits)


def cmd_check(args) -> int:
    defn = _load(args)
    names = [args.symmetry] if args.symmetry else None
    payload, _, ok = _system_report(defn, args, names)
    lines = [_describe_symmetry(e) for e in payload["symmetries"]]
    lines += [f"relation {r['name']}: {r['status']}" for r in payload["relations"]]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_integral(args) -> int:
    defn = _load(args)
    X = defn.symmetry(args.symmetry)
    try:
        integral = first_integral(defn.system, X, force=args.force, seed=args.seed, tol=args.tol)
    except InvarianceError as exc:
        if args.json:
            print(json.dumps({**_header(args), "error": str(exc)}, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    payload = {
        **_header(args, defn.system),
        "symmetries": [{"name": X.name, "integral": _integral_entry(integral)}],
        "relations": [],
    }
    lines = [f"{X.name}: I = {format_expression(integral.expression)} ({integral.verified.status})"]
    _emit(args, payload, lines)
    return EXIT_OK if integral.verified.is_zero else EXIT_FAIL


def cmd_verify(args) -> int:
    defn = _load(args)
    sys_ = defn.system
    ctx = ParseContext(n=sys_.n, parameters=frozenset(sys_.parameters), allow_jet=False)
    expr = parse_expression(args.expression, ctx)
    verdict = verify_first_integral(sys_, expr, seed=args.seed, tol=args.tol)
    payload = {**_header(args, sys_), "expression": format_expression(expr), "verdict": verdict.to_dict()}
    _emit(args, payload, [f"{format_expression(expr)}: {verdict.status}"])
    return EXIT_OK if verdict.is_zero else EXIT_FAIL


def _parse_state(raw: str, n: int) -> list[float]:
    try:
        state = [float(part) for part in raw.split(",")]
    except ValueError as exc:
        raise HamsymError(f"bad state component: {exc}") from None
    if not all(map(math.isfinite, state)):
        raise HamsymError(f"state components must be finite, got {raw!r}")
    if len(state) != 2 * n:
        raise HamsymError(f"state needs {2 * n} components (q1..qn, p1..pn), got {len(state)}")
    return state


def _write_csv(path: str, trajectory, n: int) -> None:
    header = "t," + ",".join(f"q{i}" for i in range(1, n + 1)) + "," + ",".join(
        f"p{i}" for i in range(1, n + 1)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for t, y in zip(trajectory.times, trajectory.states):
            handle.write(",".join(f"{x:.17g}" for x in (t, *y)) + "\n")


def cmd_simulate(args) -> int:
    defn = _load(args)
    sys_ = defn.system
    state0 = _parse_state(args.state, sys_.n)
    config = IntegratorConfig(method=args.method, h=args.h, t0=args.t0, t1=args.t1)
    allocate_trajectory(config, sys_.n)  # a trajectory too large to hold fails before the report
    payload, reports, _ = _system_report(defn, args)
    integrals = [r.integral for r in reports if r.integral is not None]
    named = {i.name: i.expression for i in integrals}
    # relations evaluate to constants along trajectories too; drift them as
    # synthetic integrals so conserved relations are witnessed numerically
    for relation in defn.relations:
        expression = relation_expression(named, relation, sys_)
        if expression is not None:
            integrals.append(FirstIntegral(name=relation.name, expression=expression))
    try:
        trajectory = integrate(sys_, state0, config)
        report = drift(sys_, integrals, trajectory, modulo=args.modulo)
    except SingularityAbort as exc:
        if args.json:
            payload["error"] = str(exc)
            payload["time_reached"] = exc.time_reached
            print(json.dumps(payload, indent=2))
        else:
            print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.csv:
        _write_csv(args.csv, trajectory, sys_.n)
    payload["drift"] = [
        {"integral": e.integral, "max_abs": e.max_abs, "relative": e.relative} for e in report.entries
    ]
    ok = all(r.integral is None or r.integral.verified.is_zero for r in reports)
    lines = [_describe_symmetry(e) for e in payload["symmetries"]]
    lines += [
        f"drift {e.integral}: max {e.max_abs:.3e} (relative {e.relative:.3e})" for e in report.entries
    ]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_identity_check(args) -> int:
    if args.n < 1:
        raise HamsymError("--n must be >= 1")
    report = identity_check(
        args.n, args.degree, args.count, seed=args.seed, tol=args.tol, corrupt=args.corrupt
    )
    payload = {
        **_header(args),
        "identity": {
            "n": report.n,
            "degree": report.degree,
            "count": report.count,
            "passed": report.passed,
            "cases": [
                {
                    "index": case.index,
                    "hamiltonian": format_expression(case.system.hamiltonian),
                    "lemma1": case.lemma1.to_dict(),
                    "lemma2": [v.status for v in case.lemma2],
                }
                for case in report.cases
            ],
        },
    }
    lines = [
        f"identity check: n={report.n} degree={report.degree} count={report.count} -> "
        + ("pass" if report.passed else "FAIL")
    ]
    lines += report.failures()
    _emit(args, payload, lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_examples(args) -> int:
    names = example_names()
    _emit(args, {"version": __version__, "examples": names}, names)
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "integral": cmd_integral,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "identity-check": cmd_identity_check,
    "examples": cmd_examples,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SingularityAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (HamsymError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault in hamsym itself, never a usage error or a failed verdict
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
