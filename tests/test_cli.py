"""Command-line interface tests: golden verdicts, JSON schema, exit codes
and determinism."""
import json
import math
import time
from collections import Counter
from pathlib import Path

import pytest
import sympy

import hamsym.cli
import hamsym.noether
from hamsym.cli import main
from hamsym.identity import identity_check
from hamsym.registry import EXAMPLES

GOLDEN = Path(__file__).parent / "golden"

ZERO = ("proven-zero", "numerically-zero")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestExamples:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert out.split() == ["coulomb", "example1", "kepler2", "kepler3", "oscillator"]

    def test_json_listing(self, capsys):
        code, payload, _ = run_json(capsys, "examples")
        assert code == 0 and payload["examples"] == [
            "coulomb", "example1", "kepler2", "kepler3", "oscillator",
        ]


class TestCheck:
    def test_example1_golden(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--example", "example1", "--seed", "42")
        assert code == 0
        assert set(payload) == {"version", "seed", "system", "symmetries", "relations"}
        assert payload["seed"] == 42
        assert payload["system"]["n"] == 1
        by_name = {entry["name"]: entry for entry in payload["symmetries"]}
        assert by_name["X1"]["theorem1"]["status"] in ZERO
        assert by_name["X2"]["theorem1"]["status"] in ZERO
        assert by_name["X3"]["theorem1"]["status"] == "nonzero"
        assert by_name["X3"]["divergence"]["status"] == "synthesized"
        assert by_name["X3"]["divergence"]["v"] == "(1/2)*q1^2"
        for entry in by_name.values():
            assert set(entry) >= {"name", "theorem1", "divergence", "theorem4", "direct"}
            assert len(entry["theorem4"]) == 2 and len(entry["direct"]) == 2
            assert all(s in ZERO for s in entry["theorem4"] + entry["direct"])
            assert entry["integral"]["verified"]["status"] in ZERO
        assert payload["relations"] == [{"name": "conic", "status": "proven-zero"}]

    def test_coulomb_discrimination(self, capsys):
        code, payload, _ = run_json(capsys, "check", "--example", "coulomb", "--seed", "42")
        assert code == 1  # X2 is not an action symmetry
        by_name = {entry["name"]: entry for entry in payload["symmetries"]}
        assert by_name["X1"]["theorem1"]["status"] in ZERO
        assert by_name["X2"]["theorem1"]["status"] == "nonzero"
        assert by_name["X2"]["divergence"]["status"] == "no-v-exists"
        assert "integral" not in by_name["X2"]
        assert all(s in ZERO for s in by_name["X2"]["theorem4"] + by_name["X2"]["direct"])

    def test_symmetry_filter(self, capsys):
        code, payload, _ = run_json(
            capsys, "check", "--example", "kepler3", "--symmetry", "X1", "--seed", "42"
        )
        assert code == 1
        (entry,) = payload["symmetries"]
        assert entry["name"] == "X1"
        assert entry["theorem1"]["status"] == "nonzero"
        assert entry["divergence"]["status"] == "no-v-exists"
        assert "integral" not in entry
        assert payload["relations"] == [
            {"name": "lenz-energy-momentum", "status": "skipped"},
            {"name": "lenz-orthogonal", "status": "skipped"},
        ]

    def test_unknown_symmetry(self, capsys):
        code, _, err = run(capsys, "check", "--example", "example1", "--symmetry", "nope")
        assert code == 2 and "unknown symmetry" in err

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "check", "--example", "example1", "--seed", "7", "--json")
        _, second, _ = run(capsys, "check", "--example", "example1", "--seed", "7", "--json")
        assert first == second

    def test_file_source(self, capsys, tmp_path):
        from hamsym.registry import EXAMPLES

        path = tmp_path / "system.txt"
        path.write_text(EXAMPLES["example1"])
        code, payload, _ = run_json(capsys, "check", "--file", str(path), "--seed", "42")
        assert code == 0 and len(payload["symmetries"]) == 3

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2 and "error" in err

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "check", "--example", "nope")
        assert code == 2 and "unknown example" in err

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[system]\nn = 1\n")
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 2 and "hamiltonian" in err


class TestIntegral:
    def test_example1_scaling(self, capsys):
        code, payload, _ = run_json(capsys, "integral", "--example", "example1", "X2", "--seed", "42")
        assert code == 0
        (entry,) = payload["symmetries"]
        assert entry["integral"]["verified"]["status"] in ZERO
        # the printed expression is the standard scaling integral
        from hamsym.expressions import TIME, coord, is_zero, momentum
        from hamsym.parsing import ParseContext, parse_expression

        expr = parse_expression(entry["integral"]["expr"], ParseContext(n=1, allow_jet=False))
        target = momentum(1) * coord(1) - TIME * (momentum(1) ** 2 + 1 / coord(1) ** 2)
        assert is_zero(expr - target, singular=(coord(1),), seed=42).is_zero

    def test_kepler_lenz_component(self, capsys):
        code, payload, _ = run_json(capsys, "integral", "--example", "kepler3", "Y1", "--seed", "42")
        assert code == 0
        from hamsym.expressions import coord, is_zero, momentum
        from hamsym.parsing import ParseContext, parse_expression
        import sympy as sp

        q1, q2, q3 = coord(1), coord(2), coord(3)
        p1, p2, p3 = momentum(1), momentum(2), momentum(3)
        r = sp.sqrt(q1**2 + q2**2 + q3**2)
        target = q1 * (p1**2 + p2**2 + p3**2 - 1 / r) - p1 * (q1 * p1 + q2 * p2 + q3 * p3)
        ctx = ParseContext(n=3, parameters=frozenset({"K"}), allow_jet=False)
        expr = parse_expression(payload["symmetries"][0]["integral"]["expr"], ctx)
        expr = expr.subs({sp.Symbol("K", real=True): 1})
        assert is_zero(expr - target, singular=(r,), seed=42).is_zero

    def test_refused_without_force(self, capsys):
        code, _, err = run(capsys, "integral", "--example", "coulomb", "X2")
        assert code == 1 and "invariant" in err

    def test_force_constructs_unverified(self, capsys):
        code, payload, _ = run_json(capsys, "integral", "--example", "coulomb", "X2", "--force")
        assert code == 1
        assert payload["symmetries"][0]["integral"]["verified"]["status"] == "nonzero"


class TestVerify:
    def test_oscillator_angle(self, capsys):
        code, out, _ = run(capsys, "verify", "--example", "oscillator", "arctan(p1/q1) + t")
        assert code == 0 and "zero" in out

    def test_non_integral(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "--example", "example1", "q1", "--seed", "42")
        assert code == 1
        assert payload["verdict"]["status"] == "nonzero"
        assert "witness" in payload["verdict"]

    def test_number_symbol(self, capsys):
        # exp(1) parses to the number symbol E, which sampling must evaluate
        code, payload, _ = run_json(capsys, "verify", "--example", "example1", "exp(1)*q1")
        assert code == 1 and payload["verdict"]["status"] == "nonzero"

    def test_angular_momentum(self, capsys):
        code, _, _ = run(capsys, "verify", "--example", "kepler3", "q1*p2 - q2*p1")
        assert code == 0

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "verify", "--example", "example1", "q1 +")
        assert code == 2 and "error" in err


class TestSimulate:
    def test_example1_drift_and_relation(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "simulate", "--example", "example1", "--seed", "42",
            "--state", "1,0", "--h", "0.001", "--t0", "0", "--t1", "1",
        )
        assert code == 0
        drifts = {entry["integral"]: entry for entry in payload["drift"]}
        assert set(drifts) == {"X1", "X2", "X3", "conic"}
        for entry in drifts.values():
            assert entry["relative"] <= 1e-9
            assert set(entry) == {"integral", "max_abs", "relative"}

    def test_csv_dump(self, capsys, tmp_path):
        path = tmp_path / "trajectory.csv"
        code, _, _ = run_json(
            capsys,
            "simulate", "--example", "oscillator",
            "--state", "1,0", "--h", "0.1", "--t1", "1", "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q1,p1"
        assert len(lines) == 12  # header + 11 samples
        values = [float(x) for x in lines[1].split(",")]
        assert values == [0.0, 1.0, 0.0]
        # full precision: the state round-trips through text exactly
        t, q1, p1 = (float(x) for x in lines[-1].split(","))
        assert t == 1.0 and abs(q1 - math.cos(1.0)) < 1e-6

    def test_bad_state_length(self, capsys):
        code, _, err = run(capsys, "simulate", "--example", "example1", "--state", "1,2,3")
        assert code == 2 and "state" in err

    def test_config_error(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--example", "example1", "--state", "1,0", "--h", "0"
        )
        assert code == 2 and "step" in err

    def test_numeric_abort(self, capsys, tmp_path):
        source = (
            '[system]\nn = 1\nhamiltonian = "p1^2/2 + sqrt(q1)"\nsingularities = ["q1"]\n'
            '[[symmetry]]\nname = "X0"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
        )
        path = tmp_path / "falling.txt"
        path.write_text(source)
        code, _, err = run(
            capsys, "simulate", "--file", str(path), "--state", "1,-2", "--t1", "2"
        )
        assert code == 3 and "time reached" in err


class TestIdentityCheck:
    def test_small_pass(self, capsys):
        code, payload, _ = run_json(
            capsys, "identity-check", "--n", "1", "--degree", "2", "--count", "2", "--seed", "42"
        )
        assert code == 0 and payload["identity"]["passed"] is True
        assert len(payload["identity"]["cases"]) == 2

    def test_constant_hamiltonian(self, capsys):
        code, _, _ = run(capsys, "identity-check", "--n", "1", "--degree", "0", "--count", "1")
        assert code == 0

    def test_corrupt_hook_detected(self, capsys):
        code, out, err = run(
            capsys, "identity-check", "--n", "1", "--degree", "2", "--count", "2",
            "--seed", "42", "--corrupt",
        )
        assert code == 1
        assert "lemma1" in out + err  # reproducer names the failing identity

    def test_corrupt_failures_printed_once_and_parseable(self, capsys):
        import re

        from hamsym.parsing import ParseContext, parse_expression

        code, out, err = run(
            capsys, "identity-check", "--n", "1", "--degree", "2", "--count", "2",
            "--seed", "42", "--corrupt",
        )
        assert code == 1
        cases = identity_check(1, 2, 2, seed=42, corrupt=True).cases
        text = out + err
        for case in cases:
            (line,) = [line for line in text.splitlines() if line.startswith(f"case {case.index}:")]
            printed = re.search(r'H = "([^"]*)"', line).group(1)
            assert parse_expression(printed, ParseContext(n=1)) == case.system.hamiltonian

    def test_corrupt_hook_detected_n3(self, capsys):
        code, payload, _ = run_json(
            capsys, "identity-check", "--n", "3", "--degree", "3", "--count", "2", "--corrupt",
        )
        assert code == 1 and payload["identity"]["passed"] is False
        lemma1 = payload["identity"]["cases"][0]["lemma1"]
        assert lemma1["status"] == "nonzero" and lemma1["witness"]

    def test_bad_dimension(self, capsys):
        code, _, err = run(capsys, "identity-check", "--n", "0")
        assert code == 2


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(["check", "--example", example, "--seed", "42"], f"check-{example}-seed42.json", id=example)
        for example in ("example1", "coulomb", "oscillator", "kepler2", "kepler3")
    ]
    + [
        pytest.param(
            ["verify", "--example", "example1", "q1*p1", "--seed", "42"],
            "verify-example1-q1p1-seed42.json",
            id="verify-example1-q1p1",
        ),
    ]
    + [
        # the two inputs of the identity-n3 benchmark, and a corrupted run
        # whose nonzero witnesses must keep their bytes
        pytest.param(
            ["identity-check", "--n", "3", "--degree", "3", "--count", "10", "--seed", seed, *extra],
            f"identity-n3-seed{seed}{suffix}.json",
            id=f"identity-n3-seed{seed}{suffix}",
        )
        for seed, extra, suffix in (("0", [], ""), ("1", [], ""), ("0", ["--corrupt"], "-corrupt"))
    ]
    + [
        # the integral and simulate reports that read the divergence decision
        pytest.param(argv, golden, id=golden.removesuffix("-seed42.json"))
        for argv, golden in (
            (["integral", "--example", "example1", "X2", "--seed", "42"], "integral-example1-X2-seed42.json"),
            (
                ["integral", "--example", "coulomb", "X2", "--force", "--seed", "42"],
                "integral-coulomb-X2-force-seed42.json",
            ),
            (
                ["simulate", "--example", "example1", "--state", "1,0", "--h", "0.01", "--t1", "1", "--seed", "42"],
                "simulate-example1-seed42.json",
            ),
            # Kepler's right-hand side -K^2*q/(r^2)^(3/2), whose form moves the drift's last bits
            (
                ["simulate", "--example", "kepler3", "--state", "1,0,0,0,1,0.2", "--h", "0.001", "--t1", "10"]
                + ["--seed", "42"],
                "simulate-kepler3-seed42.json",
            ),
        )
    ],
)
def test_check_json_matches_golden_bytes(capsys, argv, golden):
    # any intended change to the report must update these files
    main([*argv, "--json"])
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


PENDULUM = """\
[system]
n = 1
hamiltonian = "p1^2/2 - cos(q1)"

[[symmetry]]
name = "X1"
xi = "1"
eta = ["0"]
zeta = ["0"]

[[symmetry]]
name = "S"
xi = "0"
eta = ["1"]
zeta = ["0"]

[[symmetry]]
name = "G"
xi = "0"
eta = ["t"]
zeta = ["1"]
"""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["check"], "check-pendulum-seed42.json"),
        (["simulate", "--state", "1,0", "--t1", "10"], "simulate-pendulum-seed42.json"),
    ],
    ids=["check", "simulate"],
)
def test_expr_fallback_matches_golden_bytes(capsys, tmp_path, argv, golden):
    # cos(q1) has no exact algebra: the report and the integrator run on Expr
    path = tmp_path / "pendulum.txt"
    path.write_text(PENDULUM)
    main([*argv, "--file", str(path), "--seed", "42", "--json"])
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_check_builds_shared_objects_once(capsys, monkeypatch):
    calls = Counter()
    original = hamsym.noether.canonical_equations

    def counted(*args, **kwargs):
        calls["canonical_equations"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(hamsym.noether, "canonical_equations", counted)
    # repeated calls hit the memos, so builds are counted as cache misses
    memos = (hamsym.noether._on_shell_maps, hamsym.noether._residual)
    for memo in memos:
        memo.cache_clear()
    code, _, _ = run(capsys, "check", "--example", "example1", "--json")
    assert code == 0
    # one system with three symmetries, all in one jet field; its on-shell
    # map differentiates H there, so the canonical equations, which only the
    # integrator and evolutionary_form read, are not built at all
    assert calls == {}
    assert [memo.cache_info().misses for memo in memos] == [1, 3]


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["check", "--example", example], int(example in ("coulomb", "kepler3")), id=example)
        for example in ("example1", "kepler2", "kepler3", "coulomb", "oscillator")
    ]
    + [
        pytest.param(
            ["simulate", "--example", example, "--state", state, "--h", "0.01", "--t1", "1"],
            0,
            id=f"simulate-{example}",
        )
        for example, state in (("example1", "1,0"), ("kepler3", "1,0,0,0,1,0.2"))
    ],
)
def test_check_builds_integrals_without_expr_canonicalization(capsys, monkeypatch, argv, code):
    # each integral is built, decided and printed in its exact algebra, and
    # the integrator reads the canonical equations as differentiated
    calls = Counter()

    def counting(name):
        original = getattr(sympy, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("together", "cancel"):
        monkeypatch.setattr(sympy, name, counting(name))
    memos = (hamsym.noether._algebra, hamsym.noether._residual, hamsym.noether._on_shell_maps)
    for memo in (*memos, hamsym.noether.canonical_equations):
        memo.cache_clear()
    assert run(capsys, *argv, "--json")[0] == code  # coulomb's X2 and kepler3's X1 fail by design
    assert calls == {}


@pytest.mark.parametrize("equals, code, status", [(16, 0, "proven-zero"), (1, 1, "nonzero")])
def test_parameter_value_decides_the_relation(capsys, tmp_path, equals, code, status):
    # Y1^2 + Y2^2 + 2*X0*X12^2 = K^4: the integrals keep K, the decision binds K = 2
    path = tmp_path / "kepler2.txt"
    path.write_text(EXAMPLES["kepler2"].replace("K = 1", "K = 2").replace("equals = 1", f"equals = {equals}"))
    got, payload, _ = run_json(capsys, "check", "--file", str(path), "--seed", "42")
    assert got == code
    assert all(e["integral"]["verified"]["status"] == "proven-zero" for e in payload["symmetries"])
    assert payload["relations"] == [{"name": "lenz-energy-momentum", "status": status}]


@pytest.mark.parametrize(
    "source, expression, code, status",
    [
        # a radical base with a parameter has no exact algebra: its relation u^2 = b would keep K
        (
            'hamiltonian = "p1^2/2 + sqrt(K*q1^2 + 1)"\nparameters = { K = 2 }',
            "p1^2/2 + sqrt(2*q1^2 + 1)",
            0,
            "proven-zero",
        ),
        # K = 0 is a pole of the on-shell dq1 = p1/K
        ('hamiltonian = "p1^2/(2*K) + q1^2/2"\nparameters = { K = 0 }', "q1", 1, "inconclusive"),
    ],
    ids=["radical-base", "pole"],
)
def test_parameter_values_are_bound_to_decide(capsys, tmp_path, source, expression, code, status):
    path = tmp_path / "system.txt"
    path.write_text(f"[system]\nn = 1\n{source}\n")
    got, payload, err = run_json(capsys, "verify", "--file", str(path), expression)
    assert (got, payload["verdict"]["status"]) == (code, status) and "Traceback" not in err


def test_simulate_builds_canonical_equations_once(capsys):
    # the integrator's right-hand side builds them once per system; the report's
    # on-shell maps differentiate H in their own algebra
    memo = hamsym.noether.canonical_equations
    for cache in (memo, hamsym.noether._on_shell_maps):
        cache.cache_clear()
    code, _, _ = run(capsys, "simulate", "--example", "example1", "--state", "1,0", "--h", "0.01", "--json")
    assert code == 0 and memo.cache_info().misses == 1


def _wrong_v_file(tmp_path):
    """example1 with v = q1 given for X1, whose Theorem 1 holds with V = 0."""
    from hamsym.registry import EXAMPLES

    text = EXAMPLES["example1"].replace('zeta = ["0"]\n', 'zeta = ["0"]\nv = "q1"\n', 1)
    assert text != EXAMPLES["example1"]
    path = tmp_path / "wrong-v.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("source", ["example1", "coulomb", "oscillator", "wrong-v"])
def test_integral_and_check_make_one_decision(capsys, tmp_path, source):
    # `integral NAME` gives exactly the integral of check's entry, and check
    # passes exactly when every symmetry yields one and no relation fails
    where = ("--file", str(_wrong_v_file(tmp_path))) if source == "wrong-v" else ("--example", source)
    code, payload, _ = run_json(capsys, "check", *where, "--seed", "42")
    entries = payload["symmetries"]
    passed = all("integral" in e for e in entries) and all(
        r["status"] in (*ZERO, "skipped") for r in payload["relations"]
    )
    assert code == (0 if passed else 1)
    for entry in entries:
        code, report, _ = run_json(capsys, "integral", *where, entry["name"], "--seed", "42")
        assert (code == 0) == ("integral" in entry), entry["name"]
        if "integral" in entry:
            assert report["symmetries"][0]["integral"] == entry["integral"], entry["name"]


def test_failing_divergence_verdict_is_named(capsys, tmp_path):
    # the wrong V of X1 fails with a witness; the passing symmetries' entries gain no key
    path = str(_wrong_v_file(tmp_path))
    code, payload, _ = run_json(capsys, "check", "--file", path, "--seed", "42")
    divergence = {entry["name"]: entry["divergence"] for entry in payload["symmetries"]}
    assert code == 1
    assert divergence["X1"]["verdict"]["status"] == "nonzero" and divergence["X1"]["verdict"]["witness"]
    assert divergence["X2"] == {"status": "zero", "v": "0"}
    assert divergence["X3"] == {"status": "synthesized", "v": "(1/2)*q1^2"}
    code, out, _ = run(capsys, "check", "--file", path, "--seed", "42")
    assert code == 1
    assert out.splitlines()[0] == (
        "X1: theorem1 proven-zero; divergence user-supplied (nonzero); v = q1; theorem4 pass; direct pass; no integral"
    )


def test_identity_check_builds_one_residual_per_case():
    # Lemma 1 and Lemma 2 read the same residual
    residual = hamsym.noether._residual
    residual.cache_clear()
    identity_check(2, 3, 2)
    assert residual.cache_info().misses == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("integral", "--example", "example1", "nope"), "no symmetry named"),
            (("identity-check", "--n", "1", "--degree", "-1"), "degree"),
            (("identity-check", "--n", "1", "--count", "0"), "count"),
            (("simulate", "--example", "oscillator", "--state", "1,0", "--t1", "inf"), "finite"),
            (("simulate", "--example", "oscillator", "--state", "1,0", "--t0=-inf"), "finite"),
            (("simulate", "--example", "oscillator", "--state", "1,0", "--h", "inf"), "finite"),
            (("simulate", "--example", "oscillator", "--state", "1,0", "--h=1e-300"), "1e+300 steps"),
            (("simulate", "--example", "oscillator", "--state", "nan,0"), "finite"),
            # inputs that sympy rewrites into Abs, pi and I, which the DSL cannot print
            (("verify", "--example", "example1", "sqrt(q1^2)"), "no written form"),
            (("verify", "--example", "example1", "arctan(1)*q1"), "no written form"),
            (("verify", "--example", "example1", "log(-1)*q1"), "no written form"),
        ],
    )
    def test_domain_errors_exit_2(self, capsys, argv, message):
        # an unknown example is covered by TestCheck::test_unknown_example
        code, _, err = run(capsys, *argv)
        assert code == 2 and message in err and "Traceback" not in err

    def test_oversized_trajectory_fails_before_the_report(self, capsys):
        # kepler3's symbolic report takes seconds; the size check comes first
        start = time.perf_counter()
        code, _, err = run(capsys, "simulate", "--example", "kepler3", "--state", "1,0,0,0,1,0.2", "--h=1e-300")
        elapsed = time.perf_counter() - start
        assert code == 2 and "steps" in err and "Traceback" not in err
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize(
        "argv",
        [("check", "--example", "example1", "--force"), ("examples", "--seed", "1"), ("examples", "--tol", "1")],
    )
    def test_unknown_option_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--example", "example1", "q1", "--tol", "nan"),
            ("verify", "--example", "example1", "q1", "--tol", "inf"),
            ("verify", "--example", "example1", "q1", "--tol=-1e-9"),
            ("simulate", "--example", "example1", "--state", "1,0", "--h", "0.01", "--modulo", "0"),
            ("simulate", "--example", "example1", "--state", "1,0", "--h", "0.01", "--modulo", "nan"),
        ],
    )
    def test_tolerance_and_period_must_be_positive_and_finite(self, capsys, argv):
        # a NaN tolerance passed every sample and a zero period gave NaN drift
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "positive and finite" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes('[system]\nn = 1\nhamiltonian = "p1^2"  # \u00e9nergie\n'.encode("latin-1"))
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 2 and "UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "source",
        [
            '[system]\nn = 1\nhamiltonian = "K*p1^2"\nparameters = { K = 1/0 }\n',
            '[system]\nn = 1\nhamiltonian = "p1^2/2"\n'
            '[[symmetry]]\nname = "A"\nxi = "1"\neta = ["0"]\nzeta = ["0"]\n'
            '[[relation]]\nname = "r"\nexpr = "A"\nequals = 1/0\n',
        ],
        ids=["parameter", "equals"],
    )
    def test_zero_denominator_exits_2(self, capsys, tmp_path, source):
        path = tmp_path / "zero.txt"
        path.write_text(source)
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 2 and "zero denominator" in err and "Traceback" not in err

    def test_unprintable_hamiltonian_exits_2(self, capsys, tmp_path):
        path = tmp_path / "abs.txt"
        path.write_text('[system]\nn = 1\nhamiltonian = "p1^2/2 + sqrt(q1^2)"\n')
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 2 and "no written form" in err and "Traceback" not in err

    def test_reserved_parameter_exits_2(self, capsys, tmp_path):
        path = tmp_path / "reserved.txt"
        path.write_text('[system]\nn = 1\nhamiltonian = "p1^2"\nparameters = { t = 1 }\n')
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 2 and "reserved" in err

    def test_internal_error_exits_4_with_traceback(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("injected fault")

        monkeypatch.setattr(hamsym.cli, "build_report", broken)
        code, out, err = run(capsys, "check", "--example", "example1")
        assert code == 4 and out == ""
        assert "Traceback" in err and "ValueError: injected fault" in err


def test_json_emitted_even_on_failure(capsys):
    code, payload, _ = run_json(capsys, "check", "--example", "coulomb")
    assert code == 1
    assert payload["version"] and payload["symmetries"]
