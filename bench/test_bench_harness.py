"""Self-tests of the benchmark: the correctness check must reject corrupted
runs, the tracer must leave every wrapped function as it found it, and the
benchmark must refuse to run without a source tree.

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import golden
import run
import tracer

ZERO6 = ["proven-zero"] * 6


def _symmetry(name, theorem1, divergence, integral):
    entry = {
        "name": name,
        "theorem1": {"status": theorem1},
        "divergence": {"status": divergence},
        "theorem4": list(ZERO6),
        "direct": list(ZERO6),
    }
    if integral is not None:
        entry["integral"] = {"expr": "0", "verified": {"status": integral}}
    return entry


def kepler3_report(seed=0):
    """The shape of `check --example kepler3 --json` with the statuses the
    program gives today (Lenz integrals only numerically zero)."""
    return {
        "version": "0.1.0",
        "seed": seed,
        "system": {"n": 3, "hamiltonian": "H"},
        "symmetries": [
            _symmetry("X0", "proven-zero", "zero", "proven-zero"),
            _symmetry("X1", "nonzero", "no-v-exists", None),
            _symmetry("X12", "proven-zero", "zero", "proven-zero"),
            _symmetry("X13", "proven-zero", "zero", "proven-zero"),
            _symmetry("X23", "proven-zero", "zero", "proven-zero"),
            _symmetry("Y1", "nonzero", "user-supplied", "numerically-zero"),
            _symmetry("Y2", "nonzero", "user-supplied", "numerically-zero"),
            _symmetry("Y3", "nonzero", "user-supplied", "numerically-zero"),
        ],
        "relations": [
            {"name": "lenz-energy-momentum", "status": "numerically-zero"},
            {"name": "lenz-orthogonal", "status": "proven-zero"},
        ],
    }


def _check_kepler3(doc, exit_code=1):
    return golden.check_output("check-kepler3", 0, exit_code, 1, json.dumps(doc).encode())


def test_kepler3_report_passes_golden():
    assert _check_kepler3(kepler3_report()) == []


def test_stronger_proof_tier_is_not_a_failure():
    doc = kepler3_report()
    for entry in doc["symmetries"]:
        if "integral" in entry:
            entry["integral"]["verified"]["status"] = "proven-zero"
    doc["relations"][0]["status"] = "proven-zero"
    assert _check_kepler3(doc) == []


def _tamper(path, value):
    doc = kepler3_report()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _tamper(["symmetries", 1, "theorem1", "status"], "proven-zero"),  # X1 claimed Noether
        _tamper(["symmetries", 6, "integral", "verified", "status"], "nonzero"),  # Y2 integral
        _tamper(["symmetries", 2, "theorem4", 3], "inconclusive"),
        _tamper(["symmetries", 4, "direct", 0], "nonzero"),
        _tamper(["symmetries", 1, "divergence", "status"], "not-synthesizable"),
        _tamper(["relations", 1, "status"], "nonzero"),
        _tamper(["seed"], 7),
    ],
)
def test_tampered_kepler3_verdict_fails(doc):
    assert _check_kepler3(doc)


def test_kepler3_wrong_exit_code_or_missing_parts_fail():
    assert _check_kepler3(kepler3_report(), exit_code=0)
    doc = kepler3_report()
    del doc["symmetries"][3]
    assert _check_kepler3(doc)
    doc = kepler3_report()
    doc["relations"].pop()
    assert _check_kepler3(doc)
    assert golden.check_output("check-kepler3", 0, 1, 1, b"Traceback (most recent call last):")


def test_corrupted_identity_run_counts_as_failed():
    argv = [sys.executable, "-m", "hamsym.cli", *run.cli_argv("identity-n3", 0), "--corrupt"]
    proc = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), capture_output=True, timeout=120)
    child = run.Child(1.0, 1.0, 1.0, proc.returncode, proc.stdout, proc.stderr)
    tally = run.Tally()
    tally.judge("identity-n3", 0, child, "corrupt")
    assert tally.attempted == 1
    assert len(tally.failures) == 1
    assert "exit code 1, expected 0" in tally.failures[0]
    assert "lemma1" in tally.failures[0]


def test_output_bytes_differing_within_a_run_count_as_failed():
    good = json.dumps(kepler3_report()).encode()
    tally = run.Tally()
    for stdout in (good, good, good + b"\n"):
        tally.judge("check-kepler3", 0, run.Child(1.0, 1.0, 1.0, 1, stdout, b""), "p")
    assert tally.attempted == 3
    assert len(tally.failures) == 1
    assert "bytes differ" in tally.failures[0]


def test_drift_above_bound_fails():
    symmetries = [
        _symmetry("X1", "proven-zero", "zero", "proven-zero"),
        _symmetry("X2", "proven-zero", "zero", "proven-zero"),
        _symmetry("X3", "nonzero", "synthesized", "proven-zero"),
    ]
    for entry in symmetries:
        entry["theorem4"] = entry["direct"] = ["proven-zero"] * 2
    doc = {
        "seed": 0,
        "system": {"n": 1},
        "symmetries": symmetries,
        "relations": [{"name": "conic", "status": "proven-zero"}],
        "drift": [{"integral": name, "max_abs": 1e-12, "relative": 1e-12} for name in ("X1", "X2", "X3", "conic")],
    }
    check = lambda d: golden.check_output("simulate-example1", 0, 0, 0, json.dumps(d).encode())  # noqa: E731
    assert check(doc) == []
    bad = copy.deepcopy(doc)
    bad["drift"][2]["relative"] = 1e-6
    assert check(bad)


def test_times_are_scaled_to_reference_speed():
    slow = run.Child(2 * run.REFERENCE_S, 4 * run.REFERENCE_S, 1.0, 0, b"", b"")
    wall_scale, cpu_scale = run.scales([slow], [slow, slow])
    assert wall_scale == pytest.approx(0.5)
    assert cpu_scale == pytest.approx(0.25)


def _bindings():
    """Every function-valued name in the hamsym namespaces, and the class
    attribute the tracer patches."""
    import hamsym.cli  # noqa: F401

    out = {}
    for key, module in sorted(sys.modules.items()):
        if key == "hamsym" or key.startswith("hamsym."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(key, attr)] = value
    cls = sys.modules["hamsym.dynamics"].CompiledFunction
    out[("CompiledFunction", "__call__")] = cls.__dict__["__call__"]
    return out


def test_tracer_wraps_every_binding_and_restores_originals():
    import hamsym.cli
    import hamsym.noether
    from hamsym.expressions import SingularEvaluationError, coord

    before = _bindings()
    original_simplify = hamsym.noether.simplify
    t = tracer.Tracer()
    t.install()
    try:
        # the copied name in noether is wrapped, not only the defining module's
        assert hamsym.noether.simplify is not original_simplify
        assert hamsym.noether.simplify is sys.modules["hamsym.expressions"].simplify
        with redirect_stdout(io.StringIO()):
            code = hamsym.cli.main(["identity-check", "--n", "1", "--degree", "2", "--count", "1", "--json"])
        with pytest.raises(SingularEvaluationError):
            sys.modules["hamsym.expressions"].evaluate(1 / coord(1), {coord(1): 0.0})
    finally:
        t.uninstall()
    assert code == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    stats = t.summary()
    assert stats["cli.main"]["calls"] == 1
    assert stats["identity.identity_check"]["calls"] == 1
    assert stats["noether.lemma1_residual"]["parents"] == {"identity.identity_check": 1}
    assert stats["expressions.evaluate"]["counts"]["failed"] == 1
    # self times partition the root span: every wrapped call ran inside main
    # except the direct evaluate call above
    inside = sum(s["self_s"] for name, s in stats.items() if name != "expressions.evaluate")
    assert inside == pytest.approx(stats["cli.main"]["total_s"], rel=1e-9)


def test_benchmark_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identity-n3", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
