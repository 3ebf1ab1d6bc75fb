"""The CI workflow runs the tier-1 command that ROADMAP.md names."""
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_workflow_runs_the_tier1_command():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert f"**Tier-1 verify:** `{TIER1}`" in (ROOT / "ROADMAP.md").read_text()
    commands = [line.strip() for line in workflow.splitlines()]
    assert commands.count(TIER1) == 1
    assert "hamsym examples" in commands  # the installed console script
    # the installed package's module entries, run outside the checkout, the
    # installed entry on a path that loads numpy, and on the jet ring path
    outside = commands.index('cd "$RUNNER_TEMP"')
    assert outside + 1 == commands.index("python -m hamsym.cli examples")
    assert outside + 2 == commands.index("python -m hamsym examples")
    assert outside + 3 == commands.index("hamsym simulate --example oscillator --state 1,0 --t1 0.1 --json")
    assert outside + 4 == commands.index("hamsym identity-check --n 2 --count 2 --json")
    # and on the jet field path: a radical, a parameter, sampling and relations
    assert outside + 6 == commands.index("hamsym check --example kepler3 --json || [ $? -eq 1 ]")
    # and on a trajectory that drift takes in three blocks
    assert outside + 8 == commands.index("hamsym simulate --example example1 --state 1,0 --t1 20 --json")
    # and on input nested past the parser's bound, which must exit 2
    deep = """hamsym verify --example oscillator "$(python -c "print('(' * 300 + 'q1' + ')' * 300)")" && exit 1 || [ $? -eq 2 ]"""
    assert outside + 10 == commands.index(deep)
    # and on a system whose RK4 step is replayed, checked, and aborts with exit 3
    sqrt = r"""printf '[system]\nn = 1\nhamiltonian = "p1^2/2 + sqrt(q1)"\n' > "$RUNNER_TEMP/sqrt.txt" """.rstrip()
    assert outside + 12 == commands.index(sqrt)
    replay = 'hamsym simulate --file "$RUNNER_TEMP/sqrt.txt" --state 1,-2 --t1 2 --json && exit 1 || [ $? -eq 3 ]'
    assert outside + 13 == commands.index(replay)
    # and on a corrupted identity, which the checker must catch with exit 1
    corrupt = "hamsym identity-check --n 2 --count 2 --corrupt --json && exit 1 || [ $? -eq 1 ]"
    assert outside + 15 == commands.index(corrupt)
    # and on the benchmark's identity-n3 input, byte for byte against its golden
    golden = 'hamsym identity-check --n 3 --degree 3 --count 10 --json --seed 1 | cmp - "$GITHUB_WORKSPACE/tests/golden/identity-n3-seed1.json"'
    assert outside + 17 == commands.index(golden)
    # and on the integrator, which reads the canonical equations' record, bit for bit against its golden
    simulate = (
        "hamsym simulate --example kepler3 --state 1,0.2,-0.1,0.1,1.1,0.3 --method rk4 --h 0.01 --t1 1 --seed 42"
        ' --csv "$RUNNER_TEMP/kepler3.csv" > /dev/null'
        ' && cmp "$RUNNER_TEMP/kepler3.csv" "$GITHUB_WORKSPACE/tests/golden/trajectory-kepler3-rk4.csv"'
    )
    assert outside + 19 == commands.index(simulate)
    try:
        import yaml
    except ImportError:
        return  # the line check above stands alone
    job = yaml.safe_load(workflow)["jobs"]["tests"]
    assert job["steps"][-1]["run"].strip() == TIER1
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
