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
    try:
        import yaml
    except ImportError:
        return  # the line check above stands alone
    job = yaml.safe_load(workflow)["jobs"]["tests"]
    assert job["steps"][-1]["run"].strip() == TIER1
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
