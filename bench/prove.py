"""Repeat the benchmark over several seeds and summarise its spread.

    python3 bench/prove.py --runs 10 --out bench/out/set1.json
    python3 bench/prove.py --runs 10 --out bench/BASELINE.json --compare bench/out/set1.json

For each workload it makes ``--runs`` untraced runs of ``bench/run.py``
with seeds 0, 1, ..., then one traced run at seed 0. For every end-to-end
metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the interquartile
distance as a share of the median, which must stay within the metric's
bound in BENCHMARK.json. With ``--compare`` it also reports how far each
median moved from an earlier summary, against the same bound. The summary,
with the machine block, the workload rationale and the layer map, is
written to ``--out``, with the first set's median and the change beside
each metric when ``--compare`` is given. The committed
``bench/BASELINE.json`` is the summary of a second set of the same code,
compared with a first.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

# Share of cli.main wall time that the wrapped functions must account for.
MIN_COVERAGE = 0.9

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "noether.on_shell.{calls,self_s}, noether.canonical_equations.calls, noether.invariance_residual.calls":
        "wall_s/cpu_s on check-kepler3; not simulate-example1 or identity-n3; caching them may raise peak_rss_mb",
    "noether.{build_report,theorem4_conditions,equation_invariance_direct,find_divergence_term,first_integral,"
    "relation_check}.total_s": "wall_s on check-kepler3",
    "noether.{lemma1_residual,lemma2_residuals}.total_s": "wall_s on identity-n3",
    "expressions.simplify.{calls,self_s}": "wall_s on check-kepler3 (57 %) and identity-n3 (polynomial path)",
    "expressions.{partial_diff,total_derivative}.{calls,self_s}": "wall_s on identity-n3 (~70 %) and check-kepler3 (~13 %)",
    "expressions.is_zero.{calls,total_s,proven,proof_ratio}": "correctness of check-kepler3; proof_ratio should rise",
    "expressions.evaluate.{calls,self_s,failed}, expressions.sample_point.calls":
        "under 1 % of check-kepler3; no workload's wall_s until one evaluator serves sampling and dynamics",
    "dynamics.{integrate,CompiledFunction,drift}.*": "wall_s on simulate-example1 (trajectory arrays: peak_rss_mb); absent elsewhere",
    "dynamics.compile_expression.{calls,total_s}, identity.identity_check.total_s, identity.random_pair.self_s":
        "context for simulate-example1 and identity-n3",
    "parsing.parse_system_file.total_s, parsing.format_expression.{calls,total_s}, registry.load_example.total_s,"
    " cli.import_s": "setup_s on every workload",
    "cli.main.total_s, trace.coverage, trace.overhead_s": "trace quality: coverage >= 0.9, overhead reported",
}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"  {workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", type=Path, help="earlier summary to compare medians against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    why = {w["name"]: w["why"] for w in run.SPEC["workloads"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    seconds = run.SPEC["run_seconds"]
    summary = {"machine": run.machine(0), "run_seconds": seconds, "runs": args.runs,
               "layer_map": LAYER_MAP, "workloads": {}}
    ok = True
    for workload in why:
        results = [one_run(workload, seed, seconds, 0) for seed in range(args.runs)]
        entry = {
            "why": why[workload],
            "command": ["python", "-m", "hamsym.cli", *run.cli_argv(workload, 0)],
            "expected_exit": run.WORKLOADS[workload].expected_exit,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        ok = ok and entry["failed"] == 0
        print(f"{workload}: {entry['failed']} failed of {entry['attempted']} processes")
        for name in run.END_TO_END:
            stats = spread([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            line = (f"  {name:<12} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}"
                    f"  spread {stats['spread']:.4f} (bound {bounds[name]})")
            if stats["spread"] > bounds[name]:
                ok = False
                line += "  SPREAD OVER BOUND"
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before is not None:
                change = stats["median"] / before["median"] - 1
                stats.update(earlier_median=before["median"], median_change=change)
                line += f"  vs earlier {change:+.4f}"
                if change > bounds[name]:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line)
        traced = one_run(workload, 0, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        ok = ok and traced["correct"] and entry["per_layer"]["trace.coverage"] >= MIN_COVERAGE
        print(f"  trace.coverage {entry['per_layer']['trace.coverage']:.4f}"
              f"  trace.overhead_s {entry['per_layer']['trace.overhead_s']:.4f}")
        summary["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady and correct" if ok else "NOT steady or NOT correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
