"""hamsym benchmark: fresh-process CLI wall time per workload, plus a traced
run that splits it by layer.

    python3 bench/run.py --workload simulate-example1 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` (nothing needs installing). The load is a closed loop with one
client: one child process at a time, from this single parent process.

``--trace 0`` runs the workload's command as fresh ``python -m hamsym.cli``
processes until ``--seconds`` are used up, and reports medians of wall
time, user+sys CPU time and peak RSS (CPU and RSS of each child come from
``os.wait4``; the machine has no ``/usr/bin/time``). It also times
``setup_s`` several times: a fresh process that imports ``hamsym.cli`` and
loads the workload's system.

The host's speed drifts by tens of per cent over minutes, so times are
reported at reference speed: the fixed script ``bench/reference.py``, which
does not use hamsym, runs as a fresh process first and then after every
workload process (and the set-up processes that follow it), as often as it
takes to spend ``REFERENCE_SHARE`` of that process's time. Each time is
scaled by ``REFERENCE_S`` over the mean time of the reference processes
just before and just after it (CPU times by their CPU times). A set-up
process is shorter than one reference process, whose noise would swamp
it, so set-up times are scaled by the median time of all the run's
reference processes. The times as measured are in the detail file.

A run is made of whole rounds of one
process per input: ``--seed`` is passed through to check-kepler3 and
simulate-example1 as their one input, and identity-n3 has two fixed input
seeds (see ``WORKLOADS``). So a run's inputs never depend on how many
processes fit the window.

``--trace 1`` runs pairs of one untraced process and one process under the
outside-in tracer (``bench/tracer.py``) and reports per-layer metrics from
the traced one, plus the tracing overhead (traced minus untraced wall).

Every process is checked: its exit code, its verdict classes against the
hand-written goldens in ``bench/golden.py``, and its ``--json`` bytes
against the first process of the run with the same input. A process
failing any of these counts in ``failed``; ``attempted`` counts the judged
processes. Workload and metric names and units come from
``BENCHMARK.json``. Human-readable metric lines go to stdout; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Details of each run are written
to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import golden

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# name -> unit of every end-to-end and every per-layer metric, in file order
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 7
# Median wall time of bench/reference.py on a 2-vCPU VM (Python 3.11.7,
# sympy 1.14.0): a reported time is what it would be when that script takes
# this long.
REFERENCE_S = 1.6
# One reference process is as noisy as a workload process several times
# longer; a long process gets more of them around it.
REFERENCE_SHARE = 0.2
CHILD_TIMEOUT_S = 120
# The traced span that every other span runs under.
ROOT_SPAN = "cli.main"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    expected_exit: int
    example: str | None
    # hamsym --seed of each process in a round; None passes --seed through
    input_seeds: tuple[int, ...] | None = None


# Why each workload was chosen is in BENCHMARK.json. check-kepler3 is not
# listed there: a run fits only two of its 10-16 s processes, and on a
# shared 2-vCPU VM the median of two spread past its bound from run to run.
# It stays runnable with --workload, checked against its golden. The seed
# of check and simulate picks only sample points, so their cost does not
# depend on it.
# identity-check draws its random systems from the seed, and one seed's
# systems cost up to 1.5 times another's (seeds 0-9 take 3.5-5.4 s on a
# 2-vCPU VM), so every run of identity-n3 covers the same two inputs in
# whole rounds.
WORKLOADS = {
    "check-kepler3": Workload(("check", "--example", "kepler3", "--json"), 1, "kepler3"),
    "simulate-example1": Workload(
        ("simulate", "--example", "example1", "--state", "1,0", "--h", "0.001", "--t1", "100", "--json"),
        0,
        "example1",
    ),
    "identity-n3": Workload(
        ("identity-check", "--n", "3", "--degree", "3", "--count", "10", "--json"), 0, None, (0, 1)
    ),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, or set-up fails)."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Workload processes attempted and failed in one run, with the reason
    for each failure and, per input seed, the first process's output for
    byte identity."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    reference: dict[int, bytes] = field(default_factory=dict)

    def judge(self, workload: str, seed: int, child: Child, label: str) -> None:
        self.attempted += 1
        problems = golden.check_output(
            workload, seed, child.exit_code, WORKLOADS[workload].expected_exit, child.stdout
        )
        if self.reference.setdefault(seed, child.stdout) != child.stdout:
            problems.append(f"--json bytes differ from the first process with seed {seed}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], tag: str) -> Child:
    """Run one child to completion, timing its wall clock and reading its
    CPU time and peak RSS from os.wait4. Output goes through files under
    bench/out, so a large report cannot block on a full pipe."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            status, usage = _wait4(proc, start + CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    # wait4 reaped the child; record that so Popen does not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def _wait4(proc: subprocess.Popen, deadline: float):
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return status, usage
        if time.perf_counter() > deadline:
            raise TimeoutError(f"child {proc.args!r} exceeded {CHILD_TIMEOUT_S} s")
        time.sleep(0.002)


def cli_argv(workload: str, seed: int) -> list[str]:
    return [*WORKLOADS[workload].argv, "--seed", str(seed)]


def input_seeds(workload: str, seed: int) -> tuple[int, ...]:
    """The hamsym --seed of each process in one round of a run."""
    return WORKLOADS[workload].input_seeds or (seed,)


def run_reference() -> Child:
    child = run_child([sys.executable, str(BENCH_DIR / "reference.py")], "reference")
    if child.exit_code != 0 or child.stdout != b"694 449998.5\n":
        raise BenchmarkError(f"reference process failed:\n{child.stderr.decode(errors='replace')}")
    return child


def run_references(measured_s: float) -> list[Child]:
    """Reference processes, at least one, until they have taken
    REFERENCE_SHARE of the measured time."""
    references = [run_reference()]
    while sum(r.wall_s for r in references) < REFERENCE_SHARE * measured_s:
        references.append(run_reference())
    return references


def scales(before: list[Child], after: list[Child]) -> tuple[float, float]:
    """Factors that bring a wall time and a CPU time measured between two
    groups of reference processes to reference speed."""
    around = before + after
    return (
        REFERENCE_S / statistics.mean(r.wall_s for r in around),
        REFERENCE_S / statistics.mean(r.cpu_s for r in around),
    )


def setup_argv(workload: str) -> list[str]:
    code = "import hamsym.cli"
    example = WORKLOADS[workload].example
    if example is not None:
        code += f"; from hamsym.registry import load_example; load_example({example!r})"
    return [sys.executable, "-c", code]


def measure_setup(workload: str) -> float:
    child = run_child(setup_argv(workload), f"{workload}-setup")
    if child.exit_code != 0:
        raise BenchmarkError(f"set-up process failed:\n{child.stderr.decode(errors='replace')}")
    return child.wall_s


def run_e2e(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    inputs = input_seeds(workload, seed)
    # The set-up processes are spread over the first two rounds, after the
    # workload processes, so that they meet as many states of the host as
    # the run does.
    setups_per_process = -(-SETUP_REPEATS // (2 * len(inputs)))
    setup: list[float] = []
    references = [run_references(0.0)]
    # (child, wall scale, cpu scale, seconds the child and its references took)
    children: list[tuple[Child, float, float, float]] = []
    start = time.perf_counter()
    # closed loop: start the next process only when the last has ended, in
    # whole rounds (one process per input), while a round is expected to fit
    # the window; at least two rounds, so that byte identity is checked
    while len(children) < 2 * len(inputs) or (
        time.perf_counter() - start + len(inputs) * statistics.median(c[3] for c in children) <= seconds
    ):
        for input_seed in inputs:
            argv = [sys.executable, "-m", "hamsym.cli", *cli_argv(workload, input_seed)]
            child = run_child(argv, f"{workload}-e2e")
            tally.judge(workload, input_seed, child, f"process {len(children)}")
            setup += [measure_setup(workload) for _ in range(min(setups_per_process, SETUP_REPEATS - len(setup)))]
            references.append(run_references(child.wall_s))
            wall_scale, cpu_scale = scales(*references[-2:])
            children.append((child, wall_scale, cpu_scale, child.wall_s + sum(r.wall_s for r in references[-1])))
    setup_scale = REFERENCE_S / statistics.median(r.wall_s for group in references for r in group)
    samples = {
        "setup_s": [t * setup_scale for t in setup],
        "wall_s": [c.wall_s * w for c, w, _, _ in children],
        "cpu_s": [c.cpu_s * u for c, _, u, _ in children],
        "peak_rss_mb": [c.peak_rss_mb for c, _, _, _ in children],
    }
    metrics = {name: statistics.median(samples[name]) for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    raw = {
        "setup_s": setup,
        "wall_s": [c.wall_s for c, _, _, _ in children],
        "cpu_s": [c.cpu_s for c, _, _, _ in children],
        "reference_wall_s": [[r.wall_s for r in group] for group in references],
        "reference_cpu_s": [[r.cpu_s for r in group] for group in references],
    }
    return metrics, tally, {**samples, "raw": raw}


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced process, by the names in PER_LAYER."""
    spans = trace["spans"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
    out = {"cli.import_s": trace["import_s"], "trace.overhead_s": traced_wall - untraced_wall}
    for name in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        function, stat = name.rsplit(".", 1)
        span = spans.get(function, empty)
        if stat in span:
            out[name] = span[stat]
        elif stat == "proof_ratio":
            out[name] = span["counts"].get("proven", 0) / span["calls"] if span["calls"] else 0.0
        elif stat == "us_per_step":
            steps = span["counts"].get("steps", 0)
            out[name] = 1e6 * span["total_s"] / steps if steps else 0.0
        else:
            out[name] = span["counts"].get(stat, 0)
    root = spans[ROOT_SPAN]
    inside = sum(span["self_s"] for name, span in spans.items() if name != ROOT_SPAN)
    out["trace.coverage"] = inside / root["total_s"]
    return out


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    stats_path = OUT / f"{workload}-trace.json"
    inputs = input_seeds(workload, seed)
    pairs = []
    start = time.perf_counter()
    # whole rounds of pairs of one untraced and one traced process on the
    # same input
    while not pairs or time.perf_counter() - start + len(inputs) * statistics.median(p[2] for p in pairs) <= seconds:
        for input_seed in inputs:
            args = cli_argv(workload, input_seed)
            untraced = run_child([sys.executable, "-m", "hamsym.cli", *args], f"{workload}-untraced")
            tally.judge(workload, input_seed, untraced, f"untraced process {len(pairs)}")
            stats_path.unlink(missing_ok=True)
            traced_argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(stats_path), *args]
            child = run_child(traced_argv, f"{workload}-traced")
            tally.judge(workload, input_seed, child, f"traced process {len(pairs)}")
            if child.exit_code != WORKLOADS[workload].expected_exit or not stats_path.exists():
                raise BenchmarkError(f"traced process failed:\n{child.stderr.decode(errors='replace')}")
            trace = json.loads(stats_path.read_text())
            wall = untraced.wall_s + child.wall_s
            pairs.append((layer_metrics(trace, child.wall_s, untraced.wall_s), trace, wall))
    metrics = {name: statistics.median(p[0][name] for p in pairs) for name in PER_LAYER}
    return metrics, tally, {"pairs": [p[0] for p in pairs], "spans": pairs[-1][1]["spans"]}


def machine(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
        "notes": "no /usr/bin/time; child CPU time and peak RSS come from os.wait4",
    }


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report_lines(metrics: dict, units: dict, samples: dict, tally: Tally) -> list[str]:
    lines = []
    for name, value in metrics.items():
        note = ""
        if name in samples:
            note = f"  (median of {len(samples[name])} processes"
            if name in samples.get("raw", {}):
                note += f"; {_fmt(statistics.median(samples['raw'][name]))} {units[name]} as measured"
            note += ")"
        elif name == "expressions.is_zero.proof_ratio":
            note = f"  (base: {metrics['expressions.is_zero.calls']} is_zero calls)"
        lines.append(f"{name:<44} {_fmt(value):>14} {units[name]}{note}")
    rate = len(tally.failures) / tally.attempted
    lines.append(f"{'error_rate':<44} {_fmt(rate):>14} ratio  ({len(tally.failures)} failed / {tally.attempted} attempted)")
    lines += [f"FAILED {reason}" for reason in tally.failures]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "hamsym" / "cli.py").is_file():
        raise BenchmarkError(f"no hamsym source tree at {SRC}; run from the root of a checkout")
    host = machine(seed)
    if trace:
        metrics, tally, samples = run_traced(workload, seed, seconds)
        units = PER_LAYER
    else:
        metrics, tally, samples = run_e2e(workload, seed, seconds)
        units = END_TO_END
    for line in report_lines(metrics, units, samples, tally):
        print(line)
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "machine": host,
        "metrics": metrics,
        "samples": samples,
        "attempted": tally.attempted,
        "failures": tally.failures,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
