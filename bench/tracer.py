"""Outside-in layer tracer for hamsym.

Wraps the public functions of each layer from outside the package: every
``hamsym`` module namespace that bound a traced function gets the wrapper
(``from .expressions import simplify`` copies the name, so patching only
``hamsym.expressions.simplify`` would miss noether's calls), and
``CompiledFunction.__call__`` is patched on the class. ``uninstall`` puts
every original back.

Spans are aggregated as they close rather than stored one by one (the
simulate workload makes about a million evaluator calls): per function the
call count, inclusive time of the outermost activations (``total_s``), self
time (the span minus the time covered by its child spans, ``self_s``), named
counts, and the number of calls made under each parent span.

Run as a script it is the traced child process of the benchmark:

    PYTHONPATH=src python3 bench/tracer.py STATS.json check --example kepler3 --json

It times ``import hamsym.cli``, runs ``hamsym.cli.main`` on the remaining
arguments with tracing on, writes the aggregated spans to STATS.json and
exits with main's exit code.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in every namespace that bound them.
FUNCTIONS = (
    ("cli", "main"),
    ("registry", "load_example"),
    ("parsing", "parse_system_file"),
    ("parsing", "format_expression"),
    ("noether", "build_report"),
    ("noether", "canonical_equations"),
    ("noether", "on_shell"),
    ("noether", "invariance_residual"),
    ("noether", "find_divergence_term"),
    ("noether", "theorem4_conditions"),
    ("noether", "equation_invariance_direct"),
    ("noether", "first_integral"),
    ("noether", "relation_check"),
    ("noether", "lemma1_residual"),
    ("noether", "lemma2_residuals"),
    ("expressions", "simplify"),
    ("expressions", "partial_diff"),
    ("expressions", "total_derivative"),
    ("expressions", "is_zero"),
    ("expressions", "evaluate"),
    ("expressions", "sample_point"),
    ("dynamics", "compile_expression"),
    ("dynamics", "integrate"),
    ("dynamics", "drift"),
    ("identity", "identity_check"),
    ("identity", "random_pair"),
)
# (module, class, method) patched on the class; reported as module.class.
METHODS = (("dynamics", "CompiledFunction", "__call__"),)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts", "parents", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = Counter()
        self.parents = Counter()
        self.depth = 0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": dict(self.counts),
            "parents": dict(self.parents),
        }


def _on_result(name: str):
    """Named counts derived from a traced function's result."""
    if name == "expressions.is_zero":
        return lambda stat, verdict: stat.counts.update(proven=verdict.status == "proven-zero")
    if name == "dynamics.integrate":
        return lambda stat, trajectory: stat.counts.update(steps=len(trajectory.times) - 1)
    return None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, failure: type | None = None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        on_result = _on_result(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.parents[stack[-1][0] if stack else None] += 1
            frame = [name, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failure is not None and isinstance(exc, failure):
                    stat.counts["failed"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(stat, result)
            return result

        return wrapper

    def install(self) -> None:
        import hamsym.cli  # noqa: F401  (loads every traced module)
        from hamsym.expressions import SingularEvaluationError

        modules = [m for key, m in list(sys.modules.items()) if key == "hamsym" or key.startswith("hamsym.")]
        for module_name, func_name in FUNCTIONS:
            original = getattr(sys.modules[f"hamsym.{module_name}"], func_name)
            failure = SingularEvaluationError if func_name == "evaluate" else None
            wrapper = self._wrap(f"{module_name}.{func_name}", original, failure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module_name, class_name, method in METHODS:
            cls = getattr(sys.modules[f"hamsym.{module_name}"], class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{module_name}.{class_name}", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {name: stat.to_dict() for name, stat in sorted(self.stats.items())}


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import hamsym.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = hamsym.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": tracer.summary()}, handle, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
