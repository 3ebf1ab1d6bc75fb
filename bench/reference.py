"""Fixed work that does not use hamsym: the speed reference of the benchmark.

The host's speed drifts from minute to minute, and every timing drifts with
it. ``bench/run.py`` runs this script as a fresh process next to every
process it times and reports times at the speed this script measures (see
``REFERENCE_S`` there). Its mix follows the workloads: the sympy import,
symbolic differentiation and simplification on a radical, polynomial
expansion, and a pure-Python float loop. It prints a fixed line that the
benchmark checks.
"""
import sympy as sp

x, y, z = sp.symbols("x y z", positive=True)
r = sp.sqrt(x**2 + y**2 + z**2)
ops = 0
for k in (1, 2):
    ops += sp.count_ops(sp.simplify(sp.diff(x**k / r, x, 2) + sp.diff(y / r**k, y, 2)))
for k in range(8):
    ops += len(sp.expand((x + 2 * y - z + k) ** 6).args)
total = 0.0
for i in range(300_000):
    total += (i % 7) * 0.5
print(ops, total)
