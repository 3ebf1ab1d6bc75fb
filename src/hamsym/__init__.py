"""Symbolic-numeric toolkit for symmetries and first integrals of canonical
Hamiltonian systems."""

__version__ = "0.1.0"

__all__ = ["EXAMPLES", "load_example", "__version__"]


def __getattr__(name: str):
    # resolved on first use, so `import hamsym` (which `python -m hamsym.cli`
    # performs first) does not load sympy
    if name in ("EXAMPLES", "load_example"):
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
