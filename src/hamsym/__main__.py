"""The `hamsym` console script and `python -m hamsym`: both run `hamsym.cli`
as the `__main__` module, exactly as `python -m hamsym.cli` does, so every
entry imports with the collector paused and ends through `cli.run`."""
import runpy


def run() -> None:
    runpy.run_module("hamsym.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    run()
