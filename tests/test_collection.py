"""Collecting the test suite runs no engine, so a fault in the engine fails
the tests that reach it and is never a collection error of a whole module."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Run as `python -c COLLECT_WITHOUT_ENGINE SRC TESTS`: rebind each name in
# every finring module that holds it (callers import with `from .x import
# f`), as bench/spans.py does, to a function that raises; then collect TESTS.
COLLECT_WITHOUT_ENGINE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import finring, pytest

def forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(name + " called while collecting")
    return call

for info in pkgutil.iter_modules(finring.__path__):
    importlib.import_module("finring." + info.name)
for name in ("enumerate_isomorphisms", "complete_triangulating_set", "ring_iso_failure"):
    original = getattr(finring, name)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "finring" and getattr(module, name, None) is original:
            setattr(module, name, forbidden(name))
sys.exit(pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def test_collecting_the_tests_runs_no_engine():
    done = subprocess.run(
        [sys.executable, "-c", COLLECT_WITHOUT_ENGINE, str(ROOT / "src"), str(ROOT / "tests")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
