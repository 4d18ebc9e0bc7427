"""Smoke tests: every shipped example parses and its imports resolve.

The examples are executed in full by hand / CI timers; here we pin the
cheap invariants that catch bit-rot immediately: valid syntax, valid
imports, a ``main()`` entry point, and the shebang/docstring conventions.
The ``benchmarks/test_*.py`` files get the import check too: tier-1 does
not collect them, so a renamed or deleted ``repro`` name they import
would otherwise go unnoticed.
"""

import ast
import importlib
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
BENCHMARKS = sorted((Path(__file__).parent.parent / "benchmarks").glob("test_*.py"))


def assert_imports_resolve(path: Path) -> None:
    """Every ``from repro... import name`` in ``path`` resolves."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name}: {node.module}.{alias.name} missing"
                    )


def test_expected_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "mde_experiment.py",
        "signal_chain.py",
        "cgra_playground.py",
        "multiparticle_modes.py",
        "rampup.py",
        "dual_harmonic.py",
    } <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
class TestEachExample:
    def test_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)

    def test_has_main_and_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} needs a docstring"
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "main" in names

    def test_imports_resolve(self, path):
        assert_imports_resolve(path)


def test_benchmarks_present():
    assert BENCHMARKS, "no benchmarks/test_*.py found"


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_imports_resolve(path):
    assert_imports_resolve(path)
