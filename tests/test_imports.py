"""The package never imports the benchmark harness: `perfbench/` wraps
`bevssl` functions from outside, so a module of `src/bevssl` that imported
`perfbench`, `spans` or `workloads` would measure itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bevssl"
BENCHMARK = {"perfbench", "spans", "workloads"}


def _benchmark_imports(tree: ast.AST) -> list[str]:
    """The module names that the import statements of `tree` name and that
    reach the benchmark, relative imports by their dotted tail."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [base, *(f"{base}.{alias.name}".lstrip(".")
                              for alias in node.names)]
    return sorted(name for name in names if BENCHMARK & set(name.split(".")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_never_imports_the_benchmark(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _benchmark_imports(tree) == [], path.name


def test_the_guard_sees_each_import_form():
    source = ("import perfbench.run\nfrom spans import Tracer\n"
              "from . import workloads\nimport numpy as np\n"
              "from .autograd import Tensor\n")
    assert _benchmark_imports(ast.parse(source)) == [
        "perfbench.run", "spans", "spans.Tracer", "workloads"]
