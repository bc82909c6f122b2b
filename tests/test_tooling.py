"""Guards on the repository's tooling: every function the benchmark traces still
exists, and the package imports nothing outside the standard library."""

import ast
import importlib.util
import sys
from pathlib import Path as FsPath

import quiverh1.cli  # noqa: F401  (the tracer wraps the bindings of every loaded module)

ROOT = FsPath(__file__).resolve().parents[1]


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_bench_target_resolves():
    """A refactor that renames or deletes a traced function would make its per-layer
    metrics read 0 without an error."""
    spans = _bench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracer._undo == []


def test_the_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "quiverh1").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "quiverh1", f"{path.name} imports {name}"
    assert "\ndependencies = []\n" in (ROOT / "pyproject.toml").read_text()
