"""Guards on the repository's tooling: every function the benchmark traces still
exists, the package imports nothing outside the standard library, its modules
import one another without a cycle, the oracle's entry point is the one place an
algebra is verified, it defines nothing that nothing reaches, every error class
is raised somewhere, and the CLI has a fixed set of options."""

import ast
import graphlib
import importlib.util
import sys
from pathlib import Path as FsPath

import quiverh1
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


def _package_imports() -> dict[str, set[str]]:
    """Each quiverh1 module (``__init__`` for the package) -> the package modules it
    imports anywhere in its source: at the top, inside a function or under TYPE_CHECKING."""
    sources = {path.stem: path for path in (ROOT / "src" / "quiverh1").glob("*.py")}

    def module(dotted: str) -> str:
        return dotted if dotted in sources else "__init__"

    graph = {}
    for name, path in sources.items():
        deps = graph.setdefault(name, set())
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update(module(node.module) if node.module else module(alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "quiverh1":
                deps.add(module(node.module.partition(".")[2]))
            elif isinstance(node, ast.Import):
                deps.update(module(alias.name.partition(".")[2]) for alias in node.names
                            if alias.name.split(".")[0] == "quiverh1")
    return graph


def test_the_package_modules_import_one_another_without_a_cycle():
    graph = _package_imports()
    assert "presentations" in graph["formulas"]  # the edges are found
    assert "exactalg" not in graph["formulas"]  # the formulas share no code with the oracles
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert graph["presentations"] == {"errors", "quiver"}


def test_only_the_pregenerated_row_reads_the_basis():
    """The acyclic rows count or search the paths they need; listing the whole basis is
    left to the pre-generated row, which reads every slice of it, and to the oracle."""
    tree = ast.parse((ROOT / "src" / "quiverh1" / "formulas.py").read_text())
    readers = {getattr(node, "name", type(node).__name__) for node in tree.body for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr == "basis"}
    assert readers == {"h1_pregenerated"}


def test_the_oracle_entry_point_is_the_one_verifier():
    """The one ``.check()`` call in the package is in ``exactalg.regular_bimodule``, and no
    ``.validate()`` attribute is called (``quiver.validate(q)`` is a name call): a builder
    that verified again, or a second verifier of the regular bimodule, would fail here."""
    calls = {"check": [], "validate": []}  # method -> the top-level definitions that call it
    for path in sorted((ROOT / "src" / "quiverh1").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in calls:
                    calls[n.func.attr].append(f"{path.stem}.{getattr(node, 'name', type(node).__name__)}")
    assert calls == {"check": ["exactalg.regular_bimodule"], "validate": []}


def test_the_order_complex_shares_no_oracle_code():
    """simplicial takes only the row type and the H^n count from exactalg, so the
    simplicial H^1 stays a check independent of both Hochschild oracles."""
    imports = [node for node in ast.walk(ast.parse((ROOT / "src" / "quiverh1" / "simplicial.py").read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not any(alias.name.endswith("exactalg") for node in imports for alias in node.names)
    assert {alias.name for node in imports if isinstance(node, ast.ImportFrom)
            and node.module in ("exactalg", "quiverh1.exactalg") for alias in node.names} == {"Row", "cohomology_dims"}


# Top-level definitions that stay in the package with no caller there, and why.
KEEP = {
    "cli.serialize": "parse . serialize is the identity: test_cli.py::test_parse_inverts_serialize",
    "presentations.truncation_generators": "Z of a truncated presentation, for ROADMAP items 1 and 3",
}


def test_every_top_level_definition_is_reached():
    """A top-level function or class of the package is used elsewhere in it (read from
    the syntax tree, outside its own definition), is public API, is traced by the
    benchmark or is on KEEP; anything else belongs in the tests."""
    defined = {}  # (module, statement index) -> name, for each top-level function or class
    reads = set()  # (module, statement index, name) for each name a top-level statement reads
    for path in (ROOT / "src" / "quiverh1").glob("*.py"):
        for k, node in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(path.stem, k)] = node.name
            for n in ast.walk(node):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    reads.add((path.stem, k, n.id if isinstance(n, ast.Name) else n.attr))
    assert set(KEEP) <= {f"{module}.{name}" for (module, _), name in defined.items()}
    kept = set(quiverh1.__all__) | {target.split(".")[1] for target in _bench_spans().TRACED}
    unreached = [f"{module}.{name}" for (module, k), name in defined.items()
                 if name not in kept and f"{module}.{name}" not in KEEP
                 and not any(n == name and (m, i) != (module, k) for m, i, n in reads)]
    assert unreached == []


def test_every_error_class_is_raised_in_the_package():
    """An error class whose last ``raise`` has gone is dead code, even while an
    ``except`` or an import still names it."""
    tree = ast.parse((ROOT / "src" / "quiverh1" / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"QuiverH1Error"}
    raised = set()
    for path in (ROOT / "src" / "quiverh1").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert "ParseError" in classes  # the classes are found
    assert classes - raised == set()


def test_the_cli_has_a_fixed_set_of_options():
    """Adding a flag is a deliberate edit of this test."""
    options = {opt for action in quiverh1.cli._parser()._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--field", "--json", "--per-component"}
