"""Guards on the repository's tooling: every function the benchmark traces still
exists, the package imports nothing outside the standard library, its modules
import one another without a cycle, the oracle's entry point is the one place an
algebra is verified, it defines nothing that nothing reaches, every error class
is raised somewhere, the CLI has a fixed set of options, and importing it loads
no ``dataclasses``."""

import ast
import graphlib
import importlib.util
import subprocess
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
    """A top-level function or class of the package, or a method or property of a class
    outside ``__all__``, is used elsewhere in it (read from the syntax tree, outside its own
    definition), is public API, is traced by the benchmark (a method under its last name
    component) or is on KEEP; anything else belongs in the tests.  Dunder methods are
    called by Python itself and are not counted."""
    defined = {}  # (module, statement index, member index or None) -> qualified name
    reads = set()  # (module, statement index, member index or None, name) for each name read

    def read(module, k, j, tree):
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                reads.add((module, k, j, n.id if isinstance(n, ast.Name) else n.attr))

    for path in (ROOT / "src" / "quiverh1").glob("*.py"):
        module = path.stem
        for k, node in enumerate(ast.parse(path.read_text(), filename=str(path)).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[(module, k, None)] = f"{module}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                read(module, k, None, node)
                continue
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                read(module, k, None, part)
            for j, member in enumerate(node.body):
                if (isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                        and node.name not in quiverh1.__all__):
                    defined[(module, k, j)] = f"{module}.{node.name}.{member.name}"
                read(module, k, j, member)
    assert set(KEEP) <= set(defined.values())
    assert "simplicial.Poset.above" not in defined.values()  # Poset is public API
    assert "cli.RunReport.to_json" in defined.values()  # the methods are found
    kept = set(quiverh1.__all__) | {target.split(".")[-1] for target in _bench_spans().TRACED}
    unreached = []
    for (module, k, j), qualified in defined.items():
        name = qualified.split(".")[-1]
        outside = ((m, i) != (module, k) or j not in (None, jj) for m, i, jj, n in reads if n == name)
        if name not in kept and qualified not in KEEP and not any(outside):
            unreached.append(qualified)
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


def test_importing_the_cli_loads_no_dataclasses():
    """Every CLI call pays for its import: ``dataclasses`` and what it pulls in
    (``inspect``, ``ast``, ``dis``, ...) took longer than most documents' work."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import quiverh1.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
