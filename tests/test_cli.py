import ast
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FsPath

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quiverh1

from quiverh1.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    InputDocument,
    main,
    parse,
    run,
    serialize,
)
from quiverh1.errors import ParseError
from quiverh1.presentations import AlgebraPresentation, TruncationIdeal
from quiverh1.simplicial import Poset

from conftest import (
    FIXTURE_DIR,
    cycle,
    fib_dag,
    fixture_text,
    random_connected_dag,
    random_minimal_ideal,
    random_monomial_instances,
)
from test_presentations import admissible_cycle_presentation, truncated_cycles


def test_parse_quiver_fixture():
    doc = parse(fixture_text("kronecker2.quiver"))
    assert doc.kind == "quiver-presentation"
    assert doc.name == "kronecker2"
    assert len(doc.body.quiver.arrows) == 2
    assert doc.body.kind == "none"


def test_parse_relation_kinds():
    doc = parse(fixture_text("cycle3-trunc2.quiver"))
    assert doc.body.kind == "truncated"
    assert doc.body.scheme.m == 2
    doc = parse(fixture_text("a3-monomial.quiver"))
    assert doc.body.kind == "monomial"
    assert [z.arrow_names() for z in doc.body.scheme.generators] == [("a", "b")]


def test_parse_poset_fixture():
    doc = parse(fixture_text("crown.poset"))
    assert doc.kind == "poset"
    assert doc.body.leq("c", "a")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse("quiver q\nvertex x\nbogus y\nend\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse("quiver q\narrow a x y\nend\n")
    assert exc.value.line == 2  # unresolved vertex
    with pytest.raises(ParseError):
        parse("quiver q\nvertex x\nvertex x\nend\n")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("quiver q\nvertex x\n")  # missing end


def test_parse_rejects_mixed_relations():
    text = (
        "quiver q\nvertex x\nvertex y\nvertex z\n"
        "arrow a x y\narrow b y z\n"
        "relation monomial a b\nrelation truncate 2\nend\n"
    )
    with pytest.raises(ParseError, match="mix"):
        parse(text)


_XY = "quiver q\nvertex x\nvertex y\n"
_AB = _XY + "arrow a x y\narrow b y x\n"
_ABC = "poset p\nelement a\nelement b\nelement c\n"

# One short document per error parse can raise: (document, line, message).
PARSE_ERRORS = [
    ("vertex x\nend\n", 1, "expected 'quiver <name>' or 'poset <name>'"),
    ("# c\nquiver\nend\n", 2, "expected 'quiver <name>' or 'poset <name>'"),
    ("poset p q\nend\n", 1, "expected 'quiver <name>' or 'poset <name>'"),
    (_XY + "end\nvertex z\n", 5, "content after 'end'"),
    (_XY + "end\nend\n", 5, "content after 'end'"),
    (_XY + "end now\n", 4, "'end' takes no arguments"),
    (_XY + "vertex x\nend\n", 4, "duplicate definition of vertex 'x'"),
    (_AB + "arrow a y y\nend\n", 6, "duplicate definition of arrow 'a'"),
    (_AB + "arrow a z w\nend\n", 6, "duplicate definition of arrow 'a'"),
    (_XY + "arrow a z y\nend\n", 4, "unresolved name: vertex 'z'"),
    (_XY + "arrow a x z\nend\n", 4, "unresolved name: vertex 'z'"),
    (_XY + "arrow a w z\nend\n", 4, "unresolved name: vertex 'w'"),
    (_AB + "relation monomial a c\nend\n", 6, "unresolved name: arrow 'c'"),
    (_AB + "relation monomial d a c\nend\n", 6, "unresolved name: arrow 'd'"),
    (_ABC + "element b\nend\n", 5, "duplicate definition of element 'b'"),
    (_ABC + "covers d a\nend\n", 5, "unresolved name: element 'd'"),
    (_ABC + "covers a d\nend\n", 5, "unresolved name: element 'd'"),
    (_ABC + "covers e d\nend\n", 5, "unresolved name: element 'e'"),
    (_ABC + "relation d <= e\nend\n", 5, "unresolved name: element 'd'"),
    (_ABC + "relation a <= e\nend\n", 5, "unresolved name: element 'e'"),
    (_AB + "relation monomial a b\nrelation truncate 2\nend\n", 7,
     "cannot mix 'monomial' and 'truncate' relations"),
    (_AB + "relation truncate 2\nrelation monomial a b\nend\n", 7,
     "cannot mix 'monomial' and 'truncate' relations"),
    (_AB + "relation truncate 2\nrelation monomial a\nend\n", 7,
     "cannot mix 'monomial' and 'truncate' relations"),
    (_AB + "relation monomial a b\nrelation truncate x\nend\n", 7,
     "cannot mix 'monomial' and 'truncate' relations"),
    (_AB + "relation monomial a\nend\n", 6, "monomial relation needs at least two arrows"),
    (_AB + "relation monomial\nend\n", 6, "monomial relation needs at least two arrows"),
    (_AB + "relation monomial c\nend\n", 6, "monomial relation needs at least two arrows"),
    (_AB + "relation truncate 2\nrelation truncate 3\nend\n", 7, "duplicate truncate relation"),
    (_AB + "relation truncate 2\nrelation truncate x\nend\n", 7, "duplicate truncate relation"),
    (_AB + "relation truncate x\nend\n", 6, "invalid truncation level 'x'"),
    (_AB + "relation truncate 2.5\nend\n", 6, "invalid truncation level '2.5'"),
    (_AB + "relation truncate 1\nend\n", 6, "truncation level must be >= 2"),
    (_AB + "relation truncate -3\nend\n", 6, "truncation level must be >= 2"),
    ("", 1, "empty document"),
    ("# only a comment\n\n", 1, "empty document"),
    (_XY, 3, "missing 'end'"),
    (_XY + "# trailing\n\n", 5, "missing 'end'"),
    ("poset p\n", 1, "missing 'end'"),
    (_XY + "vertex\nend\n", 4, "unknown directive 'vertex'"),
    (_XY + "vertex z w\nend\n", 4, "unknown directive 'vertex z w'"),
    (_XY + "arrow a x\nend\n", 4, "unknown directive 'arrow a x'"),
    (_AB + "relation truncate\nend\n", 6, "unknown directive 'relation truncate'"),
    (_AB + "relation truncate 2 3\nend\n", 6, "unknown directive 'relation truncate 2 3'"),
    (_AB + "relation monomial a b\nrelation truncate\nend\n", 7, "unknown directive 'relation truncate'"),
    (_AB + "relation\nend\n", 6, "unknown directive 'relation'"),
    (_AB + "relation a <= b\nend\n", 6, "unknown directive 'relation a <= b'"),
    (_XY + "  bogus\t y   # a comment\nend\n", 4, "unknown directive 'bogus\\t y'"),
    (_XY + "element x\nend\n", 4, "unknown directive 'element x'"),
    (_XY + "poset p\nend\n", 4, "unknown directive 'poset p'"),
    (_ABC + "covers a\nend\n", 5, "unknown directive 'covers a'"),
    (_ABC + "covers a b c\nend\n", 5, "unknown directive 'covers a b c'"),
    (_ABC + "relation a < b\nend\n", 5, "unknown directive 'relation a < b'"),
    (_ABC + "relation a <=\nend\n", 5, "unknown directive 'relation a <='"),
    (_ABC + "relation truncate 2\nend\n", 5, "unknown directive 'relation truncate 2'"),
    (_ABC + "relation monomial a b\nend\n", 5, "unknown directive 'relation monomial a b'"),
    (_ABC + "element\nend\n", 5, "unknown directive 'element'"),
    (_ABC + "vertex a\nend\n", 5, "unknown directive 'vertex a'"),
    (_AB + "relation monomial a a\nend\n", 6,
     "relation is not a path: arrows 'a' and 'a' are not composable"),
    (_AB + "relation monomial a a\nrelation monomial a a\nend\n", 6,
     "relation is not a path: arrows 'a' and 'a' are not composable"),
    (_AB + "relation monomial a b\nrelation monomial a b a\nend\n", 7, "non-minimal: a*b*a contains a*b"),
    (_AB + "relation monomial a b a\nrelation monomial a b\nrelation monomial a b a\nend\n", 6,
     "non-minimal: a*b*a contains a*b"),
    (_ABC + "relation a <= b\ncovers a b\nend\n", 6, "antisymmetry violation: 'a' <= 'b' <= 'a'"),
    ("quiver q\nend\n", 1, "empty vertex set"),
]


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS,
                         ids=[re.sub(r"\W+", "-", message).strip("-") for _, _, message in PARSE_ERRORS])
def test_each_parse_error_cites_its_line_and_message(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.message) == (line, message)


def _literal_prefix(node: ast.expr):
    """The constant text a string or f-string starts with; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        head = []
        for part in node.values:
            if not isinstance(part, ast.Constant):
                break
            head.append(part.value)
        return "".join(head)
    return None


def test_every_parse_error_message_in_the_cli_is_pinned():
    """Each literal ParseError message in cli.py starts one of the pinned messages, so a
    new parse error fails here until the table has a case for it."""
    tree = ast.parse(FsPath(quiverh1.cli.__file__).read_text())
    prefixes = [_literal_prefix(n.args[1]) for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "ParseError" and len(n.args) == 2]
    prefixes = [p for p in prefixes if p is not None]
    assert len(prefixes) >= 12  # the messages are found
    pinned = [message for _, _, message in PARSE_ERRORS]
    assert [p for p in prefixes if not any(m.startswith(p) for m in pinned)] == []


def test_a_whole_document_error_cites_the_header_line():
    with pytest.raises(ParseError) as exc:
        parse("# c\n\nquiver q\nend\n")
    assert (exc.value.line, exc.value.message) == (3, "empty vertex set")


def test_serialize_round_trip():
    for name in (
        "kronecker2.quiver",
        "a3-monomial.quiver",
        "cycle3-trunc2.quiver",
        "effective-couple.quiver",
        "crown.poset",
        "diamond-printed.poset",
    ):
        doc = parse(fixture_text(name))
        text = serialize(doc)
        again = parse(text)
        assert serialize(again) == text
        assert again.name == doc.name and again.kind == doc.kind


@st.composite
def documents(draw):
    """A document from the seeded generators: a connected acyclic quiver with no
    relations, a minimal monomial ideal or a truncation; a cycle with a truncation; or
    a poset of 0-7 elements listed out of order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["none", "monomial", "truncated", "cycle", "poset"]))
    name = f"{shape}{rng.randrange(100)}"
    if shape == "poset":
        names = [f"p{i}" for i in range(rng.randint(0, 7))]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.3]
        rng.shuffle(names)
        return InputDocument("poset", name, Poset.from_pairs(names, pairs))
    if shape == "cycle":
        return InputDocument("quiver-presentation", name, AlgebraPresentation(
            cycle(rng.randint(1, 5)), TruncationIdeal(rng.randint(2, 4))))
    q = random_connected_dag(rng)
    scheme = None
    if shape == "monomial":
        ideal = random_minimal_ideal(rng, q)
        scheme = ideal if ideal.generators else None  # the grammar writes an empty ideal as no relations
    elif shape == "truncated":
        scheme = TruncationIdeal(rng.randint(2, 4))
    return InputDocument("quiver-presentation", name, AlgebraPresentation(q, scheme))


@given(documents())
def test_parse_inverts_serialize(doc):
    """parse . serialize gives back the document's kind, name and body."""
    again = parse(serialize(doc))
    assert (again.kind, again.name, again.body) == (doc.kind, doc.name, doc.body)


def test_run_formula_reports():
    r = run("formula", parse(fixture_text("kronecker2.quiver")))
    assert r.methods == {"path_algebra_acyclic": 3}
    r = run("formula", parse(fixture_text("cycle3-trunc2.quiver")))
    assert r.methods == {"pregenerated": 1}


def test_run_oracle_reports():
    r = run("oracle", parse(fixture_text("kronecker2.quiver")))
    assert r.methods == {"oracle": 3, "erelative": 3}
    assert r.agree
    r = run("oracle", parse(fixture_text("crown.poset")))
    assert r.methods == {"oracle": 1, "erelative": 1}


def test_run_check_agreement():
    r = run("check", parse(fixture_text("effective-couple.quiver")))
    assert r.agree
    assert set(r.methods.values()) == {2}


def test_run_poset():
    r = run("poset", parse(fixture_text("crown.poset")))
    assert r.methods == {"oracle": 1, "erelative": 1, "simplicial": 1}
    assert r.agree


def test_main_exit_codes(tmp_path, capsys):
    fx = str(FIXTURE_DIR)
    assert main(["check", f"{fx}/kronecker2.quiver"]) == EXIT_OK
    assert main(["poset", f"{fx}/crown.poset"]) == EXIT_OK

    bad = tmp_path / "bad.quiver"
    bad.write_text("quiver b\nvertex x\nnope\nend\n")
    assert main(["formula", str(bad)]) == EXIT_INPUT

    cyclic = tmp_path / "cyclic.quiver"
    cyclic.write_text(
        "quiver c\nvertex x\nvertex y\narrow a x y\narrow b y x\nend\n"
    )
    assert main(["formula", str(cyclic)]) == EXIT_INPUT
    capsys.readouterr()


def test_main_json_schema(capsys):
    fx = str(FIXTURE_DIR)
    assert main(["check", "--json", f"{fx}/kronecker2.quiver"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"name", "method", "dim_h1", "intermediates", "checks", "field"}
    assert payload["dim_h1"] == 3
    assert payload["field"] == "q"
    assert payload["checks"]["agree"] is True


def test_main_prime_field(capsys):
    fx = str(FIXTURE_DIR)
    assert main(["oracle", "--field", "fp:1009", "--json", f"{fx}/cycle3-trunc2.quiver"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "fp:1009"
    assert payload["dim_h1"] == 1
    assert main(["oracle", "--field", "nonsense", f"{fx}/kronecker2.quiver"]) == EXIT_INPUT
    capsys.readouterr()


def test_formula_reports_the_field_it_was_asked_for(capsys):
    """Every formula counts paths, so its number holds over every field, and formula
    labels it with the --field given, as check does."""
    for command in ("formula", "check"):
        assert main([command, "--field", "fp:3", "--json", f"{FIXTURE_DIR}/kronecker2.quiver"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["field"], payload["dim_h1"]) == ("fp:3", 3), command


def test_main_rejects_composite_moduli(capsys):
    fx = str(FIXTURE_DIR)
    for spec in ("fp:1", "fp:4", "fp:6", "fp:9", "fp:3317044064679887385961981"):
        assert main(["oracle", "--field", spec, f"{fx}/cycle3-trunc2.quiver"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_main_accepts_prime_moduli(capsys):
    fx = str(FIXTURE_DIR)
    for spec in ("fp:2", "fp:3", "fp:10007", "fp:2305843009213693951"):
        assert main(["oracle", "--field", spec, "--json", f"{fx}/kronecker2.quiver"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["field"] == spec
        assert payload["dim_h1"] == 3


def test_main_names_a_field_that_is_not_a_number(capsys):
    fx = str(FIXTURE_DIR)
    for spec in ("fp:abc", "fp:", "fp:3.0", "nonsense"):
        assert main(["oracle", "--field", spec, f"{fx}/kronecker2.quiver"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: unknown field '{spec}' (use 'q' or 'fp:<prime>')\n")


def test_main_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin.quiver"
    bad.write_bytes(b"quiver q\nvertex x\n\xff\xfe end\n")
    message = f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte\n"
    assert main(["formula", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", message)
    # with several files every one is run, and the worst status wins
    good = str(FIXTURE_DIR / "kronecker2.quiver")
    square = tmp_path / "square.quiver"  # k[x]/(x^2): no formula applies
    square.write_text("quiver square\nvertex v\narrow x v v\nrelation monomial x x\nend\n")
    assert main(["formula", "--json", good, str(bad), str(square)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert json.loads(captured.out)["name"] == "kronecker2"
    assert captured.err == message + f"error: {square}: formula unavailable, use oracle\n"
    assert main(["check", str(square), str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith(message)


def test_main_missing_file(capsys):
    assert main(["oracle", "/no/such/file.quiver"]) == EXIT_INPUT
    capsys.readouterr()


def test_parse_reports_the_line_of_a_relation_that_is_not_a_path():
    text = (
        "quiver q\nvertex x\nvertex y\narrow a x y\narrow b x y\n"
        "relation monomial a a\n# a comment\nrelation monomial a b\nend\n"
    )
    with pytest.raises(ParseError, match="relation is not a path") as exc:
        parse(text)
    assert exc.value.line == 6


def test_main_cyclic_formula_statuses(tmp_path, capsys):
    docs = {
        # a cycle with an ideal that leaves x->y->x->... avoiding it: infinite basis
        "nonadmissible": "arrow a x y\narrow b y x\narrow d x x\nrelation monomial a b\n",
        "norelations": "arrow a x y\narrow b y x\n",
        "pregenerated": "arrow a x y\narrow b y z\narrow c z x\n"
        "relation monomial a b\nrelation monomial b c\nrelation monomial c a\n",
    }
    status = {}
    for name, body in docs.items():
        f = tmp_path / f"{name}.quiver"
        f.write_text(f"quiver {name}\nvertex x\nvertex y\nvertex z\n{body}end\n")
        status[name] = main(["formula", str(f)])
    assert status == {"nonadmissible": EXIT_INPUT, "norelations": EXIT_INPUT,
                      "pregenerated": EXIT_OK}
    capsys.readouterr()


def test_parse_reports_a_non_minimal_relation_at_its_own_line():
    head = "quiver q\nvertex w\nvertex x\nvertex y\nvertex z\narrow a w x\narrow b x y\narrow c y z\n"
    for relations, line in (("relation monomial a b\nrelation monomial a b c\n", 10),
                            ("relation monomial a b c\nrelation monomial a b\n", 9)):
        with pytest.raises(ParseError, match="non-minimal: a\\*b\\*c contains a\\*b") as exc:
            parse(head + relations + "end\n")
        assert exc.value.line == line


def test_main_runs_every_file_and_exits_with_the_worst_status(tmp_path, capsys):
    fx = str(FIXTURE_DIR)
    bad = tmp_path / "garbage.quiver"
    bad.write_text("garbage\n")
    cyclic = tmp_path / "cyclic.quiver"
    cyclic.write_text("quiver c\nvertex x\nvertex y\narrow a x y\narrow b y x\nend\n")
    good = f"{fx}/kronecker2.quiver"

    assert main(["check", "--json", good, str(bad), f"{fx}/cycle3-trunc2.quiver"]) == EXIT_INPUT
    captured = capsys.readouterr()
    decoder = json.JSONDecoder()
    first, end = decoder.raw_decode(captured.out)
    second, _ = decoder.raw_decode(captured.out[end:].lstrip())
    assert (first["name"], second["name"]) == ("kronecker2", "cycle3-trunc2")
    assert captured.err == f"error: {bad}: line 1: expected 'quiver <name>' or 'poset <name>'\n"

    # an infinite basis is an input error under formula too
    assert main(["formula", str(cyclic), str(bad)]) == EXIT_INPUT
    assert main(["formula", str(bad), str(cyclic)]) == EXIT_INPUT
    assert main(["formula", good, str(cyclic)]) == EXIT_INPUT
    assert capsys.readouterr().err.count("error: ") == 5

    # input error 2 outranks unsupported 3, in either order
    square = tmp_path / "square.quiver"  # k[x]/(x^2): no formula applies
    square.write_text("quiver square\nvertex v\narrow x v v\nrelation monomial x x\nend\n")
    assert main(["formula", good, str(square)]) == EXIT_UNSUPPORTED
    assert main(["formula", str(square), str(bad)]) == EXIT_INPUT
    assert main(["formula", str(bad), str(square)]) == EXIT_INPUT
    assert capsys.readouterr().err.count("error: ") == 5


def test_main_mismatch_outranks_every_other_status(tmp_path, capsys, monkeypatch):
    from quiverh1 import formulas

    fx = str(FIXTURE_DIR)
    bad = tmp_path / "garbage.quiver"
    bad.write_text("garbage\n")
    cyclic = tmp_path / "cyclic.quiver"
    cyclic.write_text("quiver c\nvertex x\nvertex y\narrow a x y\narrow b y x\nend\n")
    real = formulas.classify_and_compute

    def off_by_one(presentation):
        report = real(presentation)
        report.dim_h1 += 1
        return report

    monkeypatch.setattr(formulas, "classify_and_compute", off_by_one)
    assert main(["check", f"{fx}/kronecker2.quiver", str(bad), str(cyclic)]) == EXIT_MISMATCH
    assert main(["check", str(cyclic), str(bad), f"{fx}/kronecker2.quiver"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.count("agreement: MISMATCH") == 2


def test_parse_reports_an_antisymmetry_violation_at_its_own_line():
    head = "poset p\nelement a\nelement b\nelement c\n"
    for relations, line in (("relation a <= b\nrelation b <= a\n", 6),
                            ("covers b a\n# a comment\nrelation b <= c\nrelation c <= a\n", 8),
                            ("relation a <= b\nrelation b <= c\nrelation a <= c\ncovers a c\n", 8)):
        with pytest.raises(ParseError, match="antisymmetry violation") as exc:
            parse(head + relations + "end\n")
        assert exc.value.line == line


def test_parse_closes_a_poset_with_a_cycle_once(monkeypatch):
    from quiverh1.simplicial import Poset

    calls = []
    real = Poset.from_pairs
    monkeypatch.setattr(Poset, "from_pairs", lambda *args: calls.append(args) or real(*args))
    chain = "".join(f"element e{i}\n" for i in range(30)) + "".join(f"relation e{i} <= e{i + 1}\n" for i in range(29))
    with pytest.raises(ParseError, match="antisymmetry violation") as exc:
        parse("poset p\n" + chain + "relation e29 <= e0\nrelation e1 <= e0\nend\n")
    assert exc.value.line == 61  # the pair that closes the cycle, not the later one
    assert len(calls) == 1


def test_check_runs_the_oracle_when_no_formula_applies(tmp_path, capsys):
    square = tmp_path / "square.quiver"  # k[x]/(x^2)
    square.write_text("quiver square\nvertex v\narrow x v v\nrelation monomial x x\nend\n")
    for field, dim in (("q", 1), ("fp:2", 2)):
        assert main(["check", "--json", "--field", field, str(square)]) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["method"], report["dim_h1"], report["field"]) == ("oracle,erelative", dim, field)
        assert captured.err == f"error: {square}: formula unavailable, use oracle\n"
    assert main(["oracle", "--field", "fp:2", str(square)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim H1 [oracle]: 2" in out and "dim H1 [erelative]: 2" in out

    cyclic = tmp_path / "cyclic.quiver"  # no relations: the oracle's own error and status
    cyclic.write_text("quiver c\nvertex x\nvertex y\narrow a x y\narrow b y x\nend\n")
    assert main(["check", str(cyclic)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cyclic}: infinite dimensional: path algebra of a cyclic quiver\n"

    assert main(["check", str(FIXTURE_DIR / "crown.poset")]) == EXIT_OK  # the oracle against the order complex
    assert "dim H1 [simplicial]: 1" in capsys.readouterr().out


def test_check_on_a_poset_compares_the_oracle_with_the_order_complex(capsys, monkeypatch):
    from quiverh1 import simplicial

    for name, dim in (("crown", 1), ("diamond-printed", 0)):  # as `poset` answers
        for field in ("q", "fp:3"):
            path = str(FIXTURE_DIR / f"{name}.poset")
            assert main(["check", "--json", "--field", field, path]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert (report["method"], report["dim_h1"], report["field"]) == ("oracle,erelative,simplicial", dim, field)
            assert set(report["intermediates"]) == {"dim_algebra", "dim_derivations", "dim_inner"}
            assert report["checks"]["agree"] is True
            assert main(["poset", "--json", "--field", field, path]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["dim_h1"] == dim
    real = simplicial.simplicial_h_dim
    monkeypatch.setattr(simplicial, "simplicial_h_dim", lambda *a: real(*a) + 1)
    assert main(["check", str(FIXTURE_DIR / "crown.poset")]) == EXIT_MISMATCH
    assert "agreement: MISMATCH" in capsys.readouterr().out


def test_a_complex_with_a_nonzero_composite_is_a_mismatch(capsys, monkeypatch):
    """A coboundary with every entry made positive is no longer a complex; check names the
    nonzero entry of delta^1 . delta^0 on one error line and exits 1, with no traceback."""
    from quiverh1 import exactalg, simplicial

    def absolute(real):
        def rows(*args):
            cols, rows = real(*args)
            return cols, {k: {j: abs(v) for j, v in row.items()} for k, row in rows.items()}
        return rows

    diamond, couple = str(FIXTURE_DIR / "diamond-printed.poset"), str(FIXTURE_DIR / "effective-couple.quiver")
    for module, name, paths in ((simplicial, "_coboundary", (diamond,)),
                                (exactalg, "_bar_coboundary_rows", (diamond, couple))):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, absolute(getattr(module, name)))
            for path in paths:
                assert main(["check", path]) == EXIT_MISMATCH
                captured = capsys.readouterr()
                assert captured.out == ""
                assert re.fullmatch(rf"error: {re.escape(path)}: delta\^1 \. delta\^0 is not zero: "
                                    r"entry \(\d+, \d+\) is -?\d+\n", captured.err)
    for path in (diamond, couple):
        assert main(["check", path]) == EXIT_OK


def test_poset_errors_do_not_depend_on_the_hash_seed(tmp_path):
    doc = tmp_path / "cyclic.poset"
    doc.write_text("poset p\nelement a\nelement b\nelement c\n"
                   "relation a <= b\nrelation b <= c\nrelation c <= a\nend\n")
    # a relation that is not transitive in three places, built without closure
    script = ("from quiverh1.simplicial import Poset\nfrom poset_checks import validate_poset\n"
              "r = {(e, e) for e in 'abc'} | {('a', 'b'), ('b', 'c'), ('c', 'a')}\n"
              "validate_poset(Poset(('a', 'b', 'c'), frozenset(r)))\n")
    src = str(FsPath(quiverh1.__file__).resolve().parents[1])
    tests = str(FsPath(__file__).resolve().parent)  # where poset_checks keeps validate_poset
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join((src, tests)))
        cli = subprocess.run([sys.executable, "-m", "quiverh1.cli", "poset", str(doc)],
                             env=env, capture_output=True, text=True)
        direct = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        outputs.add((cli.returncode, cli.stderr, direct.stderr.strip().splitlines()[-1]))
    assert outputs == {(EXIT_INPUT, f"error: {doc}: line 7: antisymmetry violation: 'a' <= 'b' <= 'a'\n",
                        "quiverh1.errors.InvalidPoset: transitivity violation: 'a' <= 'b' <= 'c'")}


def _record_verification(monkeypatch, calls: list, *extra) -> None:
    """Record, by name, each call of check(), validate() and the extra (owner, name)s."""
    from quiverh1.exactalg import BimoduleRep
    from quiverh1.presentations import StructureConstantAlgebra

    for owner, name in (*extra, (StructureConstantAlgebra, "check"), (BimoduleRep, "validate")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))


def test_a_presentation_is_analysed_once(monkeypatch, capsys):
    """A pre-generated cyclic monomial document runs the avoidance search once; formula
    builds no algebra, and check builds the oracle's one, which regular_bimodule verifies
    with one check() and no validate()."""
    from quiverh1 import presentations
    from quiverh1.presentations import build_algebra

    calls = []
    _record_verification(monkeypatch, calls, (presentations, "basis_B"))
    path = str(FIXTURE_DIR / "cycle3-monomial.quiver")
    for command, expected in (("formula", ["basis_B"]), ("check", ["basis_B", "check"])):
        calls.clear()
        assert main([command, path]) == EXIT_OK
        assert calls == expected
    capsys.readouterr()
    pres = parse(fixture_text("cycle3-monomial.quiver")).body
    assert build_algebra(pres) is build_algebra(pres)


def test_a_poset_algebra_is_verified_once(monkeypatch, capsys):
    """check and poset on a poset document run check() once, in regular_bimodule, and
    validate() never: incidence_algebra only builds."""
    calls = []
    _record_verification(monkeypatch, calls)
    for name in ("crown.poset", "diamond-printed.poset"):
        for command in ("check", "poset"):
            calls.clear()
            assert main([command, str(FIXTURE_DIR / name)]) == EXIT_OK
            assert calls == ["check"]
    capsys.readouterr()


def test_check_searches_an_acyclic_monomial_basis_once(monkeypatch, capsys):
    """The monomial row searches only the basis paths parallel to an arrow, so the one
    listing of the basis is the oracle's, for its algebra."""
    from quiverh1 import formulas, presentations

    calls = []
    real = presentations.basis_B
    for module in (presentations, formulas):  # every binding, should a module import it again
        monkeypatch.setattr(module, "basis_B", lambda *a: calls.append(a) or real(*a), raising=False)
    for name in ("a3-monomial.quiver", "effective-couple.quiver"):
        calls.clear()
        assert main(["check", str(FIXTURE_DIR / name)]) == EXIT_OK
        assert len(calls) == 1
    capsys.readouterr()


def test_a_failed_bar_cross_check_is_a_mismatch(capsys, monkeypatch):
    from quiverh1 import exactalg

    real = exactalg.bar_cohomology_dims

    def h1_off_by_one(*args, **kwargs):
        dims = real(*args, **kwargs)
        return {**dims, 1: dims[1] + 1}

    monkeypatch.setattr(exactalg, "bar_cohomology_dims", h1_off_by_one)
    path = str(FIXTURE_DIR / "kronecker2.quiver")
    crown = str(FIXTURE_DIR / "crown.poset")
    for command, doc in (("oracle", path), ("check", path), ("poset", crown)):
        assert main([command, "--json", doc]) == EXIT_MISMATCH
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["agree"] is False and report["dim_h1"] is None
        assert "erelative" in report["method"].split(",")
    assert main(["check", path]) == EXIT_MISMATCH
    assert "agreement: MISMATCH" in capsys.readouterr().out


def test_every_oracle_report_carries_bar_h0_alone(tmp_path, capsys):
    """The E-relative complex gives H^1 as a method and H^0 as the one bar check, at
    every dimension; no flag asks for more."""
    a5 = tmp_path / "a5.quiver"  # the linear A5 path algebra, d = 15
    a5.write_text("quiver a5\n" + "".join(f"vertex v{i}\n" for i in range(5))
                  + "".join(f"arrow a{i} v{i} v{i + 1}\n" for i in range(4)) + "end\n")
    kronecker2 = FIXTURE_DIR / "kronecker2.quiver"  # d = 4

    def bar(path):
        """The report's methods and its bar_* checks."""
        assert main(["check", "--json", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        return report["method"], {key for key in report["checks"] if key.startswith("bar_")}

    assert bar(a5) == ("path_algebra_acyclic,oracle,erelative", {"bar_h0"})
    assert bar(kronecker2) == ("path_algebra_acyclic,oracle,erelative", {"bar_h0"})
    assert bar(FIXTURE_DIR / "crown.poset") == ("oracle,erelative,simplicial", {"bar_h0"})
    assert main(["oracle", "--json", str(a5)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["intermediates"]["dim_algebra"] == 15
    with pytest.raises(SystemExit) as exc:
        main(["check", "--max-dim", "15", str(a5)])
    assert exc.value.code == 2  # argparse: unrecognized arguments
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --max-dim\n")


def test_erelative_and_bar_h0_equal_the_brute_oracle():
    """On the seeded acyclic and cyclic monomial instances and the truncated cycles with
    d <= 60, over Q, F_2, F_3 and F_5: H^1 by the brute oracle and by the E-relative
    complex, and H^0 three ways, as bar_h0, as dim_algebra - dim_inner and as
    the presentation's center_dim."""
    presentations = [AlgebraPresentation(q, Z) for q, Z in random_monomial_instances(7, 300, max_dim=60)]
    rng = random.Random(11)
    presentations += [admissible_cycle_presentation(rng) for _ in range(100)]
    presentations += truncated_cycles()
    compared = 0
    for pres in presentations:
        if len(pres.basis) <= 60:
            for prime in (None, 2, 3, 5):
                report = run("oracle", InputDocument("quiver-presentation", "seeded", pres), prime)
                assert list(report.methods) == ["oracle", "erelative"] and report.agree, (pres, prime)
                assert report.checks == {"bar_h0": pres.center_dim}, (pres, prime)
                dims = report.intermediates
                assert dims["dim_algebra"] - dims["dim_inner"] == pres.center_dim, (pres, prime)
                compared += 1
    assert compared >= 600


def test_the_brute_oracle_and_erelative_on_larger_fib_dags():
    """The Fib-DAG path algebras with n = 8, 9 and 10 (d = 133, 221 and 364): the brute
    oracle and the E-relative complex both give the acyclic path algebra's 2n - 4."""
    for n, d in ((8, 133), (9, 221), (10, 364)):
        pres = AlgebraPresentation(fib_dag(n))
        report = run("oracle", InputDocument("quiver-presentation", f"fib{n}", pres), None)
        assert report.methods == {"oracle": 2 * n - 4, "erelative": 2 * n - 4} and report.agree, n
        assert report.intermediates["dim_algebra"] == d


def test_per_component_prints_each_component(capsys):
    path = str(FIXTURE_DIR / "two-components.quiver")
    lines = ("  component v1: 2\n", "  component x: 0\n")
    assert main(["formula", "--per-component", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert all(line in out for line in lines)
    assert main(["formula", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert not any(line in out for line in lines)


def test_a_failed_bar_cross_check_without_a_formula_is_a_mismatch(tmp_path, capsys, monkeypatch):
    """k[x]/(x^2) has no formula; oracle and erelative disagreeing outranks the unavailable formula."""
    from quiverh1 import exactalg

    real = exactalg.bar_cohomology_dims

    def h1_off_by_one(*args, **kwargs):
        dims = real(*args, **kwargs)
        return {**dims, 1: dims[1] + 1}

    monkeypatch.setattr(exactalg, "bar_cohomology_dims", h1_off_by_one)
    square = tmp_path / "square.quiver"
    square.write_text("quiver square\nvertex v\narrow x v v\nrelation monomial x x\nend\n")
    assert main(["check", "--json", str(square)]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["checks"]["agree"] is False and report["dim_h1"] is None
    assert report["method"] == "oracle,erelative"
    assert captured.err == f"error: {square}: formula unavailable, use oracle\n"
    good = str(FIXTURE_DIR / "cycle3-trunc2.quiver")
    assert main(["check", "--json", good, str(square)]) == EXIT_MISMATCH
    assert main(["check", "--json", str(square), good]) == EXIT_MISMATCH
    capsys.readouterr()


def test_every_command_on_every_kind_of_document_ends_cleanly(tmp_path, capsys):
    """Each (command, document kind) pair gives a report or a typed error with exit 2 or 3."""
    square = tmp_path / "square.quiver"  # k[x]/(x^2): no formula applies
    square.write_text("quiver square\nvertex v\narrow x v v\nrelation monomial x x\nend\n")
    docs = {"presentation": str(FIXTURE_DIR / "kronecker2.quiver"),
            "poset": str(FIXTURE_DIR / "crown.poset"), "no formula": str(square)}
    errors = {
        ("formula", "poset"): "formula mode needs a quiver presentation",
        ("formula", "no formula"): "formula unavailable, use oracle",
        ("check", "no formula"): "formula unavailable, use oracle",
        ("poset", "presentation"): "poset mode needs a poset document",
        ("poset", "no formula"): "poset mode needs a poset document",
    }
    for command in ("formula", "oracle", "check", "poset"):
        for kind, path in docs.items():
            for flags in ([], ["--json"]):
                status = main([command, *flags, path])
                out, err = capsys.readouterr()
                message = errors.get((command, kind))
                if message is None:
                    assert (status, err) == (EXIT_OK, "") and out.count("\n") > 1, (command, kind)
                else:
                    assert (status, err) == (EXIT_UNSUPPORTED, f"error: {path}: {message}\n"), (command, kind)
                    assert bool(out) == (command == "check"), (command, kind)  # check still prints the oracle


GOLDEN = FsPath(__file__).resolve().parent / "golden" / "cli_outputs.json"


def views(command: str, path: FsPath) -> dict:
    """Key suffix -> flags.  Only formula on a presentation breaks its report down by
    component, so the --per-component view is kept for formula and check there alone."""
    out = {"": ["--json"], " text": []}
    if command in ("formula", "check") and path.suffix == ".quiver":
        out[" --per-component"] = ["--per-component"]
    return out


def cli_outputs() -> dict:
    """stdout, stderr and exit status of formula, oracle and check (and poset on posets)
    over q and fp:3 on every file in fixtures/, with the run time removed; keyed
    "<command> <field> <file>" for --json, with " text" appended for the plain text view
    and " --per-component" for the text view with component breakdowns (see ``views``).
    Runs from the repository root."""
    outputs = {}
    for path in sorted(FIXTURE_DIR.iterdir()):
        commands = ("formula", "oracle", "check") + (("poset",) if path.suffix == ".poset" else ())
        for command in commands:
            for field in ("q", "fp:3"):
                for suffix, flags in views(command, path).items():
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        status = main([command, *flags, "--field", field, f"fixtures/{path.name}"])
                    outputs[f"{command} {field} {path.name}{suffix}"] = {
                        "stdout": re.sub(r'"elapsed_s": [^\n]*', '"elapsed_s"', out.getvalue()),
                        "stderr": err.getvalue(),
                        "status": status,
                    }
    return outputs


def test_cli_outputs_match_the_golden_file(monkeypatch):
    monkeypatch.chdir(FIXTURE_DIR.parent)
    assert cli_outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":  # rewrite the golden file: PYTHONPATH=src python tests/test_cli.py
    os.chdir(FIXTURE_DIR.parent)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cli_outputs(), indent=1, sort_keys=True) + "\n")
