"""Command-line interface: parse presentation/poset files, run formulas, run
the oracle, and cross-check the two.

File grammar (line-oriented, '#' starts a comment):

    quiver <name>
    vertex <id>
    arrow <id> <source> <target>
    relation monomial <arrow-id> ...     # arrows in traversal order
    relation truncate <m>
    end

    poset <name>
    element <id>
    covers <upper> <lower>
    relation <a> <= <b>
    end

Exit statuses: 0 success/agreement, 1 mismatch of two methods, 2 input error,
3 unsupported.  Each command runs the methods that ``METHODS`` lists for it and
the document's kind into one report; the oracle adds two, derivations modulo
inner ones (``oracle``) and the E-relative bar complex (``erelative``), whose
H^0 is the check ``bar_h0``; on a poset ``check`` and ``poset`` (a second name
for it) set both against dim H^1 of the order complex.  An error that ends the
run exits 2 or 3, or 1 when a cochain complex has a nonzero composite
delta . delta.  Otherwise the report is printed if a method gave a number, a
method with no formula adds the "formula unavailable" error, and the status is
1 on disagreement, else 3 if a method was unavailable, else 0: ``check`` with
no formula exits 1 when ``oracle`` and ``erelative`` disagree, else 3.
Every file is run and reported; with several files the exit status is the
worst one, in the order mismatch 1 > input error 2 > unsupported 3 > success 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from . import exactalg, formulas, simplicial
from .errors import ComplexFault, FormulaUnavailable, InvalidIdeal, InvalidPoset, ParseError, QuiverH1Error
from .presentations import (
    AlgebraPresentation,
    TruncationIdeal,
    build_algebra,
    check_minimal,
)
from .quiver import Arrow, Path, Quiver, validate
from .simplicial import Poset

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
_SEVERITY = (EXIT_OK, EXIT_UNSUPPORTED, EXIT_INPUT, EXIT_MISMATCH)  # least to most severe


@dataclass(frozen=True)
class InputDocument:
    kind: str  # "quiver-presentation" | "poset"
    name: str
    body: Union[AlgebraPresentation, Poset]


@dataclass
class RunReport:
    name: str
    field: str
    methods: dict = field(default_factory=dict)  # method -> dim_h1
    intermediates: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    elapsed: float = 0.0
    unavailable: Optional[FormulaUnavailable] = None  # set when a method had no formula

    @property
    def agree(self) -> bool:
        """Every method gives one number."""
        return len(set(self.methods.values())) <= 1

    def to_json(self) -> dict:
        dims = list(self.methods.values())
        return {
            "name": self.name,
            "method": ",".join(self.methods),
            "dim_h1": dims[0] if len(set(dims)) == 1 and dims else None,
            "intermediates": self.intermediates,
            "checks": {**self.checks, "agree": self.agree, "elapsed_s": round(self.elapsed, 4)},
            "field": self.field,
        }


def parse(text: str) -> InputDocument:
    """Parse one document; raises ParseError with a 1-based line number."""
    kind = None
    name = None
    vertices: list[str] = []
    arrows: list[Arrow] = []
    arrow_by_name: dict[str, Arrow] = {}
    monomials: list[tuple[int, list[str]]] = []  # (line, arrow names)
    truncate: Optional[int] = None
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    pair_lines: list[int] = []
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if kind is None:
            if head == "quiver" and len(tokens) == 2:
                kind, name = "quiver-presentation", tokens[1]
            elif head == "poset" and len(tokens) == 2:
                kind, name = "poset", tokens[1]
            else:
                raise ParseError(lineno, "expected 'quiver <name>' or 'poset <name>'")
            continue
        if ended:
            raise ParseError(lineno, "content after 'end'")
        if head == "end":
            if len(tokens) != 1:
                raise ParseError(lineno, "'end' takes no arguments")
            ended = True
        elif kind == "quiver-presentation":
            if head == "vertex" and len(tokens) == 2:
                if tokens[1] in vertices:
                    raise ParseError(lineno, f"duplicate definition of vertex {tokens[1]!r}")
                vertices.append(tokens[1])
            elif head == "arrow" and len(tokens) == 4:
                nm, src, tgt = tokens[1:]
                if nm in arrow_by_name:
                    raise ParseError(lineno, f"duplicate definition of arrow {nm!r}")
                if src not in vertices:
                    raise ParseError(lineno, f"unresolved name: vertex {src!r}")
                if tgt not in vertices:
                    raise ParseError(lineno, f"unresolved name: vertex {tgt!r}")
                a = Arrow(nm, src, tgt)
                arrows.append(a)
                arrow_by_name[nm] = a
            elif head == "relation" and len(tokens) >= 2 and tokens[1] == "monomial":
                if truncate is not None:
                    raise ParseError(lineno, "cannot mix 'monomial' and 'truncate' relations")
                if len(tokens) < 4:
                    raise ParseError(lineno, "monomial relation needs at least two arrows")
                for nm in tokens[2:]:
                    if nm not in arrow_by_name:
                        raise ParseError(lineno, f"unresolved name: arrow {nm!r}")
                monomials.append((lineno, tokens[2:]))
            elif head == "relation" and len(tokens) == 3 and tokens[1] == "truncate":
                if monomials:
                    raise ParseError(lineno, "cannot mix 'monomial' and 'truncate' relations")
                if truncate is not None:
                    raise ParseError(lineno, "duplicate truncate relation")
                try:
                    truncate = int(tokens[2])
                except ValueError:
                    raise ParseError(lineno, f"invalid truncation level {tokens[2]!r}")
                if truncate < 2:
                    raise ParseError(lineno, "truncation level must be >= 2")
            else:
                raise ParseError(lineno, f"unknown directive {line!r}")
        else:  # poset
            if head == "element" and len(tokens) == 2:
                if tokens[1] in elements:
                    raise ParseError(lineno, f"duplicate definition of element {tokens[1]!r}")
                elements.append(tokens[1])
            elif head == "covers" and len(tokens) == 3:
                upper, lower = tokens[1], tokens[2]
                for e in (upper, lower):
                    if e not in elements:
                        raise ParseError(lineno, f"unresolved name: element {e!r}")
                pairs.append((lower, upper))  # covers upper lower means lower <= upper
                pair_lines.append(lineno)
            elif head == "relation" and len(tokens) == 4 and tokens[2] == "<=":
                for e in (tokens[1], tokens[3]):
                    if e not in elements:
                        raise ParseError(lineno, f"unresolved name: element {e!r}")
                pairs.append((tokens[1], tokens[3]))
                pair_lines.append(lineno)
            else:
                raise ParseError(lineno, f"unknown directive {line!r}")

    if kind is None:
        raise ParseError(1, "empty document")
    if not ended:
        raise ParseError(len(text.splitlines()) or 1, "missing 'end'")

    if kind == "poset":
        try:
            return InputDocument(kind, name, Poset.from_pairs(elements, pairs))
        except InvalidPoset as exc:
            raise ParseError(pair_lines[exc.pair], str(exc))

    quiver = Quiver(vertices, arrows)
    try:
        validate(quiver)
        if truncate is not None:
            scheme = TruncationIdeal(truncate)
        elif monomials:
            gens = []
            line_of: dict[tuple[str, ...], int] = {}
            for lineno, names in monomials:
                seq = [arrow_by_name[n] for n in names]
                try:
                    gens.append(Path(seq[0].source, seq))
                except ValueError as exc:
                    raise ParseError(lineno, f"relation is not a path: {exc}")
                line_of.setdefault(tuple(names), lineno)
            try:
                scheme = check_minimal(quiver, gens)
            except InvalidIdeal as exc:
                raise ParseError(line_of[exc.generator.arrow_names()], str(exc))
        else:
            scheme = None
    except ParseError:
        raise
    except QuiverH1Error as exc:
        raise ParseError(1, str(exc))
    return InputDocument(kind, name, AlgebraPresentation(quiver, scheme))


def serialize(doc: InputDocument) -> str:
    """Render a document back to the file grammar (parse . serialize = identity)."""
    lines = []
    if doc.kind == "poset":
        poset = doc.body
        lines.append(f"poset {doc.name}")
        for e in poset.elements:
            lines.append(f"element {e}")
        for upper, lower in poset.covers():
            lines.append(f"covers {upper} {lower}")
    else:
        pres = doc.body
        lines.append(f"quiver {doc.name}")
        for v in pres.quiver.vertices:
            lines.append(f"vertex {v}")
        for a in pres.quiver.arrows:
            lines.append(f"arrow {a.name} {a.source} {a.target}")
        if pres.kind == "truncated":
            lines.append(f"relation truncate {pres.scheme.m}")
        elif pres.kind == "monomial":
            for z in pres.scheme.generators:
                lines.append("relation monomial " + " ".join(z.arrow_names()))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _field_label(prime: Optional[int]) -> str:
    return "q" if prime is None else f"fp:{prime}"


def _formula(out: RunReport, doc: InputDocument, prime: Optional[int]) -> None:
    report = formulas.classify_and_compute(doc.body)
    out.methods[report.method] = report.dim_h1
    out.intermediates.update(report.intermediates)
    if report.per_component:
        out.intermediates["per_component"] = report.per_component


def _oracle(out: RunReport, doc: InputDocument, prime: Optional[int]) -> None:
    algebra = simplicial.incidence_algebra(doc.body) if doc.kind == "poset" else build_algebra(doc.body)
    rep = exactalg.regular_bimodule(algebra)
    dim_derivations = exactalg.derivation_space_dim(rep, prime=prime)
    dim_inner = exactalg.inner_dim(rep, prime=prime)
    out.methods["oracle"] = dim_derivations - dim_inner
    out.intermediates.update(dim_algebra=algebra.dimension, dim_derivations=dim_derivations, dim_inner=dim_inner)
    bar = exactalg.bar_cohomology_dims(rep, (0, 1), prime=prime)
    out.methods["erelative"] = bar[1]
    out.checks["bar_h0"] = bar[0]


def _order_complex(out: RunReport, doc: InputDocument, prime: Optional[int]) -> None:
    out.methods["simplicial"] = simplicial.simplicial_h_dim(simplicial.order_complex(doc.body), 1, prime)


# (command, document kind) -> the methods that add to its report, in order
METHODS = {
    ("formula", "quiver-presentation"): (_formula,),
    ("oracle", "quiver-presentation"): (_oracle,),
    ("oracle", "poset"): (_oracle,),
    ("check", "quiver-presentation"): (_formula, _oracle),
    ("check", "poset"): (_oracle, _order_complex),  # the oracle against the simplicial H^1
    ("poset", "poset"): (_oracle, _order_complex),  # a second name for check
}


def run(command: str, doc: InputDocument, prime: Optional[int] = None) -> RunReport:
    """Run the command's methods on one document into one report.  A method that raises
    FormulaUnavailable is recorded as ``unavailable`` and the others still run; any other
    error ends the run."""
    if (command, doc.kind) not in METHODS:
        needs = "quiver presentation" if doc.kind == "poset" else "poset document"
        raise FormulaUnavailable(f"{command} mode needs a {needs}")
    t0 = time.perf_counter()
    out = RunReport(doc.name, _field_label(prime))
    for method in METHODS[command, doc.kind]:
        try:
            method(out, doc, prime)
        except FormulaUnavailable as exc:
            out.unavailable = exc
    out.elapsed = time.perf_counter() - t0
    return out


def _print_report(report: RunReport, as_json: bool, per_component: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json(), indent=2, default=str))
        return
    print(f"name: {report.name}")
    print(f"field: {report.field}")
    for method, dim in report.methods.items():
        print(f"dim H1 [{method}]: {dim}")
    if per_component and "per_component" in report.intermediates:
        for label, dim in report.intermediates["per_component"]:
            print(f"  component {label}: {dim}")
    for key, value in report.intermediates.items():
        if key == "per_component":
            continue
        print(f"  {key}: {value}")
    for key, value in report.checks.items():
        print(f"  check {key}: {value}")
    if len(report.methods) > 1:
        print(f"agreement: {'yes' if report.agree else 'MISMATCH'}")


def _parse_field(spec: str) -> Optional[int]:
    if spec == "q":
        return None
    unknown = ValueError(f"unknown field {spec!r} (use 'q' or 'fp:<prime>')")
    if not spec.startswith("fp:"):
        raise unknown
    try:
        p = int(spec[3:])
    except ValueError:
        raise unknown from None
    if p < 2:
        raise ValueError("prime must be >= 2")
    if not exactalg.is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every later call."""
    parser = argparse.ArgumentParser(
        prog="quiverh1",
        description="First Hochschild cohomology of quiver algebras: formulas and exact oracle.",
    )
    parser.add_argument("command", choices=["formula", "oracle", "check", "poset"])
    parser.add_argument("files", nargs="+", help="input document files")
    parser.add_argument("--field", default="q", help="q (rationals, default) or fp:<prime>")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--per-component", action="store_true", help="print component breakdowns")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        prime = _parse_field(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    return max((_run_file(path, args, prime) for path in args.files), key=_SEVERITY.index)


def _run_file(path: str, args: argparse.Namespace, prime: Optional[int]) -> int:
    """Run the command on one file, print its report and errors, and return its status."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        report = run(args.command, parse(text), prime)
    except (OSError, UnicodeDecodeError, QuiverH1Error) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        if isinstance(exc, ComplexFault):
            return EXIT_MISMATCH
        return EXIT_UNSUPPORTED if isinstance(exc, FormulaUnavailable) else EXIT_INPUT
    if report.methods:
        _print_report(report, args.json, args.per_component)
    if report.unavailable:
        print(f"error: {path}: {report.unavailable}", file=sys.stderr)
    return EXIT_MISMATCH if not report.agree else EXIT_UNSUPPORTED if report.unavailable else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
