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

Each directive takes exactly the tokens shown, and a monomial relation at least two
arrows.  A name is defined once, before it is used.  There is at most one ``truncate``,
at level >= 2, never mixed with ``monomial``; nothing follows ``end``.  A line error
cites its line, an error of the whole document (an empty vertex set) the header line.

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


def _fresh(lineno: int, what: str, name: str, seen) -> None:
    """Raise unless ``name`` is not yet defined."""
    if name in seen:
        raise ParseError(lineno, f"duplicate definition of {what} {name!r}")


def _known(lineno: int, what: str, names, seen) -> None:
    """Raise unless every one of ``names`` is already defined."""
    for name in names:
        if name not in seen:
            raise ParseError(lineno, f"unresolved name: {what} {name!r}")


def parse(text: str) -> InputDocument:
    """Parse one document; raises ParseError with a 1-based line number: the line at
    fault, or the header line for an error of the whole document."""
    kind = name = None
    vertices: dict[str, None] = {}  # insertion-ordered sets
    elements: dict[str, None] = {}
    arrows: dict[str, Arrow] = {}
    monomials: dict[tuple[str, ...], int] = {}  # arrow names -> the first line with them
    truncate: Optional[int] = None
    pairs: dict[int, tuple[str, str]] = {}  # line -> (a, b) meaning a <= b

    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if kind is None:
            match tokens:
                case ["quiver" | "poset" as kind, name]:
                    header, is_quiver = lineno, kind == "quiver"
                case _:
                    raise ParseError(lineno, "expected 'quiver <name>' or 'poset <name>'")
            continue
        match tokens:
            case ["vertex", v] if is_quiver:
                _fresh(lineno, "vertex", v, vertices)
                vertices[v] = None
            case ["arrow", nm, src, tgt] if is_quiver:
                _fresh(lineno, "arrow", nm, arrows)
                _known(lineno, "vertex", (src, tgt), vertices)
                arrows[nm] = Arrow(nm, src, tgt)
            case ["relation", "monomial", *_] if is_quiver:  # *_ builds no list for a line that fails
                names = tokens[2:]
                if truncate is not None:
                    raise ParseError(lineno, "cannot mix 'monomial' and 'truncate' relations")
                if len(names) < 2:
                    raise ParseError(lineno, "monomial relation needs at least two arrows")
                _known(lineno, "arrow", names, arrows)
                monomials.setdefault(tuple(names), lineno)
            case ["relation", "truncate", m] if is_quiver:
                if monomials:
                    raise ParseError(lineno, "cannot mix 'monomial' and 'truncate' relations")
                if truncate is not None:
                    raise ParseError(lineno, "duplicate truncate relation")
                try:
                    truncate = int(m)
                except ValueError:
                    raise ParseError(lineno, f"invalid truncation level {m!r}")
                if truncate < 2:
                    raise ParseError(lineno, "truncation level must be >= 2")
            case ["element", e] if not is_quiver:
                _fresh(lineno, "element", e, elements)
                elements[e] = None
            case ["covers", upper, lower] if not is_quiver:
                _known(lineno, "element", (upper, lower), elements)
                pairs[lineno] = (lower, upper)
            case ["relation", a, "<=", b] if not is_quiver:
                _known(lineno, "element", (a, b), elements)
                pairs[lineno] = (a, b)
            case ["end"]:
                break
            case ["end", *_]:
                raise ParseError(lineno, "'end' takes no arguments")
            case _:
                raise ParseError(lineno, f"unknown directive {raw.split('#', 1)[0].strip()!r}")
    else:  # no 'end'
        raise ParseError(lineno, "missing 'end'") if kind else ParseError(1, "empty document")
    for lineno, raw in lines:  # the lines after 'end'
        if raw.split("#", 1)[0].strip():
            raise ParseError(lineno, "content after 'end'")

    if not is_quiver:
        try:
            return InputDocument("poset", name, Poset.from_pairs(elements, pairs.values()))
        except InvalidPoset as exc:
            raise ParseError(list(pairs)[exc.pair], str(exc))

    quiver = Quiver(vertices, arrows.values())
    try:
        validate(quiver)
    except QuiverH1Error as exc:
        raise ParseError(header, str(exc))
    scheme = None if truncate is None else TruncationIdeal(truncate)
    if monomials:
        gens = []
        for names, lineno in monomials.items():
            try:
                gens.append(Path(arrows[names[0]].source, (arrows[n] for n in names)))
            except ValueError as exc:
                raise ParseError(lineno, f"relation is not a path: {exc}")
        try:
            scheme = check_minimal(quiver, gens)
        except InvalidIdeal as exc:
            raise ParseError(monomials[exc.generator.arrow_names()], str(exc))
    return InputDocument("quiver-presentation", name, AlgebraPresentation(quiver, scheme))


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
