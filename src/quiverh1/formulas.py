"""Closed-form dimension formulas for the first Hochschild cohomology.

Covers: path algebras of acyclic quivers, monomial algebras with acyclic
quiver (via the effective-couple count), truncated algebras, narrow quivers,
pre-generated ideals, and the tensor-coefficients formula for bimodules over
a path algebra.  A dispatcher picks the applicable formula for a presentation.

The classical upper bound printed for the monomial case is implemented as a
LOWER bound: the diagonal couples are always non-effective, so the effective
count argument gives dim H^1 >= 1 - |Q0| + |Q1| per connected component (the
Kronecker quiver, with n^2 - 1 > n - 1, rules out the opposite direction).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .errors import NotApplicable, FormulaUnavailable
from .exactalg import center_dim
from .presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    TruncationIdeal,
    _generator_spans,
    basis_B,
    build_algebra,
    is_pregenerated_monomial,
    truncated_is_pregenerated,
)
from .quiver import (
    ParallelPair,
    Path,
    PathBasis,
    Quiver,
    VertexId,
    arrow_path,
    connected_components,
    is_acyclic,
    is_narrow,
    path_counts,
)


@dataclass(frozen=True)
class CoupleClassification:
    """Arrow/basis-path parallel couples split into glued, effective and the rest."""

    all: tuple[ParallelPair, ...]
    glued: tuple[ParallelPair, ...]
    effective: tuple[ParallelPair, ...]
    non_effective: tuple[ParallelPair, ...]


@dataclass
class H1Report:
    dim_h1: int
    method: str
    per_component: list[tuple[str, int]] = field(default_factory=list)
    intermediates: dict = field(default_factory=dict)


def effective_pairs(quiver: Quiver, Z: MonomialIdeal, B: list[Path]) -> CoupleClassification:
    """Classify the couples (arrow a, basis path e parallel to a), in arrow order and then
    basis order.  A couple is glued when e begins or ends with a, or a is a loop at the
    trivial path e.  On an acyclic quiver the glued couples are exactly the diagonal (a, a):
    a parallel path a*w or w*a with w nontrivial would make w a cycle, and a trivial path is
    parallel to a loop only.  Any other couple is effective when replacing one occurrence of
    a inside some generator by e gives a path that contains no generator; glued couples
    count as non-effective and come first."""
    if not is_acyclic(quiver):
        raise NotApplicable("cyclic quiver unsupported for effective-couple classification")
    basis = PathBasis(B)
    pairs, glued, effective, non_effective = [], [], [], []
    for a in quiver.arrows:
        for i in basis.between.get((a.source, a.target), ()):
            e = basis[i]
            pair = ParallelPair(arrow_path(a), e)
            pairs.append(pair)
            names = e.arrow_names()
            if names == (a.name,):
                glued.append(pair)
            elif any(not _generator_spans(z[:k] + names + z[k + 1:], Z)
                     for z in Z.names for k, x in enumerate(z) if x == a.name):
                effective.append(pair)
            else:
                non_effective.append(pair)
    return CoupleClassification(tuple(pairs), tuple(glued), tuple(effective), tuple(glued + non_effective))


def _restrict_ideal(component: Quiver, Z: MonomialIdeal) -> MonomialIdeal:
    vs = set(component.vertices)
    return MonomialIdeal([z for z in Z.generators if z.source in vs])


def h1_monomial_acyclic(quiver: Quiver, Z: MonomialIdeal) -> H1Report:
    """1 - |Q0| + |non-effective couples|, summed over connected components."""
    if not is_acyclic(quiver):
        raise NotApplicable("monomial formula requires an acyclic quiver")
    per = []
    intermediates: dict = {"n_effective": 0, "n_couples": 0}
    for comp in connected_components(quiver):
        Zc = _restrict_ideal(comp, Z)
        cls = effective_pairs(comp, Zc, basis_B(comp, Zc))
        dim = 1 - len(comp.vertices) + len(cls.non_effective)
        per.append((comp.vertices[0], dim))
        intermediates["n_effective"] += len(cls.effective)
        intermediates["n_couples"] += len(cls.all)
    total = sum(d for _, d in per)
    intermediates["n_vertices"] = len(quiver.vertices)
    intermediates["n_non_effective"] = intermediates["n_couples"] - intermediates["n_effective"]
    return H1Report(total, "monomial_acyclic", per, intermediates)


def _couple_rows(quiver: Quiver, max_length: Optional[int] = None) -> tuple[list[tuple[str, int]], int]:
    """Per component 1 - |Q0| + |(arrow, parallel path of length <= max_length) couples|,
    and the total couple count, read off the path counts; no path is listed."""
    per = []
    n_couples = 0
    for comp in connected_components(quiver):
        n = sum(layer.get((a.source, a.target), 0) for layer in path_counts(comp, max_length) for a in comp.arrows)
        per.append((comp.vertices[0], 1 - len(comp.vertices) + n))
        n_couples += n
    return per, n_couples


def h1_truncated_acyclic(quiver: Quiver, m: int) -> H1Report:
    """1 - |Q0| + |arrow/basis couples| with basis = paths of length < m."""
    if not is_acyclic(quiver):
        raise NotApplicable("truncated formula requires an acyclic quiver")
    if m < 2:
        raise NotApplicable("truncation level must be >= 2")
    per, n_couples = _couple_rows(quiver, max_length=m - 1)
    return H1Report(
        sum(d for _, d in per), "truncated_acyclic", per,
        {"n_vertices": len(quiver.vertices), "n_couples": n_couples},
    )


def h1_narrow(quiver: Quiver) -> H1Report:
    """1 - |Q0| + |Q1| per component; valid for any admissible monomial ideal."""
    if not is_narrow(quiver):
        raise NotApplicable("not narrow")
    per = []
    for comp in connected_components(quiver):
        per.append((comp.vertices[0], 1 - len(comp.vertices) + len(comp.arrows)))
    return H1Report(
        sum(d for _, d in per), "narrow", per,
        {"n_vertices": len(quiver.vertices), "n_arrows": len(quiver.arrows)},
    )


def h1_path_algebra_acyclic(quiver: Quiver) -> H1Report:
    """1 - |Q0| + |path/arrow parallel couples| per component."""
    if not is_acyclic(quiver):
        raise NotApplicable("the path algebra of a cyclic quiver is infinite dimensional")
    per, n_pairs = _couple_rows(quiver)
    return H1Report(
        sum(d for _, d in per), "path_algebra_acyclic", per,
        {
            "n_vertices": len(quiver.vertices),
            "n_path_arrow_couples": n_pairs,
            "dim_center_per_component": 1,
            "sum_diagonal_slices": len(quiver.vertices),
        },
    )


def h1_pregenerated(presentation: AlgebraPresentation) -> H1Report:
    """dim Z(A) - sum of diagonal slices + weighted arrow/slice sum (pre-generated ideals),
    i.e. the tensor-coefficients formula with X = A, X^T = Z(A) and X^E the diagonal
    slices; the presentation's algebra is built once the precondition holds."""
    q, kind, scheme = presentation.quiver, presentation.kind, presentation.scheme
    if kind == "incidence":
        raise NotApplicable("pre-generated test is not defined for incidence presentations")
    if kind == "none" and not is_acyclic(q):
        raise NotApplicable("not pre-generated: zero ideal needs an acyclic quiver")
    if (kind == "monomial" and not is_pregenerated_monomial(presentation)
            or kind == "truncated" and not truncated_is_pregenerated(q, scheme.m)):
        raise NotApplicable("not pre-generated")
    algebra = build_algebra(presentation)
    data = slice_data_from_paths(q, algebra.basis_paths, center_dim(algebra))
    dim = h1_tensor_coefficients(q, data)
    return H1Report(
        dim, "pregenerated", [],
        {"dim_center": data.dim_X_T, "sum_diagonal_slices": data.dim_X_E,
         "weighted_arrow_slices": dim - data.dim_X_T + data.dim_X_E},
    )


@dataclass(frozen=True)
class BimoduleSliceData:
    """Vertex-pair slice dimensions of a bimodule over a path algebra, plus the
    dimensions of its idempotent-diagonal part and its full invariant part."""

    slice_dims: dict[tuple[VertexId, VertexId], int]
    dim_X_E: int
    dim_X_T: int


def slice_data_from_paths(quiver: Quiver, module_paths: list[Path], dim_X_T: int) -> BimoduleSliceData:
    """Slice data for a bimodule with a path basis, read from its endpoint groups; dim_X_T
    must be supplied (it is the invariant dimension, an exactalg computation for X != kQ)."""
    slices = {pair: len(group) for pair, group in PathBasis(module_paths).between.items()}
    dim_E = sum(n for (x, y), n in slices.items() if x == y)
    return BimoduleSliceData(slices, dim_E, dim_X_T)


def h1_tensor_coefficients(quiver: Quiver, X: BimoduleSliceData) -> int:
    """dim X^T - dim X^E + sum over vertex pairs of |arrows| * slice dim."""
    n_arrows = Counter((a.source, a.target) for a in quiver.arrows)
    weighted = sum(n * X.slice_dims.get(pair, 0) for pair, n in n_arrows.items())
    return X.dim_X_T - X.dim_X_E + weighted


def h1_bound_monomial(quiver: Quiver, Z: MonomialIdeal) -> int:
    """The lower bound 1 - |Q0| + |Q1| for a connected acyclic monomial instance."""
    if len(connected_components(quiver)) != 1:
        raise NotApplicable("bound requires a connected quiver")
    if not is_acyclic(quiver):
        raise NotApplicable("bound requires an acyclic quiver")
    return 1 - len(quiver.vertices) + len(quiver.arrows)


def classify_and_compute(presentation: AlgebraPresentation) -> H1Report:
    """Select the applicable closed formula, preferring purely combinatorial ones; an
    infinite basis raises InfiniteBasis before the pre-generated row is tried."""
    q = presentation.quiver
    kind = presentation.kind
    acyclic = is_acyclic(q)
    if kind == "none" and acyclic:
        return h1_path_algebra_acyclic(q)
    if kind == "truncated" and acyclic:
        return h1_truncated_acyclic(q, presentation.scheme.m)
    if kind == "monomial" and acyclic:
        return h1_monomial_acyclic(q, presentation.scheme)
    try:
        presentation.basis  # an infinite basis raises InfiniteBasis before any formula is tried
        return h1_pregenerated(presentation)
    except NotApplicable:
        raise FormulaUnavailable("formula unavailable, use oracle") from None
