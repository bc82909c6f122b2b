"""Closed-form dimension formulas for the first Hochschild cohomology.

Covers: path algebras of acyclic quivers, monomial algebras with acyclic quiver (via the
effective-couple count), truncated algebras, pre-generated ideals, and the tensor-coefficients
formula for bimodules over a path algebra.  ``FORMULAS`` holds the dispatch rows in order; each
validates the quiver first and raises NotApplicable, with its reason, when its precondition fails.
Every row counts paths, dim Z(A) included, so none builds an algebra or ranks a system.

The classical upper bound stated for the monomial case holds as a LOWER bound:
the diagonal couples are always non-effective, so the effective count argument gives
dim H^1 >= 1 - |Q0| + |Q1| per connected component (the Kronecker quiver, with
n^2 - 1 > n - 1, rules out the opposite direction).  No row computes it; the tests
check it in that direction (``h1_bound_monomial`` in ``tests/conftest.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import NotApplicable, FormulaUnavailable
from .presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    _avoiding_paths,
    _generator_spans,
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
    reaching,
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


def _parallel_basis_paths(quiver: Quiver, Z: MonomialIdeal) -> dict[tuple[VertexId, VertexId], list[Path]]:
    """The basis paths parallel to an arrow, keyed by their endpoints, each group sorted as
    in the basis.  One search per arrow source x lists the paths from x that avoid Z, into
    the vertices that reach a target of an arrow leaving x only; nothing else is listed."""
    parallel: dict[tuple[VertexId, VertexId], list[Path]] = {}
    for x, arrows in quiver.successors.items():
        targets = {a.target for a in arrows}
        for p in _avoiding_paths(quiver, Z, [Path(x)], reaching(quiver, targets)):
            if p.target in targets:
                parallel.setdefault((x, p.target), []).append(p)
    for group in parallel.values():
        group.sort(key=Path.sort_key)
    return parallel


def effective_pairs(presentation: AlgebraPresentation) -> CoupleClassification:
    """Classify the couples (arrow a, basis path e parallel to a) of an acyclic monomial
    presentation, in arrow order and then basis order.  The paths e come from
    ``_parallel_basis_paths``, so the whole basis is never listed.  A couple is glued when
    e begins or ends with a, or a is a loop at the trivial path e.  On an acyclic quiver the
    glued couples are exactly the diagonal (a, a): a parallel path a*w or w*a with w
    nontrivial would make w a cycle, and a trivial path is parallel to a loop only.  Any
    other couple is effective when replacing one occurrence of a inside some generator by e
    gives a path that contains no generator; the occurrences are indexed by arrow once.
    Glued couples count as non-effective and come first."""
    q, Z = presentation.quiver, presentation.scheme
    if not q.acyclic or presentation.kind != "monomial":
        raise NotApplicable("effective couples need a monomial ideal on an acyclic quiver")
    parallel = _parallel_basis_paths(q, Z)
    occurrences: dict[str, list[tuple[tuple[str, ...], int]]] = {}  # arrow name -> (generator, position)
    for z in Z.names:
        for k, x in enumerate(z):
            occurrences.setdefault(x, []).append((z, k))
    pairs, glued, effective, non_effective = [], [], [], []
    for a in q.arrows:
        left = arrow_path(a)
        for e in parallel.get((a.source, a.target), ()):
            pair = ParallelPair(left, e)
            pairs.append(pair)
            names = e.arrow_names()
            if names == (a.name,):
                glued.append(pair)
            elif any(not _generator_spans(z[:k] + names + z[k + 1:], Z) for z, k in occurrences.get(a.name, ())):
                effective.append(pair)
            else:
                non_effective.append(pair)
    return CoupleClassification(tuple(pairs), tuple(glued), tuple(effective), tuple(glued + non_effective))


def _per_component(quiver: Quiver, per_arrow: Mapping[str, int]) -> list[tuple[VertexId, int]]:
    """1 - |Q0| + the sum of per_arrow over the arrows, for each connected component,
    labelled by its first vertex."""
    return [(c.vertices[0], 1 - len(c.vertices) + sum(per_arrow[a.name] for a in c.arrows))
            for c in connected_components(quiver)]


def _parallel_path_counts(quiver: Quiver, max_length: Optional[int] = None) -> dict[str, int]:
    """For each arrow, the number of paths of length <= max_length parallel to it.  From each
    arrow source x the paths are counted layer by layer, by their targets, over the vertices
    that reach a target of an arrow leaving x; no path is listed.  The quiver is acyclic or
    max_length is given."""
    counts: dict[tuple[VertexId, VertexId], int] = {}
    for x, arrows in quiver.successors.items():
        if not arrows:
            continue
        inside = reaching(quiver, {a.target for a in arrows})
        layer, length = {x: 1}, 0
        while layer and (max_length is None or length <= max_length):
            nxt: dict[VertexId, int] = {}
            for v, n in layer.items():
                counts[(x, v)] = counts.get((x, v), 0) + n
                for b in quiver.successors[v]:
                    if b.target in inside:
                        nxt[b.target] = nxt.get(b.target, 0) + n
            layer, length = nxt, length + 1
    return {a.name: counts.get((a.source, a.target), 0) for a in quiver.arrows}


def h1_path_algebra_acyclic(presentation: AlgebraPresentation) -> H1Report:
    """1 - |Q0| + |path/arrow parallel couples| per component."""
    q = presentation.quiver
    if not q.acyclic or presentation.kind != "none":
        raise NotApplicable("path-algebra formula requires no relations and an acyclic quiver")
    couples = _parallel_path_counts(q)
    per = _per_component(q, couples)
    return H1Report(
        sum(d for _, d in per), "path_algebra_acyclic", per,
        {
            "n_vertices": len(q.vertices),
            "n_path_arrow_couples": sum(couples.values()),
            "dim_center_per_component": 1,
            "sum_diagonal_slices": len(q.vertices),
        },
    )


def h1_truncated_acyclic(presentation: AlgebraPresentation) -> H1Report:
    """1 - |Q0| + |arrow/basis couples| per component, with basis = paths of length < m."""
    q = presentation.quiver
    if not q.acyclic or presentation.kind != "truncated":
        raise NotApplicable("truncated formula requires a truncation ideal on an acyclic quiver")
    couples = _parallel_path_counts(q, max_length=presentation.scheme.m - 1)
    per = _per_component(q, couples)
    return H1Report(
        sum(d for _, d in per), "truncated_acyclic", per,
        {"n_vertices": len(q.vertices), "n_couples": sum(couples.values())},
    )


def h1_monomial_acyclic(presentation: AlgebraPresentation) -> H1Report:
    """1 - |Q0| + |non-effective couples| per component.  The couples are classified once
    on the whole quiver: a couple, and every generator containing its arrow, lie in that
    arrow's component, so each component's count is the one it has on its own."""
    q = presentation.quiver
    if not q.acyclic or presentation.kind != "monomial":
        raise NotApplicable("monomial formula requires a monomial ideal on an acyclic quiver")
    cls = effective_pairs(presentation)
    per = _per_component(q, Counter(pair.left.arrow_names()[0] for pair in cls.non_effective))
    return H1Report(
        sum(d for _, d in per), "monomial_acyclic", per,
        {"n_effective": len(cls.effective), "n_couples": len(cls.all), "n_vertices": len(q.vertices),
         "n_non_effective": len(cls.non_effective)},
    )


def h1_pregenerated(presentation: AlgebraPresentation) -> H1Report:
    """dim Z(A) - sum of diagonal slices + weighted arrow/slice sum (pre-generated ideals),
    i.e. the tensor-coefficients formula with X = A, X^T = Z(A) and X^E the diagonal
    slices.  The basis is read first, so an infinite one raises InfiniteBasis before the
    pre-generated test; dim Z(A) is the presentation's count, and no algebra is built."""
    q, kind = presentation.quiver, presentation.kind
    basis = presentation.basis  # raises InfiniteBasis
    if (kind == "monomial" and not is_pregenerated_monomial(presentation)
            or kind == "truncated" and not truncated_is_pregenerated(q, presentation.scheme.m)):
        raise NotApplicable("not pre-generated")
    data = slice_data_from_paths(basis, presentation.center_dim)
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


def slice_data_from_paths(module_paths: list[Path], dim_X_T: int) -> BimoduleSliceData:
    """Slice data for a bimodule with a path basis, read from its endpoint groups, and dim X^T."""
    slices = {pair: len(group) for pair, group in PathBasis(module_paths).between.items()}
    dim_E = sum(n for (x, y), n in slices.items() if x == y)
    return BimoduleSliceData(slices, dim_E, dim_X_T)


def h1_tensor_coefficients(quiver: Quiver, X: BimoduleSliceData) -> int:
    """dim X^T - dim X^E + sum over vertex pairs of |arrows| * slice dim."""
    n_arrows = Counter((a.source, a.target) for a in quiver.arrows)
    weighted = sum(n * X.slice_dims.get(pair, 0) for pair, n in n_arrows.items())
    return X.dim_X_T - X.dim_X_E + weighted


FORMULAS = (h1_path_algebra_acyclic, h1_truncated_acyclic, h1_monomial_acyclic, h1_pregenerated)


def classify_and_compute(presentation: AlgebraPresentation) -> H1Report:
    """The first row of FORMULAS whose precondition holds, so the combinatorial rows come
    before the pre-generated one; each row passed over raised NotApplicable with its reason."""
    for formula in FORMULAS:
        try:
            return formula(presentation)
        except NotApplicable:
            pass
    raise FormulaUnavailable("formula unavailable, use oracle")
