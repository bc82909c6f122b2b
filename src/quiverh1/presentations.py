"""Relation schemes on path algebras and their finite-dimensional realizations.

A monomial ideal is given by a minimal set Z of paths of length >= 2; the
quotient algebra has as basis the paths avoiding every generator.  Truncation
at level m keeps paths of length < m.  Incidence algebras of posets are built
directly on the comparable-pair basis (see the simplicial module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from .simplicial import Poset

from .errors import InfiniteBasis, InvalidIdeal, NotApplicable
from .quiver import (
    Path,
    PathBasis,
    Quiver,
    VertexId,
    enumerate_paths,
    path_counts,
    validate,
)


@dataclass(frozen=True)
class MonomialIdeal:
    """A minimal set of paths of length >= 2 generating a two-sided ideal."""

    generators: tuple[Path, ...]

    def __init__(self, generators: Iterable[Path]):
        gens = sorted(set(generators), key=Path.sort_key)
        object.__setattr__(self, "generators", tuple(gens))
        # arrow-name tuples of the generators, and their lengths, for matching
        object.__setattr__(self, "names", frozenset(z.arrow_names() for z in gens))
        object.__setattr__(self, "lengths", tuple(sorted({z.length for z in gens})))

    @property
    def max_generator_length(self) -> int:
        return max((z.length for z in self.generators), default=0)


@dataclass(frozen=True)
class TruncationIdeal:
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise InvalidIdeal(f"truncation level must be >= 2, got {self.m}")


Scheme = Union[None, MonomialIdeal, TruncationIdeal, "Poset"]


@dataclass(frozen=True)
class AlgebraPresentation:
    """A quiver with one relation scheme, or a poset (incidence algebra).

    ``scheme`` is None (no relations), a MonomialIdeal, a TruncationIdeal, or a
    simplicial.Poset; in the poset case ``quiver`` is the Hasse quiver.  Its basis
    and its algebra are computed once, on first use.
    """

    quiver: Quiver
    scheme: Scheme = None

    @property
    def kind(self) -> str:
        if self.scheme is None:
            return "none"
        if isinstance(self.scheme, MonomialIdeal):
            return "monomial"
        if isinstance(self.scheme, TruncationIdeal):
            return "truncated"
        return "incidence"

    @cached_property
    def basis(self) -> PathBasis:
        """The basis paths, found once; raises InfiniteBasis when there are infinitely many."""
        q, kind = self.quiver, self.kind
        if kind == "incidence":
            raise NotApplicable("an incidence algebra has no path basis")
        validate(q)
        if kind == "monomial":
            return PathBasis(basis_B(q, self.scheme))
        if kind == "truncated":
            return PathBasis(enumerate_paths(q, max_length=self.scheme.m - 1))
        if not q.acyclic:
            raise InfiniteBasis("infinite dimensional: path algebra of a cyclic quiver")
        return PathBasis(enumerate_paths(q))

    @cached_property
    def algebra(self) -> StructureConstantAlgebra:
        """Structure constants on the basis, verified by ``check()``, which visits only the
        triples where a product can be nonzero; a poset gives its incidence algebra."""
        if self.kind == "incidence":
            from .simplicial import incidence_algebra

            return incidence_algebra(self.scheme)
        return _path_basis_algebra(self.basis).check()


def check_minimal(quiver: Quiver, Z: Iterable[Path]) -> MonomialIdeal:
    """Validate generator lengths and minimality; returns the ideal on success.  Reports
    each z's smallest generator sub-sequence by (length, names), as a pairwise test would."""
    gens = list(Z)
    for z in gens:
        if z.length < 2:
            raise InvalidIdeal(f"length < 2 generator: {z.label()}", z)
    ideal = MonomialIdeal(gens)
    for z in ideal.generators:
        names = z.arrow_names()
        inside = [(j - i, names[i:j]) for i, j in _generator_spans(names, ideal) if j - i < len(names)]
        if inside:
            w = min(inside)[1]
            raise InvalidIdeal(f"non-minimal: {z.label()} contains {'*'.join(w)}", z)
    return ideal


def _generator_spans(names: tuple[str, ...], Z: MonomialIdeal) -> list[tuple[int, int]]:
    """(start, end) of every generator occurrence in an arrow-name sequence."""
    return [(i, i + n) for n in Z.lengths for i in range(len(names) - n + 1)
            if names[i : i + n] in Z.names]


_State = tuple[VertexId, tuple[str, ...]]  # a path's target and last (longest generator - 1) arrow names


def basis_B(quiver: Quiver, Z: MonomialIdeal) -> list[Path]:
    """All paths (including trivial ones) avoiding every generator, sorted; raises
    InfiniteBasis when there are infinitely many.

    Whether an arrow may follow an avoiding path depends only on the path's
    state: its target and its last (longest generator - 1) arrow names.  On a
    cyclic quiver one depth-first search over the states first decides
    finiteness, entering each state once: a branch that returns to a state on
    it can repeat that stretch for ever, and the search raises there.  Only
    then are the paths listed, by extending a path while no generator is a
    suffix of it; every prefix of an avoiding path avoids Z, so all are reached.
    """
    keep = max(Z.max_generator_length - 1, 0)

    def avoids(seq: tuple[str, ...]) -> bool:
        return not any(seq[-n:] in Z.names for n in Z.lengths if n <= len(seq))

    if not quiver.acyclic:
        done: set[_State] = set()  # states whose every continuation was searched
        for v in quiver.vertices:
            if (v, ()) in done:
                continue
            branch: dict[_State, None] = {(v, ()): None}  # the states of the current branch, in order
            stack = [((), iter(quiver.successors[v]))]
            while stack:
                names, arrows = stack[-1]
                for a in arrows:
                    seq = names + (a.name,)
                    if not avoids(seq):
                        continue
                    state = (a.target, seq[max(len(seq) - keep, 0):])
                    if state in branch:
                        raise InfiniteBasis("infinite basis: quiver is cyclic and the ideal is not admissible")
                    if state not in done:
                        branch[state] = None
                        stack.append((state[1], iter(quiver.successors[a.target])))
                        break
                else:
                    stack.pop()
                    done.add(branch.popitem()[0])
    result: list[Path] = []
    stack = [Path(v) for v in quiver.vertices]
    while stack:
        p = stack.pop()
        result.append(p)
        stack.extend(p._then(a) for a in quiver.successors[p.target] if avoids(p.arrow_names() + (a.name,)))
    result.sort(key=Path.sort_key)
    return result


def _slice_table(presentation: AlgebraPresentation) -> dict[tuple[VertexId, VertexId], tuple[int, int, int]]:
    """(x, y) -> (dim yIx, dim y(FI+IF)x, dim y(kQ)x) for a monomial presentation, from one
    path enumeration.

    A path lies in FI+IF when some generator occurrence in it is not the whole
    path.  On a cyclic-but-admissible quiver the counts stop at the longest basis
    path plus the longest generator, under which all basis paths and generators
    fit; this still decides the pre-generated alternative.
    """
    q, Z = presentation.quiver, presentation.scheme
    bound = None if q.acyclic else presentation.basis[-1].length + Z.max_generator_length
    table: dict[tuple[VertexId, VertexId], tuple[int, int, int]] = {}
    for p in enumerate_paths(q, max_length=bound):
        spans = _generator_spans(p.arrow_names(), Z)
        dim_I, dim_FIIF, dim_total = table.get((p.source, p.target), (0, 0, 0))
        table[(p.source, p.target)] = (
            dim_I + bool(spans),
            dim_FIIF + any(i > 0 or j < p.length for (i, j) in spans),
            dim_total + 1,
        )
    return table


def slice_ideal_dims(presentation: AlgebraPresentation, x: VertexId, y: VertexId) -> tuple[int, int, int]:
    """(dim yIx, dim y(FI+IF)x, dim y(kQ)x) of a monomial presentation, counted on paths
    from x to y."""
    return _slice_table(presentation).get((x, y), (0, 0, 0))


def is_pregenerated_monomial(presentation: AlgebraPresentation) -> bool:
    """Each vertex-pair slice of the monomial ideal is full or equals the FI+IF slice;
    raises InfiniteBasis when the ideal is not admissible."""
    return all(dim_I in (dim_total, dim_FIIF) for dim_I, dim_FIIF, dim_total in
               _slice_table(presentation).values())


def truncated_is_pregenerated(quiver: Quiver, m: int) -> bool:
    """True iff every path parallel to a length-m path has length >= m."""
    if m < 2:
        raise InvalidIdeal(f"truncation level must be >= 2, got {m}")
    counts = path_counts(quiver, max_length=m)
    short = {pair for layer in counts[:m] for pair in layer}
    return len(counts) <= m or short.isdisjoint(counts[m])


def truncation_generators(quiver: Quiver, m: int) -> MonomialIdeal:
    """The truncating ideal as a monomial ideal: all paths of length exactly m."""
    return MonomialIdeal(p for p in enumerate_paths(quiver, max_length=m) if p.length == m)


# --- structure-constant algebras ---------------------------------------------

Combo = dict[int, int]  # basis index -> integer coefficient (sparse, nonzero)


@dataclass(frozen=True)
class StructureConstantAlgebra:
    """A finite-dimensional algebra on a multiplicative basis.

    ``table[(i, j)] = k`` means b_i b_j = b_k; absent keys mean zero.  Every
    algebra the program builds (paths modulo a monomial ideal, matrix units of
    an incidence algebra) multiplies basis elements this way.  ``basis_paths``
    is kept when the basis consists of paths, so vertex-pair slices and
    concatenations can be read off.
    """

    basis: tuple[str, ...]
    table: dict[tuple[int, int], int]
    unit: Combo
    vertex_idempotents: dict[VertexId, int]
    basis_paths: Optional[PathBasis] = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def opposite(self) -> "StructureConstantAlgebra":
        op_table = {(j, i): k for (i, j), k in self.table.items()}
        return StructureConstantAlgebra(
            self.basis, op_table, dict(self.unit), dict(self.vertex_idempotents), self.basis_paths
        )

    def check(self) -> "StructureConstantAlgebra":
        """Assert associativity on all basis triples and the unit/idempotent axioms.

        Work is in proportion to the triples where a side is nonzero.  With the
        table grouped into rows (rows[i][j] = k for b_i b_j = b_k) and factors
        (factors[m] = every (j, k) with b_j b_k = b_m), (b_i b_j) b_k is nonzero
        only for j in rows[i] and k in rows[rows[i][j]], and b_i (b_j b_k) only
        for (j, k) in factors[m] with m in rows[i].  On every other triple both
        sides are zero, so comparing these tests the same property as the loop
        over all d^3 triples, and the lexicographically least failing triple is
        the one that loop reports first.  The unit and orthogonality axioms read
        the table and the rows too, not d products or |Q0|^2 pairs.
        """
        rows: dict[int, dict[int, int]] = {}
        factors: dict[int, list[tuple[int, int]]] = {}
        by_unit: tuple[dict, dict] = ({}, {})  # [0][j] = unit * b_j, [1][i] = b_i * unit, zeros kept
        for (i, j), k in self.table.items():
            rows.setdefault(i, {})[j] = k
            factors.setdefault(k, []).append((i, j))
            for side, b, u in ((by_unit[0], j, i), (by_unit[1], i, j)):
                if u in self.unit:
                    acc = side.setdefault(b, {})
                    acc[k] = acc.get(k, 0) + self.unit[u]
        for i in sorted(rows):
            row_i = rows[i]
            triples = [(j, k) for j, l in row_i.items() for k in rows.get(l, ())]
            triples += [jk for m in row_i for jk in factors.get(m, ())]
            bad = [(j, k) for j, k in triples
                   if rows.get(row_i.get(j), {}).get(k) != row_i.get(rows.get(j, {}).get(k))]
            if bad:
                j, k = min(bad)
                raise AssertionError(f"associativity failure at ({self.basis[i]}, {self.basis[j]}, {self.basis[k]})")
        for i in range(self.dimension):
            if any({k: c for k, c in side.get(i, {}).items() if c} != {i: 1} for side in by_unit):
                raise AssertionError(f"unit failure at {self.basis[i]}")
        idems = list(self.vertex_idempotents.items())
        total: Combo = {}
        positions: dict[int, list[int]] = {}  # basis index -> positions in idems
        for p, (v, i) in enumerate(idems):
            if self.table.get((i, i)) != i:
                raise AssertionError(f"vertex element {v} is not idempotent")
            total[i] = total.get(i, 0) + 1
            positions.setdefault(i, []).append(p)
        for p, (v, i) in enumerate(idems):
            others = [q for j in rows.get(i, ()) for q in positions.get(j, ()) if q != p]
            if others:
                raise AssertionError(f"idempotents {v}, {idems[min(others)][0]} are not orthogonal")
        if total != self.unit:
            raise AssertionError("vertex idempotents do not sum to the unit")
        return self


def _path_basis_algebra(paths: list[Path]) -> StructureConstantAlgebra:
    """Pairs each basis path only with the basis paths starting at its target."""
    basis = PathBasis(paths)
    table: dict[tuple[int, int], int] = {}
    for i, p in enumerate(basis):
        for j in basis.starting.get(p.target, ()):
            k = basis.find(p, basis[j])
            if k is not None:
                table[(i, j)] = k
    idem = {p.source: i for i, p in enumerate(basis) if p.is_trivial}
    unit = {i: 1 for i in idem.values()}
    return StructureConstantAlgebra(tuple(p.label() for p in basis), table, unit, idem, basis)


def build_algebra(presentation: AlgebraPresentation) -> StructureConstantAlgebra:
    """The presentation's algebra, built and verified by ``check()`` once per presentation."""
    return presentation.algebra
