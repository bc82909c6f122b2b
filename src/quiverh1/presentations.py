"""Relation schemes on path algebras and their finite-dimensional realizations.

A monomial ideal is given by a minimal set Z of paths of length >= 2; the
quotient algebra has as basis the paths avoiding every generator.  Truncation
at level m keeps paths of length < m.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Union

from .errors import InfiniteBasis, InvalidIdeal
from .quiver import (
    Path,
    PathBasis,
    Quiver,
    Record,
    VertexId,
    enumerate_paths,
    path_counts,
    reaches_cycle,
    validate,
)


class MonomialIdeal(Record):
    """A minimal set of paths of length >= 2 generating a two-sided ideal."""

    fields = ("generators",)

    def __init__(self, generators: Iterable[Path]):
        unique: dict = {}  # Path.sort_key() -> the first generator with it; no Path is hashed
        for z in generators:
            unique.setdefault(z.sort_key(), z)
        gens = tuple(unique[key] for key in sorted(unique))
        # arrow-name tuples of the generators, and their lengths, for matching
        self._set(generators=gens, names=frozenset(z.arrow_names() for z in gens),
                  lengths=tuple(sorted({z.length for z in gens})))

    @property
    def max_generator_length(self) -> int:
        return max((z.length for z in self.generators), default=0)


class TruncationIdeal(Record):
    fields = ("m",)

    def __init__(self, m: int):
        if m < 2:
            raise InvalidIdeal(f"truncation level must be >= 2, got {m}")
        self._set(m=m)


Scheme = Union[None, MonomialIdeal, TruncationIdeal]


class AlgebraPresentation(Record):
    """A quiver with one relation scheme: None (no relations), a MonomialIdeal or a
    TruncationIdeal.  Its basis, centre dimension and algebra are computed once, on first use.
    """

    fields = ("quiver", "scheme")

    def __init__(self, quiver: Quiver, scheme: Scheme = None):
        self._set(quiver=quiver, scheme=scheme)

    @property
    def kind(self) -> str:
        if self.scheme is None:
            return "none"
        if isinstance(self.scheme, MonomialIdeal):
            return "monomial"
        if isinstance(self.scheme, TruncationIdeal):
            return "truncated"
        raise InvalidIdeal(f"unknown relation scheme: {type(self.scheme).__name__}")

    @cached_property
    def basis(self) -> PathBasis:
        """The basis paths, found once; raises InfiniteBasis when there are infinitely many."""
        q, kind = self.quiver, self.kind
        validate(q)
        if kind == "monomial":
            return PathBasis(basis_B(q, self.scheme))
        if kind == "truncated":
            return PathBasis(enumerate_paths(q, max_length=self.scheme.m - 1))
        if not q.acyclic:
            raise InfiniteBasis("infinite dimensional: path algebra of a cyclic quiver")
        return PathBasis(enumerate_paths(q))

    @cached_property
    def center_dim(self) -> int:
        """dim Z(A), in every characteristic.  Z(A) lies in the span of the closed basis paths and
        commutes with each arrow: each path p equates the coefficients of p less its last and first arrow
        if those arrows agree, else zeroes those that are closed.  Count the classes with none zeroed."""
        basis = self.basis
        parent, zeroed = {i: i for i, p in enumerate(basis) if p.source == p.target}, []

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for p in basis[len(self.quiver.vertices):]:  # the trivial paths come first
            names = p.arrow_names()
            head, tail = basis.index[(p.source, names[:-1])], basis.index[(p.arrows[0].target, names[1:])]
            if names[0] == names[-1]:
                parent[root(head)] = root(tail)
            else:
                zeroed += [i for i in (head, tail) if i in parent]
        return len({root(i) for i in parent} - {root(i) for i in zeroed})

    @cached_property
    def algebra(self) -> StructureConstantAlgebra:
        """Structure constants on the basis, unverified: ``regular_bimodule`` checks them."""
        return _path_basis_algebra(self.basis)


def check_minimal(Z: Iterable[Path]) -> MonomialIdeal:
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


def _avoids(names: tuple[str, ...], Z: MonomialIdeal) -> bool:
    """True when no generator is a suffix of the arrow-name sequence."""
    for n in Z.lengths:
        if n <= len(names) and names[-n:] in Z.names:
            return False
    return True


def _avoiding_paths(quiver: Quiver, Z: MonomialIdeal, starts: Iterable[Path],
                    within: Optional[set[VertexId]] = None) -> list[Path]:
    """The paths that extend one of the starts, themselves included, while no generator is
    a suffix of them and, when ``within`` is given, only into its vertices; unsorted.  From
    a start that avoids Z these are the avoiding paths, as every prefix of one avoids Z.
    There must be finitely many."""
    result: list[Path] = []
    stack = [(p, p.target) for p in starts]
    while stack:
        p, v = stack.pop()
        result.append(p)
        for a in quiver.successors[v]:
            if (within is None or a.target in within) and _avoids(p._names + (a.name,), Z):
                stack.append((p._then(a), a.target))
    return result


def basis_B(quiver: Quiver, Z: MonomialIdeal) -> list[Path]:
    """All paths (including trivial ones) avoiding every generator, sorted; raises
    InfiniteBasis when there are infinitely many.

    Whether an arrow may follow an avoiding path depends only on the path's
    state: its target and its last (longest generator - 1) arrow names.  On a
    cyclic quiver ``reaches_cycle`` over the states first decides finiteness:
    a stretch that returns to a state can be repeated for ever.  Only then are
    the paths listed by ``_avoiding_paths`` from the trivial ones.  The acyclic
    monomial formula reads only the paths parallel to an arrow, and searches
    for those alone.
    """
    keep = max(Z.max_generator_length - 1, 0)

    def step(state: _State) -> Iterable[_State]:
        v, names = state
        for a in quiver.successors[v]:
            seq = names + (a.name,)
            if _avoids(seq, Z):
                yield a.target, seq[max(len(seq) - keep, 0):]

    if not quiver.acyclic and reaches_cycle([(v, ()) for v in quiver.vertices], step):
        raise InfiniteBasis("infinite basis: quiver is cyclic and the ideal is not admissible")
    result = _avoiding_paths(quiver, Z, [Path(v) for v in quiver.vertices])
    result.sort(key=Path.sort_key)
    return result


def slice_ideal_dims(presentation: AlgebraPresentation, x: VertexId, y: VertexId) -> tuple[int, int, int]:
    """(dim yIx, dim y(FI+IF)x, dim y(kQ)x) of a monomial presentation with a minimal Z,
    counted on paths from x to y; on a cyclic-but-admissible quiver, on those no longer
    than the longest basis path plus the longest generator.

    A path of kQ lies outside I exactly when it is a basis path.  A path in I lies
    in FI+IF exactly when some generator occurrence in it is not the whole path,
    and by minimality that fails only for the generators themselves.  So the
    counts are read off the path counts, the basis and Z, and no path is listed.
    """
    q, Z = presentation.quiver, presentation.scheme
    bound = None if q.acyclic else presentation.basis[-1].length + Z.max_generator_length
    dim_total = sum(layer.get((x, y), 0) for layer in path_counts(q, max_length=bound))
    dim_I = dim_total - len(presentation.basis.between.get((x, y), ()))
    return dim_I, dim_I - sum((z.source, z.target) == (x, y) for z in Z.generators), dim_total


def is_pregenerated_monomial(presentation: AlgebraPresentation) -> bool:
    """Each vertex-pair slice yIx of the monomial ideal, for a minimal Z, is ykQx or
    y(FI+IF)x; raises InfiniteBasis when the ideal is not admissible.

    By ``slice_ideal_dims``, yIx = ykQx when no basis path runs from x to y, and
    yIx = y(FI+IF)x when no generator does; these hold on paths of every length.
    So the ideal is pre-generated iff no generator is parallel to a basis path.
    """
    between = presentation.basis.between
    return not any((z.source, z.target) in between for z in presentation.scheme.generators)


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


class StructureConstantAlgebra(Record):
    """A finite-dimensional algebra on a multiplicative basis.

    ``table[(i, j)] = k`` means b_i b_j = b_k; absent keys mean zero.  Every
    algebra the program builds (paths modulo a monomial ideal, matrix units of
    an incidence algebra) multiplies basis elements this way.  Its unit is the
    sum of the vertex idempotents.
    """

    fields = ("basis", "table", "vertex_idempotents")

    def __init__(self, basis: tuple[str, ...], table: dict, vertex_idempotents: dict[VertexId, int]):
        self._set(basis=basis, table=table, vertex_idempotents=vertex_idempotents)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def opposite(self) -> "StructureConstantAlgebra":
        """The algebra on the reversed table, with the same basis and vertex idempotents."""
        op_table = {(j, i): k for (i, j), k in self.table.items()}
        return StructureConstantAlgebra(self.basis, op_table, dict(self.vertex_idempotents))

    def check(self) -> None:
        """Assert associativity on all basis triples and the unit/idempotent axioms.

        The rows of the table (rows[i][j] = k for b_i b_j = b_k) are the left regular
        action, so associativity at (i, j, k) is its composite identity at that triple,
        and the least of ``composite_failures`` is the first failure of the loop over all
        d^3 triples.  The unit, the sum of the idempotent elements e, acts as 1 on b
        when the nonzero products e b are exactly [b], and likewise the b e; they are
        read off the same pass over the table, and orthogonality off the rows.
        """
        rows: list[dict[int, int]] = [{} for _ in range(self.dimension)]
        elements = set(self.vertex_idempotents.values())
        by_unit: tuple[dict, dict] = ({}, {})  # [0][j] = the nonzero e b_j, [1][i] = the nonzero b_i e
        for (i, j), k in self.table.items():
            rows[i][j] = k
            if i in elements:
                by_unit[0].setdefault(j, []).append(k)
            if j in elements:
                by_unit[1].setdefault(i, []).append(k)
        bad = composite_failures(rows, self.table)
        if bad:
            i, j, k = min(bad)
            raise AssertionError(f"associativity failure at ({self.basis[i]}, {self.basis[j]}, {self.basis[k]})")
        for i in range(self.dimension):
            if by_unit[0].get(i) != [i] or by_unit[1].get(i) != [i]:
                raise AssertionError(f"unit failure at {self.basis[i]}")
        idems = list(self.vertex_idempotents.items())
        positions: dict[int, list[int]] = {}  # basis index -> positions in idems
        for p, (v, i) in enumerate(idems):
            if self.table.get((i, i)) != i:
                raise AssertionError(f"vertex element {v} is not idempotent")
            positions.setdefault(i, []).append(p)
        for p, (v, i) in enumerate(idems):
            others = [q for j in rows[i] for q in positions.get(j, ()) if q != p]
            if others:
                raise AssertionError(f"idempotents {v}, {idems[min(others)][0]} are not orthogonal")


def composite_failures(ops, table: dict) -> set[tuple[int, int, int]]:
    """The triples (i, j, m) where ops[j] then ops[i] differs from ops[table[(i, j)]] at m,
    for index maps ops[b] (m -> n; absent keys and pairs are zero).  A side is nonzero only
    where ops[j][m] is in the domain of ops[i], found from an index of the domains, or where
    m is in the domain of ops[table[(i, j)]]; elsewhere both are zero, so these triples
    fail exactly where the loop over all triples does."""
    at: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        for n in op:
            at.setdefault(n, []).append(i)
    products = {ij: ops[k] for ij, k in table.items()}
    bad = {(i, j, m) for j, op in enumerate(ops) for m, n in op.items() for i in at.get(n, ())
           if ops[i][n] != products.get((i, j), {}).get(m)}
    bad.update((i, j, m) for (i, j), op in products.items() for m, n in op.items()
               if ops[i].get(ops[j].get(m)) != n)
    return bad


def _path_basis_algebra(basis: PathBasis) -> StructureConstantAlgebra:
    """Pairs each basis path only with the basis paths starting at its target."""
    table: dict[tuple[int, int], int] = {}
    for i, p in enumerate(basis):
        for j in basis.starting.get(p.target, ()):
            k = basis.find(p, basis[j])
            if k is not None:
                table[(i, j)] = k
    idem = {p.source: i for i, p in enumerate(basis) if p.is_trivial}
    return StructureConstantAlgebra(tuple(p.label() for p in basis), table, idem)


def build_algebra(presentation: AlgebraPresentation) -> StructureConstantAlgebra:
    """The presentation's algebra, built once per presentation; ``regular_bimodule`` verifies it."""
    return presentation.algebra
