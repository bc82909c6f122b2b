"""Finite posets, incidence algebras, order complexes and the degree-1
comparison between incidence-algebra Hochschild cohomology and simplicial
cohomology of the chain complex of the poset.

Input relations may be cover pairs or arbitrary comparabilities; the
reflexive-transitive closure is computed before validation, so hand-written
files need not list composite relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Optional

from .errors import InvalidPoset
from .exactalg import Row, h1_oracle, rank, regular_bimodule
from .presentations import StructureConstantAlgebra


@dataclass(frozen=True)
class Poset:
    """Elements in insertion order with a closed (reflexive, transitive) relation."""

    elements: tuple[str, ...]
    relation: frozenset  # pairs (a, b) meaning a <= b

    @classmethod
    def from_pairs(cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        elements = tuple(elements)
        leq = {(a, a) for a in elements}
        for a, b in pairs:
            if a not in elements or b not in elements:
                raise InvalidPoset(f"relation mentions unknown element: {a!r} <= {b!r}")
            leq.add((a, b))
        changed = True
        while changed:
            changed = False
            for a, b in list(leq):
                for c in elements:
                    if (b, c) in leq and (a, c) not in leq:
                        leq.add((a, c))
                        changed = True
        for a, b in _in_element_order(elements, leq):
            if a != b and (b, a) in leq:
                raise InvalidPoset(f"antisymmetry violation: {a!r} <= {b!r} <= {a!r}")
        return cls(elements, frozenset(leq))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def comparable_pairs(self) -> list[tuple[str, str]]:
        """All (y, x) with y <= x, in element order."""
        return _in_element_order(self.elements, self.relation)

    def covers(self) -> list[tuple[str, str]]:
        """All (x, y) with x > y and nothing strictly between."""
        out = []
        for x in self.elements:
            for y in self.elements:
                if x == y or not self.leq(y, x):
                    continue
                if any(z != x and z != y and self.leq(y, z) and self.leq(z, x) for z in self.elements):
                    continue
                out.append((x, y))
        return out


def _in_element_order(elements: tuple[str, ...], pairs) -> list[tuple[str, str]]:
    """The pairs sorted by the positions of their members, so a report does not depend on
    the iteration order of a set."""
    pos = {e: i for i, e in enumerate(elements)}
    return sorted(pairs, key=lambda p: (pos[p[0]], pos[p[1]]))


def validate_poset(p: Poset) -> Poset:
    """Re-check the order axioms on the stored relation; reports the first violation in
    element order."""
    for a in p.elements:
        if (a, a) not in p.relation:
            raise InvalidPoset(f"reflexivity violation at {a!r}")
    for a, b in p.comparable_pairs():
        if a != b and (b, a) in p.relation:
            raise InvalidPoset(f"antisymmetry violation: {a!r} <= {b!r} <= {a!r}")
        for c in p.elements:
            if (b, c) in p.relation and (a, c) not in p.relation:
                raise InvalidPoset(f"transitivity violation: {a!r} <= {b!r} <= {c!r}")
    return p


def incidence_algebra(p: Poset) -> StructureConstantAlgebra:
    """Basis of comparable pairs, matrix-unit product, unit = sum of diagonals."""
    pairs = p.comparable_pairs()
    index = {pair: i for i, pair in enumerate(pairs)}
    table = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                table[(i, j)] = index[(a, d)]
    idem = {e: index[(e, e)] for e in p.elements}
    unit = {i: 1 for i in idem.values()}
    labels = tuple(f"e[{y},{x}]" for (y, x) in pairs)
    return StructureConstantAlgebra(labels, table, unit, idem).check()


@dataclass(frozen=True)
class OrderComplex:
    """Strict chains of the poset by dimension (0, 1, 2 are enough for H^0, H^1)."""

    simplices_by_dim: dict

    def n_simplices(self, dim: int) -> int:
        return len(self.simplices_by_dim.get(dim, []))


def order_complex(p: Poset) -> OrderComplex:
    strict = lambda a, b: a != b and p.leq(a, b)
    simplices: dict[int, list[tuple[str, ...]]] = {0: [], 1: [], 2: []}
    simplices[0] = [(e,) for e in p.elements]
    for a, b in combinations(p.elements, 2):
        if strict(a, b):
            simplices[1].append((a, b))
        elif strict(b, a):
            simplices[1].append((b, a))
    for a, b, c in combinations(p.elements, 3):
        for chain in _orderings((a, b, c), strict):
            simplices[2].append(chain)
    for d in simplices:
        simplices[d].sort()
    return OrderComplex(simplices)


def _orderings(trio, strict):
    for perm in permutations(trio):
        if strict(perm[0], perm[1]) and strict(perm[1], perm[2]):
            yield perm
            return  # a chain on a fixed set is unique in a poset


def _coboundary(complex_: OrderComplex, p: int) -> list[Row]:
    """The rows of delta^p : C^p -> C^{p+1}, one per (p+1)-simplex, with the alternating-sum
    face convention; a column is a p-simplex."""
    lower = complex_.simplices_by_dim.get(p, [])
    upper = complex_.simplices_by_dim.get(p + 1, [])
    col = {s: i for i, s in enumerate(lower)}
    rows = []
    for sigma in upper:
        row = {}
        for i in range(len(sigma)):
            face = sigma[:i] + sigma[i + 1 :]
            j = col.get(face)
            if j is not None:
                row[j] = row.get(j, 0) + (-1) ** i
        rows.append({k: v for k, v in row.items() if v})
    return rows


def simplicial_h_dim(c: OrderComplex, degree: int, prime: Optional[int] = None) -> int:
    """Cohomology dimension with field coefficients at degree 0 or 1."""
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    d0 = _coboundary(c, 0)
    d1 = _coboundary(c, 1)
    _assert_composite_zero(d0, d1)
    r0 = rank(d0, prime=prime)
    if degree == 0:
        return c.n_simplices(0) - r0
    r1 = rank(d1, prime=prime)
    return (c.n_simplices(1) - r1) - r0


def _assert_composite_zero(d0: list[Row], d1: list[Row]) -> None:
    # d1 rows x d0 cols: composite (d1 . d0) must vanish
    for row in d1:
        acc: dict[int, int] = {}
        for c1, v1 in row.items():
            for c0, v0 in d0[c1].items():
                acc[c0] = acc.get(c0, 0) + v1 * v0
        if any(acc.values()):
            raise AssertionError("coboundary composite is nonzero")


@dataclass(frozen=True)
class ComparisonReport:
    dim_h1_incidence: int
    dim_h1_simplicial: int

    @property
    def agree(self) -> bool:
        return self.dim_h1_incidence == self.dim_h1_simplicial


def gs_compare(p: Poset, prime: Optional[int] = None) -> ComparisonReport:
    """Hochschild H^1 of the incidence algebra vs simplicial H^1 of the chain complex."""
    validate_poset(p)
    alg = incidence_algebra(p)
    h1_inc = h1_oracle(regular_bimodule(alg), prime=prime)
    h1_simp = simplicial_h_dim(order_complex(p), 1, prime=prime)
    return ComparisonReport(h1_inc, h1_simp)
