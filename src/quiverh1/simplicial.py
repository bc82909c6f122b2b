"""Finite posets, their incidence algebras and order complexes, and the simplicial
cohomology of the order complex in degrees 0 and 1, which the command line sets
against the Hochschild H^1 of the incidence algebra.

Input relations may be cover pairs or arbitrary comparabilities; the
reflexive-transitive closure is computed before validation, so hand-written
files need not list composite relations.  The closure adds the pairs to the
up-sets one at a time, so the first pair that closes a cycle is known; covers
and chains are read off the cached up-sets (``Poset.above``), and the incidence
algebra multiplies each pair only with the pairs that start at its end.  The
cohomology is ``exactalg.cohomology_dims`` on the coboundaries of the order
complex, which checks delta^1 . delta^0 = 0 over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import InvalidPoset
from .exactalg import Row, cohomology_dims
from .presentations import StructureConstantAlgebra


@dataclass(frozen=True)
class Poset:
    """Elements in insertion order with a closed (reflexive, transitive) relation."""

    elements: tuple[str, ...]
    relation: frozenset  # pairs (a, b) meaning a <= b

    @classmethod
    def from_pairs(cls, elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Poset":
        """The closure of the pairs, added one at a time: on (a, b), every x <= a gains every
        c >= b.  On a cycle, the error names the first violating couple of the whole
        closure and carries the index of the first pair (a, b) with b <= a, a != b."""
        elements = tuple(elements)
        up = {a: {a} for a in elements}  # up[a] = every c with a <= c, so far
        cycle = None
        for k, (a, b) in enumerate(pairs):
            if a not in up or b not in up:
                raise InvalidPoset(f"relation mentions unknown element: {a!r} <= {b!r}", k)
            if cycle is None and a != b and a in up[b]:
                cycle = k
            if b not in up[a]:
                for x in up.values():
                    if a in x:
                        x |= up[b]
        leq = {(a, c) for a in up for c in up[a]}
        for a, b in _in_element_order(elements, leq):
            if a != b and (b, a) in leq:
                raise InvalidPoset(f"antisymmetry violation: {a!r} <= {b!r} <= {a!r}", cycle)
        return cls(elements, frozenset(leq))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.relation

    def comparable_pairs(self) -> list[tuple[str, str]]:
        """All (y, x) with y <= x, in element order."""
        return _in_element_order(self.elements, self.relation)

    @cached_property
    def above(self) -> dict[str, tuple[str, ...]]:
        """The elements strictly above each element, in element order."""
        return {a: tuple(b for b in self.elements if b != a and (a, b) in self.relation) for a in self.elements}

    def covers(self) -> list[tuple[str, str]]:
        """All (x, y) with x > y and nothing strictly between (x above no z above y), in element order."""
        above = self.above
        return _in_element_order(self.elements, [(x, y) for y in self.elements for x in above[y]
                                                 if not any(x in above[z] for z in above[y])])


def _in_element_order(elements: tuple[str, ...], pairs) -> list[tuple[str, str]]:
    """The pairs sorted by the positions of their members, so a report does not depend on
    the iteration order of a set."""
    pos = {e: i for i, e in enumerate(elements)}
    return sorted(pairs, key=lambda p: (pos[p[0]], pos[p[1]]))


def incidence_algebra(p: Poset) -> StructureConstantAlgebra:
    """Basis of comparable pairs, matrix-unit product, unit = sum of diagonals; a pair (a, b)
    is multiplied only with the pairs (b, c) that start at its end.  Not verified here."""
    pairs = p.comparable_pairs()
    index = {pair: i for i, pair in enumerate(pairs)}
    table = {(i, index[(b, c)]): index[(a, c)] for i, (a, b) in enumerate(pairs) for c in (b,) + p.above[b]}
    idem = {e: index[(e, e)] for e in p.elements}
    unit = {i: 1 for i in idem.values()}
    labels = tuple(f"e[{y},{x}]" for (y, x) in pairs)
    return StructureConstantAlgebra(labels, table, unit, idem)


@dataclass(frozen=True)
class OrderComplex:
    """Strict chains of the poset by dimension (0, 1, 2 are enough for H^0, H^1)."""

    simplices_by_dim: dict

    def n_simplices(self, dim: int) -> int:
        return len(self.simplices_by_dim.get(dim, []))


def order_complex(p: Poset) -> OrderComplex:
    """The chains a < b and a < b < c, read off the up-sets, each dimension sorted."""
    above = p.above
    edges = [(a, b) for a in p.elements for b in above[a]]
    triangles = [(a, b, c) for a, b in edges for c in above[b]]
    return OrderComplex({0: sorted((e,) for e in p.elements), 1: sorted(edges), 2: sorted(triangles)})


def _coboundary(complex_: OrderComplex, p: int) -> tuple[int, dict[int, Row]]:
    """The number of p-simplices and the rows of delta^p : C^p -> C^{p+1}, keyed by their
    (p+1)-simplex, with the alternating-sum face convention; a column is a p-simplex.
    Every face of a chain is a chain, and the faces of one chain are distinct."""
    lower = complex_.simplices_by_dim.get(p, [])
    col = {s: i for i, s in enumerate(lower)}
    return len(lower), {k: {col[sigma[:i] + sigma[i + 1 :]]: (-1) ** i for i in range(len(sigma))}
                        for k, sigma in enumerate(complex_.simplices_by_dim.get(p + 1, []))}


def simplicial_h_dim(c: OrderComplex, degree: int, prime: Optional[int] = None) -> int:
    """Cohomology dimension with field coefficients at degree 0 or 1."""
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    return cohomology_dims(lambda p: _coboundary(c, p), (degree,), prime)[degree]
