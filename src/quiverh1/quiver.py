"""Finite quivers (directed multigraphs), paths and structural predicates.

Paths compose diagram-style: ``compose(p, q)`` is "p then q".  All reported
slice dimensions elsewhere in the package follow the convention that the
(y, x) slice is spanned by the paths from x to y; dimensions are invariant
under the opposite convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from .errors import InfinitePathSet, InvalidQuiver

VertexId = str


@dataclass(frozen=True)
class Arrow:
    name: str
    source: VertexId
    target: VertexId


@dataclass(frozen=True)
class Quiver:
    """Vertices and arrows in insertion order; iteration order is deterministic.
    The arrows leaving and entering each vertex, and acyclicity, are computed once per quiver."""

    vertices: tuple[VertexId, ...]
    arrows: tuple[Arrow, ...]

    def __init__(self, vertices: Iterable[VertexId], arrows: Iterable[Arrow] = ()):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "arrows", tuple(arrows))

    @cached_property
    def successors(self) -> dict[VertexId, tuple[Arrow, ...]]:
        """The arrows leaving each vertex, in arrow order (an unknown source leaves none)."""
        out: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out.get(a.source, []).append(a)
        return {v: tuple(arrows) for v, arrows in out.items()}

    @cached_property
    def predecessors(self) -> dict[VertexId, tuple[Arrow, ...]]:
        """The arrows entering each vertex, in arrow order (an unknown target has none)."""
        into: dict[VertexId, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            into.get(a.target, []).append(a)
        return {v: tuple(arrows) for v, arrows in into.items()}

    @cached_property
    def acyclic(self) -> bool:
        return not reaches_cycle(self.vertices, lambda v: (a.target for a in self.successors[v]))


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence; an empty sequence is the trivial path at ``source``.
    Its arrow names are stored once, as ``arrow_names()``."""

    source: VertexId
    arrows: tuple[Arrow, ...] = ()

    def __init__(self, source: VertexId, arrows: Iterable[Arrow] = ()):
        arrows = tuple(arrows)
        if arrows:
            if arrows[0].source != source:
                raise ValueError(f"path source {source!r} does not match first arrow {arrows[0].name!r}")
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise ValueError(f"arrows {a.name!r} and {b.name!r} are not composable")
        self._fill(source, arrows, tuple(a.name for a in arrows))

    def _fill(self, source: VertexId, arrows: tuple[Arrow, ...], names: tuple[str, ...]) -> "Path":
        vars(self).update(source=source, arrows=arrows, _names=names)
        return self

    def _then(self, a: Arrow) -> "Path":
        """This path followed by arrow a, which must start at its target (not re-checked)."""
        return object.__new__(Path)._fill(self.source, self.arrows + (a,), self._names + (a.name,))

    @property
    def target(self) -> VertexId:
        return self.arrows[-1].target if self.arrows else self.source

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def arrow_names(self) -> tuple[str, ...]:
        return self._names

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self._names)

    def sort_key(self):
        return (len(self._names), self._names, self.source)


@dataclass(frozen=True)
class ParallelPair:
    """Two paths sharing both endpoints."""

    left: Path
    right: Path

    def __post_init__(self):
        if self.left.source != self.right.source or self.left.target != self.right.target:
            raise ValueError("members of a parallel pair must share source and target")


def trivial_path(v: VertexId) -> Path:
    return Path(v)


def arrow_path(a: Arrow) -> Path:
    return Path(a.source, (a,))


def validate(quiver: Quiver) -> Quiver:
    """Check all Quiver invariants; returns the quiver unchanged on success."""
    if not quiver.vertices:
        raise InvalidQuiver("empty vertex set")
    seen_v: set[str] = set()
    for v in quiver.vertices:
        if not v:
            raise InvalidQuiver("empty vertex name")
        if v in seen_v:
            raise InvalidQuiver(f"duplicate vertex name {v!r}")
        seen_v.add(v)
    seen_a: set[str] = set()
    for a in quiver.arrows:
        if not a.name:
            raise InvalidQuiver("empty arrow name")
        if a.name in seen_a:
            raise InvalidQuiver(f"duplicate arrow name {a.name!r}")
        seen_a.add(a.name)
        if a.source not in seen_v:
            raise InvalidQuiver(f"dangling endpoint: arrow {a.name!r} has unknown source {a.source!r}")
        if a.target not in seen_v:
            raise InvalidQuiver(f"dangling endpoint: arrow {a.name!r} has unknown target {a.target!r}")
    return quiver


def is_acyclic(quiver: Quiver) -> bool:
    """True iff no path of length >= 1 returns to its source (loops count as cycles)."""
    return quiver.acyclic


State = TypeVar("State", bound=Hashable)


def reaches_cycle(starts: Iterable[State], step: Callable[[State], Iterable[State]]) -> bool:
    """True iff some state reachable from ``starts`` can come back to itself under ``step``.

    One depth-first search enters each state once: a branch that steps onto one
    of its own states has found a cycle, and a state whose every continuation
    was searched is finished and never entered again.  ``Quiver.acyclic`` runs
    it on vertices, and ``presentations.basis_B`` on avoiding-path states.
    """
    done: set[State] = set()
    for start in starts:
        if start in done:
            continue
        branch: dict[State, None] = {start: None}  # the states of the current branch, in order
        stack = [iter(step(start))]
        while stack:
            for state in stack[-1]:
                if state in branch:
                    return True
                if state not in done:
                    branch[state] = None
                    stack.append(iter(step(state)))
                    break
            else:
                stack.pop()
                done.add(branch.popitem()[0])
    return False


def reaching(quiver: Quiver, targets: Iterable[VertexId]) -> set[VertexId]:
    """The vertices from which a path, trivial ones included, runs to one of the targets.
    A search for the paths from x parallel to the arrows leaving x need enter no other vertex."""
    found = set(targets)
    stack = list(found)
    while stack:
        for a in quiver.predecessors[stack.pop()]:
            if a.source not in found:
                found.add(a.source)
                stack.append(a.source)
    return found


def connected_components(quiver: Quiver) -> list[Quiver]:
    """Partition by the underlying undirected graph; components ordered by first vertex.
    One search labels each vertex with its component's first vertex, and one pass groups each."""
    neighbours: dict[str, list[str]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        neighbours[a.source].append(a.target)
        neighbours[a.target].append(a.source)
    first: dict[str, str] = {}
    for v in quiver.vertices:
        if v in first:
            continue
        first[v] = v
        stack = [v]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in first:
                    first[w] = v
                    stack.append(w)
    groups: dict[str, tuple[list[str], list[Arrow]]] = {v: ([], []) for v, root in first.items() if v == root}
    for v in quiver.vertices:
        groups[first[v]][0].append(v)
    for a in quiver.arrows:
        groups[first[a.source]][1].append(a)
    return [Quiver(vs, arrows) for vs, arrows in groups.values()]


def enumerate_paths(quiver: Quiver, max_length: Optional[int] = None) -> list[Path]:
    """All paths of length <= max_length (all paths when acyclic and unbounded).

    Trivial paths are included.  Output is ordered by (length, arrow names).
    """
    if max_length is None and not is_acyclic(quiver):
        raise InfinitePathSet("infinite path set: unbounded enumeration on a cyclic quiver")
    out = quiver.successors
    paths = [trivial_path(v) for v in quiver.vertices]
    frontier, length = paths, 0
    while frontier and (max_length is None or length < max_length):
        frontier = [p._then(a) for p in frontier for a in out[p.target]]
        paths.extend(frontier)
        length += 1
    paths.sort(key=Path.sort_key)
    return paths


def compose(p: Path, q: Path) -> Optional[Path]:
    """Concatenation "p then q", or None when the endpoints do not match (zero product)."""
    if p.target != q.source:
        return None
    return Path(p.source, p.arrows + q.arrows)


class PathBasis(tuple):
    """A sorted tuple of paths, keyed once for every reader: ``index[(source, names)]``
    is a path's position, ``between[(x, y)]`` the positions of the paths from x to y and
    ``starting[x]`` those of the paths from x, each in basis order.  Given a PathBasis,
    the constructor returns it, so no reader rebuilds the keys."""

    def __new__(cls, paths: Iterable[Path]):
        if isinstance(paths, PathBasis):
            return paths
        self = super().__new__(cls, paths)
        self.index = {(p.source, p._names): i for i, p in enumerate(self)}
        self.between: dict[tuple[VertexId, VertexId], list[int]] = {}
        self.starting: dict[VertexId, list[int]] = {}
        for i, p in enumerate(self):
            self.between.setdefault((p.source, p.target), []).append(i)
            self.starting.setdefault(p.source, []).append(i)
        return self

    def find(self, p: Path, q: Path) -> Optional[int]:
        """The position of the path "p then q" (q starts where p ends), or None."""
        return self.index.get((p.source, p._names + q._names))


def path_counts(quiver: Quiver, max_length: Optional[int] = None) -> list[dict[tuple[VertexId, VertexId], int]]:
    """counts[l][(x, y)] = the number of paths of length l from x to y (absent: none), for l
    up to max_length or the longest path.  Built layer by layer without listing a path, in
    O(L |Q0| |Q1|) for L layers; raises InfinitePathSet where ``enumerate_paths`` does."""
    if max_length is None and not is_acyclic(quiver):
        raise InfinitePathSet("infinite path set: unbounded enumeration on a cyclic quiver")
    out = quiver.successors
    counts = [{(v, v): 1 for v in quiver.vertices}]
    while max_length is None or len(counts) <= max_length:
        nxt: dict[tuple[VertexId, VertexId], int] = {}
        for (x, y), n in counts[-1].items():
            for a in out[y]:
                nxt[(x, a.target)] = nxt.get((x, a.target), 0) + n
        if not nxt:
            break
        counts.append(nxt)
    return counts
