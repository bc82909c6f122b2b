import random
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path as FsPath
from typing import Optional

import pytest
from hypothesis import settings

from quiverh1.errors import InvalidPoset, NotApplicable
from quiverh1.exactalg import BimoduleRep, _add, invariants_dim, rank, regular_bimodule
from quiverh1.formulas import H1Report, _per_component
from quiverh1.quiver import (
    Arrow, ParallelPair, Path, Quiver, VertexId, arrow_path, connected_components, is_acyclic,
    path_counts, trivial_path,
)
from quiverh1.presentations import (
    AlgebraPresentation, MonomialIdeal, StructureConstantAlgebra, _generator_spans, basis_B, check_minimal,
)
from quiverh1.simplicial import OrderComplex, Poset, _in_element_order

from poset_checks import validate_poset  # noqa: F401  (re-exported for the tests)

FIXTURE_DIR = FsPath(__file__).resolve().parents[1] / "fixtures"

# every property test is reproducible and untimed; each @settings gives only its max_examples
settings.register_profile("quiverh1", derandomize=True, database=None, deadline=None)
settings.load_profile("quiverh1")


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text()


# --- hand-built quivers used across modules ---


def a2():
    a = Arrow("a", "x", "y")
    return Quiver(["x", "y"], [a])


def a3():
    a = Arrow("a", "x", "y")
    b = Arrow("b", "y", "z")
    return Quiver(["x", "y", "z"], [a, b])


def kronecker(n: int) -> Quiver:
    return Quiver(["x", "y"], [Arrow(f"a{i}", "x", "y") for i in range(n)])


def cycle(n: int) -> Quiver:
    verts = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Quiver(verts, arrows)


def crown_quiver() -> Quiver:
    return Quiver(
        ["a", "b", "c", "d"],
        [Arrow("ac", "a", "c"), Arrow("ad", "a", "d"), Arrow("bc", "b", "c"), Arrow("bd", "b", "d")],
    )


def branch() -> Quiver:
    """1 --a--> 2 with two parallel arrows b, c from 2 to 3."""
    return Quiver(
        ["v1", "v2", "v3"],
        [Arrow("a", "v1", "v2"), Arrow("b", "v2", "v3"), Arrow("c", "v2", "v3")],
    )


def fib_dag(n: int) -> Quiver:
    """Vertices 0..n-1 with arrows i -> i+1 and i -> i+2: Fibonacci-many paths."""
    verts = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"s{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    arrows += [Arrow(f"l{i}", verts[i], verts[i + 2]) for i in range(n - 2)]
    return Quiver(verts, arrows)


def path_of(quiver: Quiver, *names: str) -> Path:
    by_name = {a.name: a for a in quiver.arrows}
    arrows = [by_name[n] for n in names]
    return Path(arrows[0].source, arrows)


def occurrences(p: Path, z: Path) -> list[int]:
    """Start indices of z's arrow sequence inside p's."""
    hay, needle = p.arrow_names(), z.arrow_names()
    if not needle or len(needle) > len(hay):
        return []
    return [i for i in range(len(hay) - len(needle) + 1) if hay[i : i + len(needle)] == needle]


def contains_generator(p: Path, Z: MonomialIdeal) -> bool:
    """True iff some generator occurs as a contiguous sub-path of p."""
    return bool(_generator_spans(p.arrow_names(), Z))


def parallel_pairs(lefts, rights) -> list[ParallelPair]:
    """All pairs (l, r) with matching source and matching target."""
    rights = list(rights)
    by_endpoints: dict[tuple[str, str], list[Path]] = {}
    for r in rights:
        by_endpoints.setdefault((r.source, r.target), []).append(r)
    pairs = []
    for l in lefts:
        for r in by_endpoints.get((l.source, l.target), ()):
            pairs.append(ParallelPair(l, r))
    return pairs


def glued_pairs(quiver: Quiver, B: list[Path]) -> list[ParallelPair]:
    """Couples (a, e) where a is the first or last arrow of e, or a loop at e's vertex."""
    out = []
    for pair in parallel_pairs([arrow_path(a) for a in quiver.arrows], B):
        a = pair.left.arrows[0]
        e = pair.right
        if e.is_trivial:
            if a.source == a.target and a.source == e.source:
                out.append(pair)
        elif e.arrows[0] == a or e.arrows[-1] == a:
            out.append(pair)
    return out


def substitutions(gamma: Path, a: Arrow, e: Path) -> list[Path]:
    """Paths obtained by replacing one occurrence of arrow a inside gamma by e."""
    out = []
    for i, arr in enumerate(gamma.arrows):
        if arr == a:
            out.append(Path(gamma.source, gamma.arrows[:i] + e.arrows + gamma.arrows[i + 1 :]))
    return out


def arrows_from(quiver: Quiver, v: str) -> list[Arrow]:
    return [a for a in quiver.arrows if a.source == v]


def multiply(alg, u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    """The product of two sparse combinations of basis elements of a structure-constant algebra."""
    out: dict[int, int] = {}
    for i, ci in u.items():
        for j, cj in v.items():
            k = alg.table.get((i, j))
            if k is not None:
                c = out.get(k, 0) + ci * cj
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
    return out


def product_basis(alg, i: int, j: int) -> dict[int, int]:
    """b_i * b_j as a sparse combination: {k: 1}, or {} when it is zero."""
    k = alg.table.get((i, j))
    return {} if k is None else {k: 1}


def h1_bound_monomial(quiver: Quiver, Z: MonomialIdeal) -> int:
    """The lower bound 1 - |Q0| + |Q1| for a connected acyclic monomial instance."""
    if len(connected_components(quiver)) != 1:
        raise NotApplicable("bound requires a connected quiver")
    if not is_acyclic(quiver):
        raise NotApplicable("bound requires an acyclic quiver")
    return 1 - len(quiver.vertices) + len(quiver.arrows)


def hasse_quiver(p: Poset) -> Quiver:
    """One arrow from x to y for each cover x > y."""
    arrows = [Arrow(f"{x}>{y}", x, y) for (x, y) in p.covers()]
    return Quiver(p.elements, arrows)


def is_narrow(quiver: Quiver) -> bool:
    """True iff every ordered vertex pair has at most one path (requires acyclicity)."""
    if not is_acyclic(quiver):
        raise NotApplicable("narrowness requires acyclicity")
    totals: Counter = Counter()
    for layer in path_counts(quiver):
        totals.update(layer)
    return all(n <= 1 for n in totals.values())


def h1_narrow(quiver: Quiver) -> H1Report:
    """1 - |Q0| + |Q1| per component; valid for any admissible monomial ideal."""
    if not is_narrow(quiver):
        raise NotApplicable("not narrow")
    per = _per_component(quiver, Counter(a.name for a in quiver.arrows))
    return H1Report(
        sum(d for _, d in per), "narrow", per,
        {"n_vertices": len(quiver.vertices), "n_arrows": len(quiver.arrows)},
    )


def quotient_bimodule(path_presentation: AlgebraPresentation, quotient: AlgebraPresentation) -> BimoduleRep:
    """The quotient algebra as a bimodule over the path algebra, from two presentations
    on the same quiver; the action is multiplication followed by projection onto the
    surviving basis paths, read off the quotient basis's concatenation lookup.
    """
    paths, quot = path_presentation.basis, quotient.basis
    left: list[dict] = [{} for _ in paths]
    right: list[dict] = [{} for _ in paths]
    for b, p in enumerate(paths):  # p . x_j
        for j in quot.starting.get(p.target, ()):
            k = quot.find(p, quot[j])
            if k is not None:
                left[b][j] = k
    for j, x in enumerate(quot):  # x_j . p
        for b in paths.starting.get(x.target, ()):
            k = quot.find(x, paths[b])
            if k is not None:
                right[b][j] = k
    return BimoduleRep(path_presentation.algebra, len(quot), tuple(left), tuple(right)).validate()


# --- the invariant system that the closed-path centre count replaced ----------


def center_dim(algebra: StructureConstantAlgebra, prime: Optional[int] = None) -> int:
    return invariants_dim(regular_bimodule(algebra), prime=prime)


# --- the all-pairs derivation system that the separated-pair one replaced -------


def reference_derivation_space_dim(x: BimoduleRep, prime: Optional[int] = None) -> int:
    """Dimension of the derivations into x, with the Leibniz rows of all d^2 basis pairs,
    each pair's forced-zero rows included."""
    alg = x.algebra
    d, dx = alg.dimension, x.dim

    def rows():
        for i in range(d):
            li = x.left[i]
            for j in range(d):
                rj = x.right[j]
                k = alg.table.get((i, j))
                by_row: dict[int, dict] = {} if k is None else {m: {k * dx + m: 1} for m in range(dx)}
                for jj, m in li.items():
                    _add(by_row, m, j * dx + jj, -1)
                for jj, m in rj.items():
                    _add(by_row, m, i * dx + jj, -1)
                yield from (r for r in by_row.values() if r)

    return d * dx - rank(rows(), prime=prime)


# --- the all-pairs poset and component routes that the up-set ones replaced ----


def reference_from_pairs(elements, pairs) -> Poset:
    """The fixpoint closure: re-scan the pairs until no composite is missing."""
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
    return Poset(elements, frozenset(leq))


def reference_covers(p: Poset) -> list[tuple[str, str]]:
    """All (x, y) with x > y and nothing strictly between, testing every pair."""
    out = []
    for x in p.elements:
        for y in p.elements:
            if x == y or not p.leq(y, x):
                continue
            if any(z != x and z != y and p.leq(y, z) and p.leq(z, x) for z in p.elements):
                continue
            out.append((x, y))
    return out


def reference_order_complex(p: Poset) -> OrderComplex:
    """Strict chains from every pair, and from every ordering of every triple."""
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


def reference_incidence_table(p: Poset) -> dict[tuple[int, int], int]:
    """The matrix-unit products of the comparable pairs, testing all d^2 pairs of pairs."""
    pairs = p.comparable_pairs()
    index = {pair: i for i, pair in enumerate(pairs)}
    table = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                table[(i, j)] = index[(a, d)]
    return table


def reference_connected_components(quiver: Quiver) -> list[Quiver]:
    """Components by a search from each unassigned vertex, each re-scanning every vertex
    and arrow."""
    neighbours: dict[str, set[str]] = {v: set() for v in quiver.vertices}
    for a in quiver.arrows:
        neighbours[a.source].add(a.target)
        neighbours[a.target].add(a.source)
    assigned: dict[str, int] = {}
    comp_order: list[list[str]] = []
    for v in quiver.vertices:
        if v in assigned:
            continue
        comp = len(comp_order)
        members: list[str] = []
        stack = [v]
        assigned[v] = comp
        while stack:
            u = stack.pop()
            members.append(u)
            for w in neighbours[u]:
                if w not in assigned:
                    assigned[w] = comp
                    stack.append(w)
        comp_order.append(members)
    result = []
    for members in comp_order:
        vset = set(members)
        verts = tuple(v for v in quiver.vertices if v in vset)
        arrs = tuple(a for a in quiver.arrows if a.source in vset)
        result.append(Quiver(verts, arrs))
    return result


# --- the standard cochain complex that the E-relative bar complex replaced ----


def _full_bar_coboundary_rows(x, n: int):
    """Sparse rows of the coboundary C^n -> C^{n+1} of the standard cochain complex.

    C^n = Hom(Lambda^(tensor n), X); an unknown of C^n is (b_1, ..., b_n, m)
    flattened in lexicographic order; a row is one component of the value on an
    (n+1)-tuple of basis elements.
    """
    alg = x.algebra
    d, dx = alg.dimension, x.dim

    def unk(tup: tuple[int, ...], m: int) -> int:
        idx = 0
        for b in tup:
            idx = idx * d + b
        return idx * dx + m

    def tuples(k: int):
        if k == 0:
            yield ()
            return
        for t in tuples(k - 1):
            for b in range(d):
                yield t + (b,)

    rows = []
    for args in tuples(n + 1):
        by_row: dict = {}
        # a_1 . f(a_2, ..., a_{n+1})
        first, rest = args[0], args[1:]
        for j, m in x.left[first].items():
            _add(by_row, m, unk(rest, j), 1)
        # alternating inner terms f(..., a_i a_{i+1}, ...)
        sign = -1
        for i in range(n):
            k = alg.table.get((args[i], args[i + 1]))
            if k is not None:
                tup = args[:i] + (k,) + args[i + 2 :]
                for m in range(dx):
                    _add(by_row, m, unk(tup, m), sign)
            sign = -sign
        # (-1)^{n+1} f(a_1, ..., a_n) . a_{n+1}
        last_sign = -1 if (n + 1) % 2 else 1
        head = args[:n]
        for j, m in x.right[args[-1]].items():
            _add(by_row, m, unk(head, j), last_sign)
        rows.extend(r for r in by_row.values() if r)
    return rows


def reference_bar_rows(x) -> list:
    """The coboundaries C^0 -> C^1, C^1 -> C^2 and C^2 -> C^3 of the standard complex."""
    return [_full_bar_coboundary_rows(x, n) for n in range(3)]


def reference_bar_dims(x, prime: Optional[int] = None, rows: Optional[list] = None) -> dict[int, int]:
    """H^0, H^1 and H^2 with coefficients in x from the standard complex, with
    dim C^n = d^n * dim x; rows, when given, are ``reference_bar_rows(x)``."""
    d = x.algebra.dimension
    ranks = [0] + [rank(r, prime=prime) for r in rows or reference_bar_rows(x)]
    return {n: d**n * x.dim - ranks[n + 1] - ranks[n] for n in range(3)}


# --- the avoidance automaton that basis_B's cycle detection replaced ----------
#
# States are (vertex, window of the last max_len-1 arrow names).  A transition
# is blocked when it would complete a generator occurrence ending at the new
# arrow.  The set of Z-avoiding paths is finite iff the reachable state graph
# has no directed cycle.

_State = tuple[VertexId, tuple[str, ...]]


def _automaton(quiver: Quiver, Z: MonomialIdeal):
    keep = max(Z.max_generator_length - 1, 0)
    out = quiver.successors

    def step(state: _State, a: Arrow) -> Optional[_State]:
        seq = state[1] + (a.name,)
        if any(seq[-n:] in Z.names for n in Z.lengths if n <= len(seq)):
            return None
        return (a.target, seq[-keep:] if keep else ())

    edges: dict[_State, list[_State]] = {}
    starts = [(v, ()) for v in quiver.vertices]
    stack = list(starts)
    while stack:
        st = stack.pop()
        if st in edges:
            continue
        succ = []
        for a in out[st[0]]:
            nxt = step(st, a)
            if nxt is not None:
                succ.append(nxt)
        edges[st] = succ
        stack.extend(s for s in succ if s not in edges)
    return starts, edges


def max_avoiding_length(quiver: Quiver, Z: MonomialIdeal) -> Optional[int]:
    """Length of the longest Z-avoiding path, or None when avoiding paths are unbounded."""
    starts, edges = _automaton(quiver, Z)
    # Kahn's algorithm on the reachable state graph; leftover nodes mean a cycle.
    indeg = {s: 0 for s in edges}
    for succ in edges.values():
        for n in succ:
            indeg[n] += 1
    order: list[_State] = [s for s in edges if indeg[s] == 0]
    i = 0
    while i < len(order):
        for n in edges[order[i]]:
            indeg[n] -= 1
            if indeg[n] == 0:
                order.append(n)
        i += 1
    if len(order) < len(edges):
        return None
    depth = {s: 0 for s in edges}
    for s in reversed(order):
        for n in edges[s]:
            depth[s] = max(depth[s], 1 + depth[n])
    return max((depth[s] for s in starts), default=0)


def dp_path_count(quiver: Quiver) -> int:
    """Independent oracle: total path count on an acyclic quiver by dynamic
    programming over a topological order (counts trivial paths too)."""
    indeg = {v: 0 for v in quiver.vertices}
    for a in quiver.arrows:
        indeg[a.target] += 1
    order = [v for v in quiver.vertices if indeg[v] == 0]
    i = 0
    while i < len(order):
        for a in arrows_from(quiver, order[i]):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                order.append(a.target)
        i += 1
    assert len(order) == len(quiver.vertices), "dp oracle needs an acyclic quiver"
    # paths_from[v] counts paths starting at v
    paths_from = {v: 1 for v in quiver.vertices}
    for v in reversed(order):
        paths_from[v] = 1 + sum(paths_from[a.target] for a in arrows_from(quiver, v))
    return sum(paths_from.values())


# --- random instance generation (seeded, deterministic) ---


def random_connected_dag(rng: random.Random, max_vertices: int = 5, max_arrows: int = 8) -> Quiver:
    while True:
        nv = rng.randint(2, max_vertices)
        na = rng.randint(nv - 1, max_arrows)
        verts = [f"v{i}" for i in range(nv)]
        arrows = []
        for k in range(na):
            i = rng.randint(0, nv - 2)
            j = rng.randint(i + 1, nv - 1)
            arrows.append(Arrow(f"a{k}", verts[i], verts[j]))
        q = Quiver(verts, arrows)
        if len(connected_components(q)) == 1:
            return q


def random_minimal_ideal(rng: random.Random, quiver: Quiver) -> MonomialIdeal:
    from quiverh1.quiver import enumerate_paths

    candidates = [p for p in enumerate_paths(quiver) if p.length >= 2]
    rng.shuffle(candidates)
    chosen: list[Path] = []
    for p in candidates:
        if rng.random() < 0.6:
            if any(occurrences(p, z) or occurrences(z, p) for z in chosen):
                continue
            chosen.append(p)
    return check_minimal(chosen)


def random_monomial_instances(seed: int, count: int, max_dim: int = 30):
    """Connected acyclic quivers with minimal monomial ideals, algebra dim <= max_dim."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = random_connected_dag(rng)
        Z = random_minimal_ideal(rng, q)
        if len(basis_B(q, Z)) <= max_dim:
            out.append((q, Z))
    return out


@pytest.fixture(scope="session")
def monomial_instances():
    return random_monomial_instances(seed=20260823, count=100)
