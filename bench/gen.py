"""Workload documents for the benchmark, generated as text from a seed.

This module never imports quiverh1.  The make-up of each workload and every
expected value come from the benchmark's own path counts and closed forms,
so a change to the program cannot change what a workload contains or what
its output is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

FP_FIELD = "fp:10007"


@dataclass(frozen=True)
class Doc:
    """One CLI invocation: ``quiverh1 <command> --json --field <field> <file>``.

    ``dim_h1`` is an exact closed form, ``h1_min`` the lower bound
    1 - |Q0| + |Q1| of a connected acyclic monomial algebra, and
    ``dim_algebra`` the benchmark's own count of basis paths.
    """

    name: str
    command: str
    field: str
    text: str
    dim_h1: Optional[int] = None
    h1_min: Optional[int] = None
    dim_algebra: Optional[int] = None


# --- quivers as plain data: vertices, arrows (name, source, target) ---------


def quiver_text(name, vertices, arrows, relations=(), truncate=None) -> str:
    lines = [f"quiver {name}"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"arrow {a} {s} {t}" for a, s, t in arrows]
    lines += ["relation monomial " + " ".join(r) for r in relations]
    if truncate is not None:
        lines.append(f"relation truncate {truncate}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def paths(vertices, arrows, relations=(), max_length=None) -> list[tuple[str, ...]]:
    """Arrow-name sequences of all paths (trivial ones as ``()``, one per
    vertex) that avoid every relation and have at most ``max_length`` arrows.

    Terminates on an acyclic quiver, or whenever ``max_length`` is given or
    the relations bound the length of avoiding paths.
    """
    out = {v: [] for v in vertices}
    for a, s, t in arrows:
        out[s].append((a, t))
    gens = {tuple(r) for r in relations}
    lengths = sorted({len(g) for g in gens})
    found = []
    stack = [(v, ()) for v in reversed(vertices)]
    while stack:
        v, seq = stack.pop()
        found.append(seq)
        if max_length is not None and len(seq) >= max_length:
            continue
        for a, t in reversed(out[v]):
            nxt = seq + (a,)
            if any(nxt[-k:] in gens for k in lengths if k <= len(nxt)):
                continue
            stack.append((t, nxt))
    return found


def paths_of_length(vertices, arrows, m) -> list[tuple[str, ...]]:
    return [p for p in paths(vertices, arrows, max_length=m) if len(p) == m]


def _contains(hay: tuple, needle: tuple) -> bool:
    k = len(needle)
    return any(hay[i:i + k] == needle for i in range(len(hay) - k + 1))


def _components(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, t in edges:
        parent[root(s)] = root(t)
    return len({root(v) for v in vertices})


# --- families with closed forms ----------------------------------------------


def kronecker(n):
    return ["x", "y"], [(f"k{i}", "x", "y") for i in range(n)]


def fib_dag(n):
    """Vertices 0..n-1 with short arrows s_i: i -> i+1 and long arrows l_i: i -> i+2."""
    vertices = [f"v{i}" for i in range(n)]
    arrows = [(f"s{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    arrows += [(f"l{i}", f"v{i}", f"v{i + 2}") for i in range(n - 2)]
    return vertices, arrows


def cycle(n):
    vertices = [f"v{i}" for i in range(n)]
    return vertices, [(f"c{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


def _quiver_doc(name, command, field, vertices, arrows, relations=(), truncate=None,
                dim_h1=None, h1_min=None, count_basis=True) -> Doc:
    text = quiver_text(name, vertices, arrows, relations, truncate)
    dim_algebra = None
    if count_basis:
        max_length = None if truncate is None else truncate - 1
        dim_algebra = len(paths(vertices, arrows, relations, max_length))
    return Doc(name, command, field, text, dim_h1, h1_min, dim_algebra)


# --- small-check-q ---------------------------------------------------------------


def random_monomial(rng: random.Random, max_vertices=5, max_arrows=8):
    """A connected acyclic quiver and a minimal monomial ideal, drawn like the
    test suite's seeded generator (same vertex/arrow ranges, same 0.6 draw)."""
    while True:
        nv = rng.randint(2, max_vertices)
        na = rng.randint(nv - 1, max_arrows)
        vertices = [f"v{i}" for i in range(nv)]
        arrows = []
        for k in range(na):
            i = rng.randint(0, nv - 2)
            j = rng.randint(i + 1, nv - 1)
            arrows.append((f"a{k}", vertices[i], vertices[j]))
        if _components(vertices, [(s, t) for _, s, t in arrows]) == 1:
            break
    candidates = sorted((p for p in paths(vertices, arrows) if len(p) >= 2),
                        key=lambda p: (len(p), p))
    rng.shuffle(candidates)
    chosen: list[tuple[str, ...]] = []
    for p in candidates:
        if rng.random() < 0.6:
            if any(_contains(p, z) or _contains(z, p) for z in chosen):
                continue
            chosen.append(p)
    return vertices, arrows, chosen


# Documents per basis dimension d, in proportion to how often the drawing
# above gives each d (largest d about 1 in 1000 draws).  A fixed count per d
# keeps the work of a pass nearly the same from seed to seed.
MONOMIAL_QUOTA = {3: 5, 4: 6, 5: 10, 6: 11, 7: 12, 8: 14, 9: 15, 10: 16, 11: 11, 12: 10,
                  13: 10, 14: 9, 15: 5, 16: 5, 17: 3, 18: 2, 19: 2, 20: 1, 21: 1, 22: 1, 24: 1}


def small_check_q(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    want = dict(MONOMIAL_QUOTA)
    docs = []
    while any(want.values()):
        vertices, arrows, rels = random_monomial(rng)
        d = len(paths(vertices, arrows, rels))
        if not want.get(d):
            continue
        want[d] -= 1
        name = f"mono{len(docs):03d}-d{d}"
        docs.append(_quiver_doc(name, "check", "q", vertices, arrows, rels,
                                h1_min=1 - len(vertices) + len(arrows)))
    docs += posets(rng)
    rng.shuffle(docs)
    return docs


def poset_text(name, elements, covers=(), leq=()) -> str:
    lines = [f"poset {name}"]
    lines += [f"element {e}" for e in elements]
    lines += [f"covers {u} {l}" for u, l in covers]
    lines += [f"relation {a} <= {b}" for a, b in leq]
    lines.append("end")
    return "\n".join(lines) + "\n"


POSETS_PER_FAMILY = 14


def posets(rng: random.Random) -> list[Doc]:
    """Crowns (H1 = 1), height-one posets (H1 = #covers - #elements +
    #components, the cycle rank of the Hasse graph) and posets with a top
    element (H1 = 0, the order complex is a cone)."""
    docs = []
    for i in range(POSETS_PER_FAMILY):
        n = rng.randint(2, 4)
        lo = [f"m{k}" for k in range(n)]
        hi = [f"M{k}" for k in range(n)]
        covers = [(hi[k], lo[k]) for k in range(n)] + [(hi[k], lo[(k + 1) % n]) for k in range(n)]
        rng.shuffle(covers)
        docs.append(Doc(f"crown{i:02d}-n{n}", "poset", "q",
                        poset_text(f"crown{i:02d}", lo + hi, covers), dim_h1=1))
    for i in range(POSETS_PER_FAMILY):
        lo = [f"m{k}" for k in range(rng.randint(2, 4))]
        hi = [f"M{k}" for k in range(rng.randint(2, 4))]
        covers = [(u, l) for u in hi for l in lo if rng.random() < 0.6]
        elements = lo + hi
        h1 = len(covers) - len(elements) + _components(elements, covers)
        docs.append(Doc(f"height1-{i:02d}", "poset", "q",
                        poset_text(f"height1-{i:02d}", elements, covers), dim_h1=h1))
    for i in range(POSETS_PER_FAMILY):
        elements = [f"p{k}" for k in range(rng.randint(3, 6))]
        leq = [(a, b) for j, b in enumerate(elements) for a in elements[:j] if rng.random() < 0.4]
        leq += [(e, "top") for e in elements]
        rng.shuffle(leq)
        docs.append(Doc(f"top{i:02d}", "poset", "q",
                        poset_text(f"top{i:02d}", elements + ["top"], leq=leq), dim_h1=0))
    return docs


# --- ladder-check-fp -------------------------------------------------------------


def ladder_check_fp(seed: int) -> list[Doc]:
    """A fixed ladder for ``check --field fp:10007``; the seed only orders the
    documents.  Not a benchmark workload (see README.md): reference.py times
    it for the reference figures."""
    docs = []
    for n in range(2, 9):
        v, a = kronecker(n)
        docs.append(_quiver_doc(f"kronecker{n}", "check", FP_FIELD, v, a, dim_h1=n * n - 1))
    for n in (6, 7, 8):
        v, a = fib_dag(n)
        docs.append(_quiver_doc(f"fibdag{n}", "check", FP_FIELD, v, a, dim_h1=2 * n - 4))
    for n, m in ((8, 2), (9, 3), (10, 3)):
        v, a = fib_dag(n)
        docs.append(_quiver_doc(f"fibdag{n}-trunc{m}", "check", FP_FIELD, v, a, truncate=m,
                                dim_h1=n - 2 if m == 2 else 2 * n - 4))
    for n, m in ((6, 3), (10, 5), (16, 6)):
        v, a = cycle(n)
        docs.append(_quiver_doc(f"cycle{n}-trunc{m}", "check", FP_FIELD, v, a, truncate=m, dim_h1=1))
    random.Random(seed).shuffle(docs)
    return docs


# --- formula-large ---------------------------------------------------------------


def formula_large(seed: int) -> list[Doc]:
    """Presentations answered by the formulas alone, most beyond the oracle's
    reach.  The set is fixed; the seed only orders the documents."""
    docs = []

    def add(name, v, a, rels, dim_h1):
        docs.append(_quiver_doc(name, "formula", "q", v, a, rels, dim_h1=dim_h1, count_basis=False))

    for n in range(10, 19):
        v, a = fib_dag(n)
        add(f"fibdag{n}", v, a, (), 2 * n - 4)
    for n in (10, 12, 14):
        v, a = fib_dag(n)
        for k in (2, 3, 4):
            add(f"fibdag{n}-len{k}", v, a, paths_of_length(v, a, k), n - 2 if k == 2 else 2 * n - 4)
    for n in (10, 12, 14, 16):
        v, a = fib_dag(n)
        add(f"fibdag{n}-ss", v, a, [(f"s{i}", f"s{i + 1}") for i in range(n - 2)], n - 2)
    for n, m in ((6, 3), (8, 4), (9, 4), (10, 4), (10, 5), (12, 5), (16, 6)):
        v, a = cycle(n)
        add(f"cycle{n}-len{m}", v, a, paths_of_length(v, a, m), 1)
    for n, m in ((6, 3), (8, 4), (10, 5)):
        v, a = cycle(n)
        docs.append(_quiver_doc(f"cycle{n}-trunc{m}", "formula", "q", v, a, truncate=m,
                                dim_h1=1, count_basis=False))
    random.Random(seed).shuffle(docs)
    return docs


WORKLOADS = {
    "small-check-q": small_check_q,
    "formula-large": formula_large,
}
