"""Exact linear algebra and brute-force Hochschild oracles.

Everything runs over the exact rationals by default; a prime-field mode
(``prime=p``) exists as a cross-check and for speed.  All cohomology
dimensions are obtained from exact ranks of sparse coboundary/Leibniz
systems, never from floating point.  H^1 is found twice, from unrelated
systems: derivations modulo inner ones on all of the algebra (``h1_oracle``),
and the E-relative normalised bar complex on chains of radical basis
elements (``bar_cohomology_dims``, degrees 0-2).  It and the order complex of
``simplicial`` count H^n with ``cohomology_dims``, which checks delta . delta = 0.

Sparse conventions: a matrix row is a dict column -> nonzero scalar.  An
algebra multiplies basis elements to a basis element or zero, so the action
of a basis element on a bimodule is an index map m -> n (x_m goes to x_n;
absent m goes to zero).  Scalars are ints, read as rationals over Q and
reduced mod p over a prime field; ranks over Q come from fraction-free
integer elimination, so no rational number is ever formed.  ``rank`` reads
its rows once and sets unit rows (one nonzero entry) aside before it
eliminates, so a caller may generate a system row by row, as
``derivation_space_dim`` does, rather than hold it whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Optional

from .errors import ComplexFault, NotApplicable
from .presentations import Combo, StructureConstantAlgebra, composite_failures
from .quiver import VertexId

Row = dict  # column -> scalar


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, 2017); 12 bases only below 3.18e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_TEST_BOUND (deterministic Miller-Rabin)."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"modulus {n} is too large for the exact primality test (limit {PRIME_TEST_BOUND})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for b in _MR_BASES:
        x = pow(b, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rank(rows: Iterable[Row], prime: Optional[int] = None) -> int:
    """Rank of integer rows by sparse fraction-free elimination, over Q or GF(prime).

    The rows are read once, so any iterable will do, and are left unchanged.
    Unit rows are set aside first: a row with one nonzero entry (mod prime)
    puts the unit vector of its column in the row space, so its column joins
    the set ``unit``.  Every other row is copied once, as it is read, without
    its zero entries (mod prime), so a streamed row is never held twice.
    Once all are read the unit columns are deleted from the copies in place;
    a copy left with one entry adds its column in turn, deleted from the
    other copies, until no column is added.  The rank is len(unit) plus the
    rank of what is left.

    That rest is eliminated with pivot rows keyed by their leading (minimum)
    column, so reducing a new row only ever introduces larger columns and
    terminates.  A pivot is stored as its leading entry and the tuple of its
    other entries.  Over Q a row is divided by the gcd of its entries (signed
    so that the leading entry is positive) before it becomes a pivot, and
    reducing a row by a pivot with leading entry a replaces it by
    (a/g)*row - (row[c]/g)*pivot, g = gcd(a, row[c]); entries stay integers.
    Over GF(prime) a pivot is scaled once to leading entry 1, so a reduction
    is one multiply-subtract; prime must be prime.
    """
    unit: set = set()  # columns whose unit vector is in the row space
    rest: list[Row] = []  # a copy of each longer row, without its zero entries
    for row in rows:
        if len(row) == 1:
            for c, v in row.items():
                if v % prime if prime else v:
                    unit.add(c)
        elif row:
            rest.append({c: v % prime for c, v in row.items() if v % prime} if prime
                        else {c: v for c, v in row.items() if v})
    new = unit
    while True:
        for row in rest:
            for c in new.intersection(row):
                del row[c]
        new = {c for row in rest if len(row) == 1 for c in row}
        if not new:
            break
        unit |= new
        rest = [row for row in rest if len(row) > 1]
    pivots: dict = {}  # leading col -> (leading entry, ((col, entry), ...))
    for row in rest:
        while row:
            c = min(row)
            f = row.pop(c)
            piv = pivots.get(c)
            if piv is None:
                if prime:
                    inv = pow(f, -1, prime)
                    pivots[c] = (1, tuple((k, v * inv % prime) for k, v in row.items()))
                else:
                    g = gcd(f, *row.values())
                    if f < 0:
                        g = -g
                    pivots[c] = (f // g, tuple((k, v // g) for k, v in row.items()))
                break
            lead, tail = piv
            if lead != 1:  # only over Q
                g = gcd(lead, f)
                lead, f = lead // g, f // g
                if lead != 1:
                    for k in row:
                        row[k] *= lead
            for pc, pv in tail:
                nv = row.get(pc, 0) - f * pv
                if prime:
                    nv %= prime
                if nv:
                    row[pc] = nv
                else:
                    del row[pc]
    return len(unit) + len(pivots)


def cohomology_dims(coboundary: Callable[[int], tuple[int, dict[int, Row]]], degrees: tuple[int, ...],
                    prime: Optional[int] = None) -> dict[int, int]:
    """dim H^n = dim C^n - rank delta^n - rank delta^(n-1) at each of the degrees, where
    ``coboundary(n)`` gives dim C^n and the rows of delta^n keyed by their C^(n+1) index.
    Each coboundary needed is built and ranked once.  When delta^(n-1) and delta^n are both
    built, their composite is computed over the integers, whatever the field, and its first
    nonzero entry (least row, then least column) raises ComplexFault."""
    dims, ranks, lower = {}, {-1: 0}, {}
    for n in sorted({m for n in degrees for m in (n - 1, n) if m >= 0}):
        dims[n], rows = coboundary(n)
        for r in sorted(rows) if n - 1 in dims else ():
            acc: dict[int, int] = {}
            for k, v in rows[r].items():
                for c, w in lower.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            if bad := sorted(c for c, v in acc.items() if v):
                raise ComplexFault(f"delta^{n} . delta^{n - 1} is not zero: entry ({r}, {bad[0]}) is {acc[bad[0]]}")
        ranks[n], lower = rank(rows.values(), prime=prime), rows
    return {n: dims[n] - ranks[n] - ranks[n - 1] for n in degrees}


# --- bimodules ---------------------------------------------------------------


def _combo(ops, combo: Combo) -> dict:
    """The operator sum of c * ops[k] over combo, as {(m, n): nonzero coefficient}."""
    out: dict = {}
    for k, c in combo.items():
        for mn in ops[k].items():
            out[mn] = out.get(mn, 0) + c
    return {mn: c for mn, c in out.items() if c}


@dataclass(frozen=True)
class BimoduleRep:
    """A bimodule over a structure-constant algebra, via index-map actions.

    ``left[b][m] = n`` means b.x_m = x_n and ``right[b][m] = n`` means
    x_m.b = x_n; absent keys mean zero.
    """

    algebra: StructureConstantAlgebra
    dim: int
    left: tuple
    right: tuple

    def validate(self) -> "BimoduleRep":
        """Assert both actions are homomorphisms that commute and the unit acts as 1.

        Each test at a pair (i, j) compares two index maps entry by entry, so it is
        a statement about the triples (i, j, m): b_i.(b_j.x_m) = (b_i b_j).x_m
        (left), (x_m.b_i).b_j = x_m.(b_i b_j) (right) and b_i.(x_m.b_j) =
        (b_i.x_m).b_j (commute).  The first two are ``composite_failures`` of each
        action, the right one on the opposite table; commuting is compared on the
        triples where an image n of one map is in the domain of the other, the only
        ones where a side is nonzero.  The least failing (i, j, test), left before
        right before commute, is the first failure of the loop over all d^2 pairs."""
        alg = self.algebra
        left_at: dict[int, list[int]] = {}  # n -> every b with n in the domain of left[b]
        right_at: dict[int, list[int]] = {}  # likewise for right[b]
        for at, ops in ((left_at, self.left), (right_at, self.right)):
            for b, op in enumerate(ops):
                for n in op:
                    at.setdefault(n, []).append(b)
        left, right = self.left, self.right
        failures = [(i, j, 0) for i, j, _ in composite_failures(left, alg.table)]
        failures += [(i, j, 1) for j, i, _ in composite_failures(right, alg.opposite().table)]
        failures += [(i, j, 2) for j, op in enumerate(right) for m, n in op.items() for i in left_at.get(n, ())
                     if left[i][n] != right[j].get(left[i].get(m))]
        failures += [(i, j, 2) for i, op in enumerate(left) for m, n in op.items() for j in right_at.get(n, ())
                     if left[i].get(right[j].get(m)) != right[j][n]]
        if failures:
            i, j, test = min(failures)
            raise AssertionError(("left action is not a homomorphism at ({}, {})", "right action fails at ({}, {})",
                                  "actions do not commute at ({}, {})")[test].format(i, j))
        ident = {(m, m): 1 for m in range(self.dim)}
        if _combo(self.left, alg.unit) != ident or _combo(self.right, alg.unit) != ident:
            raise AssertionError("unit does not act as identity")
        return self

    @cached_property
    def _bar_frame(self) -> tuple[dict, dict, dict, dict]:
        """What every degree of the E-relative complex reads, found once per bimodule:
        the target vertex of each basis element, the x_m in each slice e_s X e_t, the
        position of each x_m in its slice and the non-idempotent basis elements starting
        at each vertex.  Endpoints of the basis are read off the table (e_s b = b = b e_t),
        and the slice of x_m off the idempotents' actions.  Raises NotApplicable when a
        product of two non-idempotent basis elements is an idempotent."""
        alg, vertex = self.algebra, {e: v for v, e in self.algebra.vertex_idempotents.items()}
        src = {j: vertex[i] for (i, j), k in alg.table.items() if i in vertex and k == j}
        tgt = {i: vertex[j] for (i, j), k in alg.table.items() if j in vertex and k == i}
        for (i, j), k in alg.table.items():
            if k in vertex and i not in vertex and j not in vertex:
                raise NotApplicable(f"the product of {alg.basis[i]} and {alg.basis[j]} is an idempotent")
        slices = {(s, t): sorted(self.left[es].keys() & self.right[et].keys())  # the x_m in e_s X e_t
                  for es, s in vertex.items() for et, t in vertex.items()}
        pos = {m: p for group in slices.values() for p, m in enumerate(group)}
        starting: dict[VertexId, list[int]] = {}
        for b in sorted(src.keys() - vertex.keys()):
            starting.setdefault(src[b], []).append(b)
        return tgt, slices, pos, starting


def regular_bimodule(algebra: StructureConstantAlgebra) -> BimoduleRep:
    """The algebra as a bimodule over itself."""
    d = algebra.dimension
    left: list[dict] = [{} for _ in range(d)]
    right: list[dict] = [{} for _ in range(d)]
    for (i, j), k in algebra.table.items():
        left[i][j] = k
        right[j][i] = k
    return BimoduleRep(algebra, d, tuple(left), tuple(right)).validate()


# --- oracles -----------------------------------------------------------------


def _add(by_row: dict[int, Row], m: int, u: int, c: int) -> None:
    """Add c at column u of row m, dropping the entry when it cancels."""
    r = by_row.setdefault(m, {})
    nv = r.get(u, 0) + c
    if nv:
        r[u] = nv
    else:
        r.pop(u, None)


def invariants_dim(x: BimoduleRep, prime: Optional[int] = None) -> int:
    """dim {v : b.v = v.b for all basis b}; this is H^0 with coefficients in x."""
    rows: list[Row] = []
    for b in range(x.algebra.dimension):
        # row group: (L(b) - R(b)) v = 0
        by_row: dict[int, Row] = {}
        for j, m in x.left[b].items():
            _add(by_row, m, j, 1)
        for j, m in x.right[b].items():
            _add(by_row, m, j, -1)
        rows.extend(r for r in by_row.values() if r)
    return x.dim - rank(rows, prime=prime)


def derivation_space_dim(x: BimoduleRep, prime: Optional[int] = None) -> int:
    """Dimension of linear maps f with f(ab) = a.f(b) + f(a).b on all basis pairs.

    Lemma: call (b_i, b_j) separated when some basis idempotents e, f (b.b = b)
    have b_i.e = b_i, f.b_j = b_j and e.f = 0.  If f is Leibniz at (b_i, e), at
    (f, b_j) and at (e, f), it is Leibniz at (b_i, b_j).  Proof: b_i b_j = b_i e f b_j
    = 0.  Leibniz at (b_i, e) times b_j gives f(b_i).b_j = b_i.f(e).b_j, as
    e b_j = e f b_j = 0; likewise b_i.f(b_j) = b_i.f(f).b_j.  Their sum is
    b_i.(e.f(e).f + e.f(f).f).b_j, and e.f(e).f + e.f(f).f = e.f(e f).f = 0 is
    Leibniz at (e, f) times e on the left and f on the right.  A pair with a
    nonzero product is never separated, so (b_i, e) and (f, b_j) are kept, and so
    is every pair of idempotents.  Precondition: the bimodule axioms, which
    ``validate`` checks.  On path, monomial, truncated and incidence algebras a
    pair is separated exactly when t(b_i) != s(b_j).  Separation is tested once per
    pair of groups: the basis grouped by its right and by its left idempotents.

    Unknowns f[b][m] are indexed b * dim(x) + m.  Rows stream into ``rank`` pair by
    pair, except that the unknowns forced to zero, by a row with one entry +-1 or as
    f[k][m] where a pair of product b_k has no action term on row m, come once each:
    the first as it is found, remembered to skip repeats, and the second at the end,
    not gathered into a set beside the one ``rank`` keeps.
    """
    alg = x.algebra
    d, dx = alg.dimension, x.dim
    idems = {b for b in range(d) if alg.table.get((b, b)) == b}
    right_of: list[set[int]] = [set() for _ in range(d)]  # the idempotents e with b.e = b
    left_of: list[set[int]] = [set() for _ in range(d)]  # the idempotents f with f.b = b
    for (i, j), k in alg.table.items():
        if j in idems and k == i:
            right_of[i].add(j)
        if i in idems and k == j:
            left_of[j].add(i)
    by_right: dict[frozenset, list[int]] = {}
    by_left: dict[frozenset, list[int]] = {}
    for b in range(d):
        by_right.setdefault(frozenset(right_of[b]), []).append(b)
        by_left.setdefault(frozenset(left_of[b]), []).append(b)

    def rows():
        touched: dict[int, set[int]] = {}  # k -> the rows m touched by every pair of product b_k
        forced: set[int] = set()
        for es, group_i in by_right.items():
            for fs, group_j in by_left.items():
                lefts, rights = group_i, group_j
                if any((e, f) not in alg.table for e in es for f in fs):  # separated
                    lefts, rights = [i for i in lefts if i in idems], [j for j in rights if j in idems]
                for i in lefts:
                    for j in rights:
                        by_row: dict[int, Row] = {}
                        for jj, m in x.left[i].items():
                            _add(by_row, m, j * dx + jj, -1)
                        for jj, m in x.right[j].items():
                            _add(by_row, m, i * dx + jj, -1)
                        k = alg.table.get((i, j))
                        if k is not None:
                            for m in by_row:
                                _add(by_row, m, k * dx + m, 1)
                            touched[k] = by_row.keys() & touched.get(k, by_row.keys())
                        for r in by_row.values():
                            if len(r) == 1 and abs(next(iter(r.values()))) == 1:
                                if not forced.issuperset(r):
                                    forced.update(r)
                                    yield r
                            elif r:
                                yield r
        yield from ({c: 1} for k, ms in touched.items() for m in range(dx) if m not in ms
                    if (c := k * dx + m) not in forced)

    return d * dx - rank(rows(), prime=prime)


def inner_dim(x: BimoduleRep, prime: Optional[int] = None) -> int:
    """dim of inner derivations ad_v; the kernel of v -> ad_v is the invariant space."""
    return x.dim - invariants_dim(x, prime=prime)


def h1_oracle(x: BimoduleRep, prime: Optional[int] = None) -> int:
    """Derivations modulo inner derivations."""
    return derivation_space_dim(x, prime=prime) - inner_dim(x, prime=prime)


# --- bar complex -------------------------------------------------------------


def _bar_coboundary_rows(x: BimoduleRep, n: int) -> tuple[int, dict[int, Row]]:
    """dim C^n and the sparse rows, keyed by their C^{n+1} index, of the coboundary
    C^n -> C^{n+1} of the E-relative normalised complex C^n = Hom_{E-E}(r^(tensor_E n), X).

    An unknown of C^n is a chain (s, r_1 ... r_n, t) of non-idempotent basis elements
    from s to t (the empty chain at v when n = 0) and an x_m in the slice e_s X e_t.  A
    row is one component of the value on a chain a_1 ... a_{n+1}: a_1.f(a_2, ...) +
    sum (-1)^i f(..., a_i a_{i+1}, ...) + (-1)^(n+1) f(..., a_n).a_{n+1}, where a term
    whose product is zero is dropped.  The rows come in the order of the chains of
    C^{n+1}, so a running offset gives each its index.  What the degrees share is the
    bimodule's ``_bar_frame``, found once.
    """
    alg = x.algebra
    tgt, slices, pos, starting = x._bar_frame
    chains = [(v, (), v) for v in alg.vertex_idempotents]
    for _ in range(n):
        chains = [(s, c + (b,), tgt[b]) for s, c, t in chains for b in starting.get(t, ())]
    offset, cols = {}, 0
    for s, c, t in chains:
        offset[(s, c, t)] = cols
        cols += len(slices[(s, t)])
    rows: dict[int, Row] = {}
    upper = 0  # the C^{n+1} index of the first x_m on the chain a_1 ... a_{n+1}
    for s, c, t in chains:
        for b in starting.get(t, ()):
            args, end = c + (b,), tgt[b]
            # a term: the action applied to f's value (None: none), the chain f is read on, the sign
            terms = [(x.left[args[0]], (tgt[args[0]], args[1:], end), 1)]
            for i in range(n):
                k = alg.table.get((args[i], args[i + 1]))
                if k is not None:
                    terms.append((None, (s, args[:i] + (k,) + args[i + 2 :], end), (-1) ** (i + 1)))
            terms.append((x.right[b], (s, c, t), (-1) ** (n + 1)))
            by_row: dict[int, Row] = {}
            for op, key, sign in terms:
                for j in slices[(key[0], key[2])]:
                    m = j if op is None else op.get(j)
                    if m is not None:
                        _add(by_row, m, offset[key] + pos[j], sign)
            rows.update((upper + pos[m], r) for m, r in by_row.items() if r)
            upper += len(slices[(s, end)])
    return cols, rows


def bar_cohomology_dims(x: BimoduleRep, degrees: tuple[int, ...], prime: Optional[int] = None) -> dict[int, int]:
    """Hochschild cohomology at each of the degrees (0, 1 or 2), by ``cohomology_dims``
    on the E-relative normalised complex.  The CLI asks for degrees 0 and 1; degree 2
    also builds delta^2, on the chains of length 3.

    Theorem (Happel 1989; Cibils 2000): E = kQ_0 is separable over every field, so
    for Lambda = E + r the complex Hom_{E-E}(r^(tensor_E n), X) computes HH^n(Lambda, X).
    Precondition, raised as NotApplicable when it fails: r, the span of the
    non-idempotent basis elements, is closed under products, that is no product of
    two of them is an idempotent.  It holds for path, monomial, truncated and
    incidence algebras.
    """
    if not set(degrees) <= {0, 1, 2}:
        raise ValueError("degree must be 0, 1 or 2")
    return cohomology_dims(lambda n: _bar_coboundary_rows(x, n), degrees, prime=prime)


def bar_cohomology_dim(x: BimoduleRep, degree: int, prime: Optional[int] = None) -> int:
    """Hochschild cohomology at degree 0, 1 or 2 from the E-relative normalised complex."""
    return bar_cohomology_dims(x, (degree,), prime=prime)[degree]
