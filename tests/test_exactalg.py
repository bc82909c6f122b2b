import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverh1.cli import parse
from quiverh1.errors import ComplexFault, InfiniteBasis, NotApplicable
from quiverh1.exactalg import (
    BimoduleRep,
    bar_cohomology_dim,
    bar_cohomology_dims,
    cohomology_dims,
    derivation_space_dim,
    h1_oracle,
    inner_dim,
    invariants_dim,
    is_prime,
    rank,
    regular_bimodule,
)
from quiverh1.formulas import classify_and_compute
from quiverh1.presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    StructureConstantAlgebra,
    TruncationIdeal,
    build_algebra,
)
from quiverh1.quiver import Arrow, Quiver, compose
from quiverh1.simplicial import Poset, incidence_algebra

from conftest import (
    FIXTURE_DIR, a2, a3, branch, center_dim, cycle, fib_dag, fixture_text, kronecker, path_of, product_basis,
    quotient_bimodule, random_connected_dag, random_minimal_ideal, random_monomial_instances, reference_bar_dims,
    reference_bar_rows, reference_derivation_space_dim,
)
from test_presentations import (
    IDEMPOTENT_MUTATIONS, _outcome, _seeded_algebra, admissible_cycle_presentation, mutate_idempotents,
    random_cycle_instance, truncated_cycles,
)
from test_simplicial import _random_poset


def semisimple(n: int):
    """k^n as the path algebra of n isolated vertices."""
    return build_algebra(AlgebraPresentation(Quiver([f"p{i}" for i in range(n)], [])))


def test_rank_basics():
    assert rank([{0: 1}, {1: 1}, {2: 1}]) == 3
    assert rank([{}, {}]) == 0
    assert rank([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]) == 1


def test_kernel_dim_basics():
    # the kernel dimension is cols - rank
    assert 3 - rank([{0: 1}, {1: 1}, {2: 1}]) == 0
    assert 5 - rank([{}, {}]) == 5
    assert 2 - rank([{0: 1, 1: 1}, {0: 1, 1: 1}]) == 1


def test_rank_needs_fractions():
    # forces non-integer elimination factors
    assert rank([{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 5, 1: 8}]) == 2


def reference_rank(rows, prime=None):
    """The elimination kernel exactalg used before fraction-free elimination:
    Fraction arithmetic over Q, an inverse per reduction step over GF(p)."""
    pivots = {}
    for row in rows:
        row = {c: (v % prime if prime else v) for c, v in row.items() if (v % prime if prime else v)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            if prime:
                factor = (row[c] * pow(piv[c], -1, prime)) % prime
            else:
                factor = Fraction(row[c], 1) / piv[c]
            for pc, pv in piv.items():
                nv = row.get(pc, 0) - factor * pv
                if prime:
                    nv %= prime
                if nv:
                    row[pc] = nv
                else:
                    row.pop(pc, None)
    return len(pivots)


@st.composite
def sparse_int_matrices(draw):
    """Up to 12 x 12: random sparse rows with entries -3..3, so that non-unit
    pivots occur, then integer combinations of them, so that the rank over Q
    falls short of the row count (a wrong elimination step on a full-rank
    matrix would still find full rank).  Then up to 4 unit rows and up to 3 of
    the rows scaled by 2 or 3, so that rank sets unit rows aside, some rows
    then keep one entry, and some rows vanish or lose entries mod 2 or mod 3."""
    cols = draw(st.integers(1, 12))
    entry = st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3])
    base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=12))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)),
                          max_size=12 - len(base)))
    combos = [[sum(c * row[j] for c, row in zip(mix, base)) for j in range(cols)] for mix in mixes]
    units = draw(st.lists(st.tuples(st.integers(0, cols - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])), max_size=4))
    unit_rows = [[v if j == c else 0 for j in range(cols)] for c, v in units]
    scaled = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from([2, 3])), max_size=3))
    scaled_rows = [[s * v for v in row] for row, s in scaled]
    return draw(st.permutations(base + combos + unit_rows + scaled_rows))


@settings(max_examples=300)
@given(sparse_int_matrices())
def test_rank_matches_reference_kernel(entries):
    rows = [{j: v for j, v in enumerate(row) if v} for row in entries]
    for prime in (None, 2, 3, 5, 10007):
        assert rank(rows, prime=prime) == reference_rank(rows, prime=prime)


def test_rank_sets_unit_rows_aside():
    # the unit column drops out of one longer row, and elimination does the rest
    for prime in (None, 2, 3):
        assert rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1}], prime=prime) == 3
    # a unit row counts only when its entry is nonzero in the field
    assert rank([{0: 3}]) == 1 and rank([{0: 3}], prime=3) == 0
    assert rank([{0: 3, 1: 1}, {1: 1}], prime=3) == 1
    assert rank([{0: 3, 1: 1}, {1: 1}]) == 2
    assert rank([{0: 0}]) == 0 and rank([{0: 0}], prime=5) == 0
    assert rank([{0: 0, 1: 2}, {1: 1, 2: 1}]) == 2


def test_a_cascade_of_unit_rows_is_set_aside_whole():
    """A chain of two-entry rows ending in a unit row: rank sets column 10 aside and
    deletes it from the last longer row, and elimination gives every other row of the
    chain its own pivot, so the chain has full rank whatever the field."""
    chain = [{c: 1, c + 1: 1} for c in range(10)] + [{10: 1}]
    for prime in (None, 2, 3):
        assert rank(chain, prime=prime) == 11
    assert rank(chain + [{0: 1, 5: 2, 11: 1, 12: 1}]) == 12


def test_rank_reads_an_iterable_once():
    rows = [{0: 2, 1: 3, 2: 1}, {1: 1}, {0: 3, 1: 5}, {2: 4}, {0: 5, 1: 8, 2: 1}]
    for prime in (None, 2, 7):
        assert rank((dict(r) for r in rows), prime=prime) == rank(rows, prime=prime)


def test_rank_leaves_input_rows_unchanged():
    # columns 2 and 4 are set aside and deleted from the copies of the longer rows
    rows = [{0: 2, 1: 3, 2: 1}, {0: 3, 1: 5}, {0: 5, 1: 8, 2: 1}, {2: 7}, {1: 1, 3: 2}, {3: 4, 4: 1}, {4: 5}]
    before = [dict(r) for r in rows]
    for prime in (None, 7):
        rank(rows, prime=prime)
    assert rows == before


def test_is_prime():
    n = 2000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, n):
        if sieve[i]:
            for j in range(i * i, n, i):
                sieve[j] = False
    assert [k for k in range(-3, n) if is_prime(k)] == [k for k in range(n) if sieve[k]]
    assert is_prime(10007) and is_prime(2**61 - 1) and is_prime(2**31 - 1)
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert not is_prime(2**61 + 1) and not is_prime(561)
    with pytest.raises(ValueError):
        is_prime(10**25)


def test_center_examples():
    assert center_dim(semisimple(3)) == 3
    assert center_dim(build_algebra(AlgebraPresentation(kronecker(2)))) == 1
    assert center_dim(build_algebra(AlgebraPresentation(cycle(3), TruncationIdeal(2)))) == 1


def test_invariants_equals_center_on_regular():
    for alg in (semisimple(2), build_algebra(AlgebraPresentation(kronecker(2)))):
        assert invariants_dim(regular_bimodule(alg)) == center_dim(alg)


def test_derivation_and_inner_dims():
    assert derivation_space_dim(regular_bimodule(semisimple(2))) == 0
    a2_rep = regular_bimodule(build_algebra(AlgebraPresentation(a2())))
    assert derivation_space_dim(a2_rep) == 2
    assert inner_dim(a2_rep) == 2
    k2_rep = regular_bimodule(build_algebra(AlgebraPresentation(kronecker(2))))
    assert derivation_space_dim(k2_rep) == 6
    assert inner_dim(k2_rep) == 3


def test_h1_oracle_examples():
    assert h1_oracle(regular_bimodule(build_algebra(AlgebraPresentation(kronecker(2))))) == 3
    assert h1_oracle(regular_bimodule(build_algebra(AlgebraPresentation(cycle(3), TruncationIdeal(2))))) == 1
    assert h1_oracle(regular_bimodule(build_algebra(AlgebraPresentation(a2())))) == 0


def test_inner_dim_spanning_set_cross_check():
    # span of {ad_v : v basis} must have dimension dim X - dim X^Lambda
    rng = random.Random(12)
    for _ in range(5):
        q = random_connected_dag(rng, max_vertices=3, max_arrows=4)
        Z = random_minimal_ideal(rng, q)
        alg = build_algebra(AlgebraPresentation(q, Z))
        rep = regular_bimodule(alg)
        d = alg.dimension
        rows = []
        for v in range(d):
            # ad_v as a vector of values on the basis, flattened
            row = {}
            for b in range(d):
                for k, c in product_basis(alg, b, v).items():
                    row[b * d + k] = row.get(b * d + k, 0) + c
                for k, c in product_basis(alg, v, b).items():
                    row[b * d + k] = row.get(b * d + k, 0) - c
            rows.append({k: v2 for k, v2 in row.items() if v2})
        span = rank(rows)
        assert span == inner_dim(rep)


def test_bar_degree0_equals_invariants():
    for alg in (semisimple(2), build_algebra(AlgebraPresentation(a3()))):
        rep = regular_bimodule(alg)
        assert bar_cohomology_dim(rep, 0) == invariants_dim(rep)


def test_bar_degree1_equals_h1():
    q = branch()
    for alg in (
        build_algebra(AlgebraPresentation(kronecker(2))),
        build_algebra(AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))),
        build_algebra(AlgebraPresentation(cycle(3), TruncationIdeal(2))),
    ):
        rep = regular_bimodule(alg)
        assert bar_cohomology_dim(rep, 1) == h1_oracle(rep)


def test_separable_vanishing():
    for n in (1, 2, 3, 4):
        rep = regular_bimodule(semisimple(n))
        assert h1_oracle(rep) == 0
        assert bar_cohomology_dim(rep, 1) == 0
        assert bar_cohomology_dim(rep, 2) == 0


def test_bar_degree2_on_the_truncated_4_cycle():
    alg = build_algebra(AlgebraPresentation(cycle(4), TruncationIdeal(3)))
    assert alg.dimension == 12
    rep = regular_bimodule(alg)
    assert bar_cohomology_dim(rep, 2) == 0


def test_opposite_invariance():
    q = branch()
    for alg in (
        build_algebra(AlgebraPresentation(kronecker(2))),
        build_algebra(AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))),
        build_algebra(AlgebraPresentation(cycle(3), TruncationIdeal(2))),
    ):
        assert h1_oracle(regular_bimodule(alg)) == h1_oracle(regular_bimodule(alg.opposite()))


def test_the_opposite_algebra_keeps_no_path_basis():
    """The opposite table is not concatenation on the basis paths: on the A3 path
    algebra, 7 of its 10 products differ."""
    pres = AlgebraPresentation(a3())
    op = pres.algebra.opposite()
    paths = pres.basis
    assert len(op.table) == 10
    assert sum(compose(paths[i], paths[j]) != paths[k] for (i, j), k in op.table.items()) == 7


def test_prime_field_agreement():
    rng = random.Random(13)
    primes = [1009, 100003]
    for _ in range(5):
        q = random_connected_dag(rng, max_vertices=4, max_arrows=5)
        Z = random_minimal_ideal(rng, q)
        alg = build_algebra(AlgebraPresentation(q, Z))
        rep = regular_bimodule(alg)
        over_q = h1_oracle(rep)
        for p in primes:
            assert h1_oracle(rep, prime=p) == over_q


def test_disjoint_union_additivity():
    q1 = kronecker(2)
    q2 = a3()
    union = Quiver(
        list(q1.vertices) + ["u" + v for v in q2.vertices],
        list(q1.arrows) + [Arrow("u" + a.name, "u" + a.source, "u" + a.target) for a in q2.arrows],
    )
    total = h1_oracle(regular_bimodule(build_algebra(AlgebraPresentation(union))))
    parts = sum(
        h1_oracle(regular_bimodule(build_algebra(AlgebraPresentation(q)))) for q in (q1, q2)
    )
    assert total == parts


def test_derivations_with_coefficients():
    q2 = kronecker(2)
    kq = AlgebraPresentation(q2)
    assert h1_oracle(quotient_bimodule(kq, kq)) == 3

    qb = branch()
    kq = AlgebraPresentation(qb)
    quot = AlgebraPresentation(qb, MonomialIdeal([path_of(qb, "a", "b")]))
    assert h1_oracle(quotient_bimodule(kq, quot)) == 3

    q3 = a3()
    kq = AlgebraPresentation(q3)
    assert h1_oracle(quotient_bimodule(kq, kq)) == 0
    quot = AlgebraPresentation(q3, MonomialIdeal([path_of(q3, "a", "b")]))
    assert h1_oracle(quotient_bimodule(kq, quot)) == 0


def test_bimodule_validation_rejects_garbage():
    alg = build_algebra(AlgebraPresentation(a2()))
    rep = regular_bimodule(alg)
    broken = BimoduleRep(alg, rep.dim, rep.right, rep.left)  # swapped actions
    with pytest.raises(AssertionError):
        broken.validate()


def test_bar_dims_rank_each_coboundary_once(monkeypatch):
    from quiverh1 import exactalg

    assembled = []
    real = exactalg._bar_coboundary_rows
    monkeypatch.setattr(exactalg, "_bar_coboundary_rows", lambda x, n: assembled.append(n) or real(x, n))
    q = branch()
    for alg in (
        build_algebra(AlgebraPresentation(kronecker(2))),
        build_algebra(AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))),
        build_algebra(AlgebraPresentation(cycle(3), TruncationIdeal(2))),
    ):
        rep = regular_bimodule(alg)
        expected = reference_bar_dims(rep)
        assembled.clear()
        assert bar_cohomology_dims(rep, (0, 1, 2)) == expected
        assert assembled == [0, 1, 2]
        assert {n: bar_cohomology_dim(rep, n) for n in range(3)} == expected
        assert bar_cohomology_dims(rep, (2,)) == {2: expected[2]}
    with pytest.raises(ValueError):
        bar_cohomology_dims(rep, (1, 3))


def test_cohomology_dims_counts_each_degree():
    # 0 -> k --1--> k --0--> k^2: H^0 = 0, H^1 = 0, H^2 = 2, and delta^1 . delta^0 = 0
    rows = {0: (1, {0: {0: 1}}), 1: (1, {}), 2: (2, {})}
    assert cohomology_dims(rows.__getitem__, (0, 1, 2)) == {0: 0, 1: 0, 2: 2}
    assert cohomology_dims(rows.__getitem__, (2,), prime=2) == {2: 2}


def test_cohomology_dims_rejects_a_nonzero_composite():
    non_complex = {0: (1, {0: {0: 1}}), 1: (1, {0: {0: 1}})}  # delta^0 = delta^1 = [[1]]
    with pytest.raises(ComplexFault, match=r"^delta\^1 \. delta\^0 is not zero: entry \(0, 0\) is 1$"):
        cohomology_dims(non_complex.__getitem__, (1,))
    zero_mod_2 = {0: (1, {0: {0: 1}}), 1: (1, {3: {0: 2}})}  # delta^1 . delta^0 = 2 at row 3
    for prime in (None, 2):
        with pytest.raises(ComplexFault, match=r"entry \(3, 0\) is 2$"):
            cohomology_dims(zero_mod_2.__getitem__, (1,), prime=prime)
    assert cohomology_dims(non_complex.__getitem__, (0,)) == {0: 0}  # delta^1 is not built


def test_bar_dims_check_the_composite_of_the_coboundaries_they_build(monkeypatch):
    from quiverh1 import exactalg

    rep = regular_bimodule(truncated_polynomials(3))
    assert bar_cohomology_dims(rep, (2,)) == {2: 2}
    real = exactalg._bar_coboundary_rows

    def absolute_delta2(x, n):  # every entry of delta^2 made positive
        cols, rows = real(x, n)
        return cols, {k: {j: abs(v) for j, v in row.items()} for k, row in rows.items()} if n == 2 else rows

    monkeypatch.setattr(exactalg, "_bar_coboundary_rows", absolute_delta2)
    with pytest.raises(ComplexFault, match=r"^delta\^2 \. delta\^1 is not zero"):
        bar_cohomology_dims(rep, (2,))
    assert bar_cohomology_dims(rep, (0, 1)) == {0: 3, 1: 2}  # delta^2 is not built


def truncated_polynomials(m: int):
    """k[x]/(x^m) as one loop truncated at m."""
    return build_algebra(AlgebraPresentation(Quiver(["v"], [Arrow("x", "v", "v")]), TruncationIdeal(m)))


@pytest.fixture(scope="module")
def bar_algebras(monomial_instances):
    """Every algebra of dimension <= 12 among the 100 seeded acyclic instances, 120 draws
    of ``random_cycle_instance`` under ``random.Random(11)``, the truncated n-cycles with
    n, m <= 5, k[x]/(x^m) for m = 2..7 and every fixture, both posets included."""
    algs = [build_algebra(AlgebraPresentation(q, Z)) for q, Z in monomial_instances]
    rng = random.Random(11)
    presentations = [AlgebraPresentation(*random_cycle_instance(rng)) for _ in range(120)]
    presentations += [AlgebraPresentation(cycle(n), TruncationIdeal(m)) for n in range(1, 6) for m in range(2, 6)]
    for path in sorted(FIXTURE_DIR.iterdir()):
        doc = parse(fixture_text(path.name))
        if doc.kind == "poset":
            algs.append(incidence_algebra(doc.body))
        else:
            presentations.append(doc.body)
    for p in presentations:
        try:
            algs.append(build_algebra(p))
        except InfiniteBasis:
            pass
    algs += [truncated_polynomials(m) for m in range(2, 8)]
    return [alg for alg in algs if alg.dimension <= 12]


def test_bar_dims_match_the_standard_complex(bar_algebras):
    """Over Q, F_2, F_3 and F_5."""
    assert len(bar_algebras) >= 100
    for alg in bar_algebras:
        rep = regular_bimodule(alg)
        rows = reference_bar_rows(rep)
        for prime in (None, 2, 3, 5):
            assert bar_cohomology_dims(rep, (0, 1, 2), prime=prime) == reference_bar_dims(rep, prime, rows)


@settings(max_examples=40)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence", "quotient"]),
    seed=st.integers(0, 2**32 - 1),
    prime=st.sampled_from([None, 2, 3, 5]),
)
def test_bar_dims_match_the_standard_complex_on_seeded_bimodules(family, seed, prime):
    """Over the regular bimodule, and over kQ/I as a bimodule over an acyclic kQ."""
    if family == "quotient":
        rng = random.Random(seed)
        q = random_connected_dag(rng, max_vertices=3, max_arrows=4)
        rep = quotient_bimodule(AlgebraPresentation(q), AlgebraPresentation(q, random_minimal_ideal(rng, q)))
    else:
        rep = regular_bimodule(_seeded_algebra(family, seed))
    assume(rep.algebra.dimension <= 12)
    assert bar_cohomology_dims(rep, (0, 1, 2), prime=prime) == reference_bar_dims(rep, prime=prime)


@pytest.mark.parametrize("prime", [None, 2, 3, 5])
def test_bar_dims_of_truncated_polynomials_depend_on_the_characteristic(prime):
    """(H^0, H^1, H^2) of k[x]/(x^m) is (m, m - 1, m - 1), or (m, m, m) when p divides m."""
    for m in range(2, 8):
        h = m if prime and m % prime == 0 else m - 1
        assert bar_cohomology_dims(regular_bimodule(truncated_polynomials(m)), (0, 1, 2), prime=prime) == {
            0: m, 1: h, 2: h}
    six = bar_cohomology_dims(regular_bimodule(truncated_polynomials(6)), (0, 1, 2), prime=prime)
    assert six == ({0: 6, 1: 6, 2: 6} if prime in (2, 3) else {0: 6, 1: 5, 2: 5})


def test_bar_complex_needs_the_radical_closed_under_products():
    """k[x]/(x^2 - 1) on the basis 1, x: x * x is the idempotent 1."""
    alg = StructureConstantAlgebra(("1", "x"), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, {"v": 0})
    with pytest.raises(NotApplicable, match="is an idempotent"):
        bar_cohomology_dims(regular_bimodule(alg), (0, 1))


def test_bar_h1_of_fib_dags_equals_the_formula_and_the_opposite_algebras():
    """Fib-DAG path algebras up to d = 364, where the brute oracle is too slow for the suite:
    the E-relative H^1 is the acyclic path algebra formula 2n - 4, and the same on A^op,
    since HH*(A^op) is HH*(A)."""
    for n in range(2, 11):
        pres = AlgebraPresentation(fib_dag(n))
        report = classify_and_compute(pres)
        assert (report.method, report.dim_h1) == ("path_algebra_acyclic", 2 * n - 4)
        alg = build_algebra(pres)
        for side in (alg, alg.opposite()):
            assert bar_cohomology_dims(regular_bimodule(side), (0, 1))[1] == 2 * n - 4, (n, side is alg)
    assert alg.dimension == 364


def test_the_brute_derivation_system_is_never_held_whole(monkeypatch):
    """On the Fib-DAG path algebra with n = 7 (d = 79) the derivation system has 6241
    unknowns and 9233 rows: 2608 with two or more entries and 6625 with one entry, on
    5677 distinct columns (all d^2 pairs gave 58,543 rows, 55,057 with one entry).  The
    rows stream into rank, which keeps only the longer ones, so the traced peak stays
    small."""
    from quiverh1 import exactalg

    n = 7
    x = regular_bimodule(build_algebra(AlgebraPresentation(fib_dag(n))))
    assert x.dim == 79
    tracemalloc.start()
    try:
        dim = derivation_space_dim(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 88
    assert h1_oracle(x) == 2 * n - 4
    assert peak < 8 * 2**20, peak

    real, one_entry, longer = exactalg.rank, [], []

    def counting_rank(rows, prime=None):
        def each():
            for row in rows:
                if len(row) == 1:
                    one_entry.extend(row)
                else:
                    longer.append(row)
                yield row
        return real(each(), prime=prime)

    monkeypatch.setattr(exactalg, "rank", counting_rank)
    assert derivation_space_dim(x) == 88
    assert (len(set(one_entry)), len(longer)) == (5677, 2608)


def _derivation_bimodules():
    """As regular bimodules: the 100 seeded acyclic monomial instances with d <= 40
    (seed 7) and the incidence algebras of 15 seeded posets, each with its opposite
    algebra; 100 admissible cyclic draws under ``random.Random(11)``; the truncated
    cycles; k[x]/(x^m) for m = 2..6, with one idempotent, so no pair is separated; and
    k^n for n = 1..4.  Then kQ/I over kQ, where X is not A, for the pairs of
    ``_path_bases``."""
    algs = [build_algebra(AlgebraPresentation(q, Z)) for q, Z in random_monomial_instances(7, 100, max_dim=40)]
    rng = random.Random(35)
    algs += [incidence_algebra(_random_poset(rng, rng.randint(1, 6))) for _ in range(15)]
    algs += [alg.opposite() for alg in algs]
    rng = random.Random(11)
    algs += [build_algebra(admissible_cycle_presentation(rng)) for _ in range(100)]
    algs += [build_algebra(pres) for pres in truncated_cycles()]
    algs += [truncated_polynomials(m) for m in range(2, 7)] + [semisimple(n) for n in range(1, 5)]
    yield from (regular_bimodule(alg) for alg in algs)
    for kq, quot in _path_bases():
        yield quotient_bimodule(kq, quot)


def test_the_separated_pair_system_equals_the_all_pairs_one():
    """Over Q, F_2, F_3 and F_5."""
    compared = 0
    for rep in _derivation_bimodules():
        for prime in (None, 2, 3, 5):
            assert derivation_space_dim(rep, prime) == reference_derivation_space_dim(rep, prime), (
                rep.algebra.basis, prime)
            compared += 1
    assert compared == 4 * 423


@settings(max_examples=100)
@given(
    family=st.sampled_from(["monomial", "cyclic", "truncated", "incidence", "polynomial", "semisimple", "quotient"]),
    seed=st.integers(0, 2**32 - 1),
    opposite=st.booleans(),
    prime=st.sampled_from([None, 2, 3, 5]),
)
def test_the_separated_pair_system_equals_the_all_pairs_one_on_seeded_bimodules(family, seed, opposite, prime):
    """The generators above, drawn from a seed; regular bimodules may be taken over A^op."""
    rng = random.Random(seed)
    if family == "quotient":
        q = random_connected_dag(rng, max_vertices=4, max_arrows=5)
        rep = quotient_bimodule(AlgebraPresentation(q), AlgebraPresentation(q, random_minimal_ideal(rng, q)))
    else:
        if family == "cyclic":
            alg = build_algebra(admissible_cycle_presentation(rng))
        elif family == "polynomial":
            alg = truncated_polynomials(rng.randint(2, 6))
        elif family == "semisimple":
            alg = semisimple(rng.randint(1, 4))
        else:
            alg = _seeded_algebra(family, seed)
        rep = regular_bimodule(alg.opposite() if opposite else alg)
    assert derivation_space_dim(rep, prime) == reference_derivation_space_dim(rep, prime)


# --- index-map actions against the column operators they replaced -------------


def _col_apply(op, vec):
    out = {}
    for j, c in vec.items():
        for i, v in op.get(j, {}).items():
            nv = out.get(i, 0) + c * v
            if nv:
                out[i] = nv
            else:
                out.pop(i, None)
    return out


def _col_compose(a, b):
    """Column form of the operator 'apply b, then a'."""
    out = {}
    for j in b:
        col = _col_apply(a, b[j])
        if col:
            out[j] = col
    return out


def _col_combo(ops, combo):
    out = {}
    for k, c in combo.items():
        for j, col in ops[k].items():
            tgt = out.setdefault(j, {})
            for i, v in col.items():
                nv = tgt.get(i, 0) + c * v
                if nv:
                    tgt[i] = nv
                else:
                    tgt.pop(i, None)
            if not tgt:
                out.pop(j, None)
    return out


def reference_validate(rep):
    """The column-operator validate() that the index-map one replaced, kept as the
    reference; each index map m -> n is read as the column operator {m: {n: 1}}."""
    left = [{m: {n: 1} for m, n in op.items()} for op in rep.left]
    right = [{m: {n: 1} for m, n in op.items()} for op in rep.right]
    alg = rep.algebra
    d = alg.dimension
    for i in range(d):
        for j in range(d):
            prod = product_basis(alg, i, j)
            if _col_compose(left[i], left[j]) != _col_combo(left, prod):
                raise AssertionError(f"left action is not a homomorphism at ({i}, {j})")
            if _col_compose(right[j], right[i]) != _col_combo(right, prod):
                raise AssertionError(f"right action fails at ({i}, {j})")
            if _col_compose(left[i], right[j]) != _col_compose(right[j], left[i]):
                raise AssertionError(f"actions do not commute at ({i}, {j})")
    ident = {j: {j: 1} for j in range(rep.dim)}
    unit = {e: 1 for e in alg.vertex_idempotents.values()}  # the sum of the vertex idempotents
    if _col_combo(left, unit) != ident or _col_combo(right, unit) != ident:
        raise AssertionError("unit does not act as identity")


@settings(max_examples=300)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence"]),
    seed=st.integers(0, 2**32 - 1),
    side=st.sampled_from(["left", "right"]),
    mutation=st.sampled_from(["redirect", "drop", "add"]),
    pick=st.integers(0, 2**32 - 1),
    target=st.integers(0, 2**32 - 1),
)
def test_validate_rejects_exactly_what_the_column_operators_reject(family, seed, side, mutation, pick, target):
    alg = _seeded_algebra(family, seed)
    rep = regular_bimodule(alg)
    d = rep.dim
    ops = [dict(op) for op in getattr(rep, side)]
    present = [(b, m) for b in range(d) for m in sorted(ops[b])]
    absent = [(b, m) for b in range(d) for m in range(d) if m not in ops[b]]
    if mutation == "redirect":
        b, m = present[pick % len(present)]
        ops[b][m] = target % d
    elif mutation == "drop":
        b, m = present[pick % len(present)]
        del ops[b][m]
    elif absent:
        b, m = absent[pick % len(absent)]
        ops[b][m] = target % d
    left, right = (tuple(ops), rep.right) if side == "left" else (rep.left, tuple(ops))
    bad = BimoduleRep(alg, d, left, right)
    assert _outcome(BimoduleRep.validate, bad) == _outcome(reference_validate, bad)


@settings(max_examples=300)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence"]),
    seed=st.integers(0, 2**32 - 1),
    mutation=st.sampled_from(IDEMPOTENT_MUTATIONS),
    pick=st.integers(0, 2**32 - 1),
    target=st.integers(0, 2**32 - 1),
)
def test_validate_rejects_exactly_what_the_column_operators_reject_on_the_unit(family, seed, mutation, pick, target):
    """The regular actions over an algebra whose vertex idempotents, and so whose unit,
    are mutated: the unit test on the idempotents' index maps fails where the column
    operators' sum does, with the same message."""
    alg = _seeded_algebra(family, seed)
    rep = regular_bimodule(alg)
    bad = BimoduleRep(mutate_idempotents(alg, mutation, pick, target), rep.dim, rep.left, rep.right)
    assert _outcome(BimoduleRep.validate, bad) == _outcome(reference_validate, bad)


def test_builders_store_product_indices():
    q = branch()
    poset = Poset.from_pairs(["a", "b", "c", "d"], [("c", "a"), ("d", "a"), ("c", "b"), ("d", "b")])
    kq = AlgebraPresentation(q)
    quot = AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))
    presentations = [kq, quot, AlgebraPresentation(cycle(3), TruncationIdeal(2)),
                     AlgebraPresentation(a3(), TruncationIdeal(2))]
    algebras = [build_algebra(pres) for pres in presentations] + [incidence_algebra(poset)]
    algebras += [alg.opposite() for alg in algebras]
    for alg in algebras:
        assert alg.table and all(type(k) is int for k in alg.table.values())
        rep = regular_bimodule(alg)
        assert all(type(n) is int for op in rep.left + rep.right for n in op.values())
    for pres in presentations:  # path bases: the index is the concatenation
        paths = pres.basis
        for (i, j), k in pres.algebra.table.items():
            assert compose(paths[i], paths[j]) == paths[k]
    rep = quotient_bimodule(kq, quot)
    assert any(rep.left) and any(rep.right)
    assert all(type(n) is int for op in rep.left + rep.right for n in op.values())


@settings(max_examples=300)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence"]),
    seed=st.integers(0, 2**32 - 1),
    keep=st.sampled_from([0.0, 0.3, 0.7, 0.9]),
    thin=st.integers(0, 2**32 - 1),
)
def test_validate_matches_the_pairwise_loop_on_thinned_actions(family, seed, keep, thin):
    """Actions that keep a random share of the regular bimodule's entries on both
    sides: pairs in the table where every composite is empty must still be
    visited, in order, to fail where the loop over all pairs fails."""
    alg = _seeded_algebra(family, seed)
    rep = regular_bimodule(alg)
    rng = random.Random(thin)
    left, right = ([{m: n for m, n in op.items() if rng.random() < keep} for op in ops]
                   for ops in (rep.left, rep.right))
    bad = BimoduleRep(alg, rep.dim, tuple(left), tuple(right))
    assert _outcome(BimoduleRep.validate, bad) == _outcome(reference_validate, bad)


def test_verification_scales_with_the_nonzero_products():
    """check() and validate() do work in proportion to the nonzero triples: k^20000 (the
    loops over every basis element and every vertex pair take about 4e8 steps there) and
    the Fib-DAG path algebra with d = 596 are each verified in seconds, by check() in
    regular_bimodule and by validate() on the bimodule it returns."""
    d = 20000
    semisimple_big = StructureConstantAlgebra(tuple(f"e{i}" for i in range(d)), {(i, i): i for i in range(d)},
                                              {f"v{i}": i for i in range(d)})
    fib = build_algebra(AlgebraPresentation(fib_dag(11)))
    assert fib.dimension == 596
    for alg in (semisimple_big, fib):
        start = time.perf_counter()
        rep = regular_bimodule(alg).validate()
        assert rep.dim == alg.dimension
        assert time.perf_counter() - start < 20


# --- products read off the path basis against composing every pair -------------


def reference_products(lefts, rights, target):
    """{(i, j): k} with lefts[i] then rights[j] = target[k], composing all pairs."""
    position = {p: k for k, p in enumerate(target)}
    out = {}
    for i, p in enumerate(lefts):
        for j, q in enumerate(rights):
            k = position.get(compose(p, q))
            if k is not None:
                out[(i, j)] = k
    return out


def _path_bases():
    """(path algebra, quotient) presentation pairs on acyclic and cyclic quivers."""
    rng = random.Random(41)
    for _ in range(25):
        q = random_connected_dag(rng, max_vertices=5, max_arrows=7)
        Z = random_minimal_ideal(rng, q)
        yield AlgebraPresentation(q), AlgebraPresentation(q, Z)
    for n in (1, 2, 3):
        for m in (2, 3, 4):
            yield (AlgebraPresentation(cycle(n), TruncationIdeal(m + 1)),
                   AlgebraPresentation(cycle(n), TruncationIdeal(m)))


def test_path_tables_and_quotient_actions_match_composing_every_pair():
    for kq, quot in _path_bases():
        for pres in (kq, quot):
            assert pres.algebra.table == reference_products(pres.basis, pres.basis, pres.basis)
        rep = quotient_bimodule(kq, quot)
        left = reference_products(kq.basis, quot.basis, quot.basis)
        right = reference_products(quot.basis, kq.basis, quot.basis)
        assert list(rep.left) == [
            {j: k for (b, j), k in left.items() if b == c} for c in range(len(kq.basis))]
        assert list(rep.right) == [
            {j: k for (j, b), k in right.items() if b == c} for c in range(len(kq.basis))]
