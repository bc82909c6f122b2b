"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a single PASS line on success (run with -s or -rA to see
them); a failure is reported by pytest as usual.
"""

import random

import pytest

from quiverh1 import cli
from quiverh1.exactalg import (
    bar_cohomology_dim,
    h1_oracle,
    invariants_dim,
    regular_bimodule,
)
from quiverh1.formulas import (
    effective_pairs,
    h1_monomial_acyclic,
    h1_path_algebra_acyclic,
    h1_pregenerated,
    h1_tensor_coefficients,
    h1_truncated_acyclic,
    slice_data_from_paths,
)
from quiverh1.presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    TruncationIdeal,
    build_algebra,
    is_pregenerated_monomial,
    truncation_generators,
)
from quiverh1.quiver import Arrow, Quiver
from quiverh1.simplicial import Poset, incidence_algebra

from conftest import (
    branch,
    crown_quiver,
    cycle,
    h1_narrow,
    is_narrow,
    kronecker,
    path_of,
    quotient_bimodule,
    random_minimal_ideal,
)


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def _oracle(pres: AlgebraPresentation) -> int:
    return h1_oracle(regular_bimodule(build_algebra(pres)))


def test_criterion_1_kronecker():
    for n in (2, 3, 4):
        q = kronecker(n)
        expected = n * n - 1
        assert h1_path_algebra_acyclic(AlgebraPresentation(q)).dim_h1 == expected
        kq = AlgebraPresentation(q)
        rep = quotient_bimodule(kq, kq)
        data = slice_data_from_paths(list(kq.basis), invariants_dim(rep))
        assert h1_tensor_coefficients(q, data) == expected
        assert _oracle(AlgebraPresentation(q)) == expected
    _ok(1, "n-Kronecker gives n^2 - 1 by formula, tensor coefficients and oracle (n = 2, 3, 4)")


def test_criterion_2_truncated_cycles():
    from quiverh1.presentations import truncated_is_pregenerated

    for n, m in ((3, 2), (4, 2), (4, 3), (5, 2)):
        q = cycle(n)
        assert truncated_is_pregenerated(q, m)
        pres = AlgebraPresentation(q, TruncationIdeal(m))
        alg = build_algebra(pres)
        assert h1_pregenerated(pres).dim_h1 == 1
        assert h1_oracle(regular_bimodule(alg)) == 1
    _ok(2, "truncated n-cycles are pre-generated with formula = oracle = 1")


def test_criterion_3_narrow():
    rng = random.Random(41)
    instances = [crown_quiver()]
    while len(instances) < 20:
        n = rng.randint(2, 5)
        verts = [f"t{i}" for i in range(n)]
        arrows = []
        for i in range(1, n):
            j = rng.randint(0, i - 1)
            src, tgt = (verts[j], verts[i]) if rng.random() < 0.5 else (verts[i], verts[j])
            arrows.append(Arrow(f"e{i}", src, tgt))
        q = Quiver(verts, arrows)
        if is_narrow(q):
            instances.append(q)
    for q in instances:
        Z = random_minimal_ideal(rng, q)
        expected = 1 - len(q.vertices) + len(q.arrows)
        assert h1_narrow(q).dim_h1 == expected
        assert h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1 == expected
        assert _oracle(AlgebraPresentation(q, Z)) == expected
    _ok(3, "20 connected narrow quivers: 1 - |Q0| + |Q1| = monomial formula = oracle")


def test_criterion_4_incidence_vs_simplicial():
    crown = Poset.from_pairs("abcd", [("c", "a"), ("d", "a"), ("c", "b"), ("d", "b")])
    diamond = Poset.from_pairs("abcd", [("c", "a"), ("d", "a"), ("b", "c"), ("b", "d")])
    for name, p, dim in (("crown", crown, 1), ("diamond", diamond, 0)):
        r = cli.run("poset", cli.parse(cli.serialize(cli.InputDocument("poset", name, p))))
        assert r.methods == {"oracle": dim, "erelative": dim, "simplicial": dim}
    _ok(4, "crown poset gives 1 = 1 = 1 and the printed-relations diamond gives 0 = 0 = 0")


def test_criterion_5_monomial_master_property(monomial_instances):
    assert len(monomial_instances) >= 100
    for q, Z in monomial_instances:
        assert h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1 == _oracle(AlgebraPresentation(q, Z))
    _ok(5, f"monomial formula = oracle on {len(monomial_instances)} random acyclic instances")


def test_criterion_6_truncated_property(monomial_instances):
    count = 0
    for q, _ in monomial_instances:
        for m in (2, 3):
            pres = AlgebraPresentation(q, TruncationIdeal(m))
            if build_algebra(pres).dimension > 30:
                continue
            assert h1_truncated_acyclic(pres).dim_h1 == _oracle(pres)
            count += 1
    assert count >= 100
    _ok(6, f"truncated formula = oracle on {count} instances with m in {{2, 3}}")


def test_criterion_7_lower_bound(monomial_instances):
    for q, Z in monomial_instances:
        bound = 1 - len(q.vertices) + len(q.arrows)
        assert h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1 >= bound
        for m in (2, 3):
            assert h1_truncated_acyclic(AlgebraPresentation(q, TruncationIdeal(m))).dim_h1 >= bound
    q = branch()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    dim = h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1
    assert dim == 2 and dim > 1 - len(q.vertices) + len(q.arrows)
    _ok(7, "dim H1 >= 1 - |Q0| + |Q1| on all instances; effective-couple fixture gives 2 > 1")


def test_criterion_8_exact_sequence_consequence(monomial_instances):
    for q, Z in monomial_instances:
        quot = AlgebraPresentation(q, Z)
        rep = quotient_bimodule(AlgebraPresentation(q), quot)
        data = slice_data_from_paths(list(quot.basis), invariants_dim(rep))
        n_effective = len(effective_pairs(AlgebraPresentation(q, Z)).effective)
        assert (
            h1_tensor_coefficients(q, data) - h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1 == n_effective
        )
    _ok(8, "tensor-coefficients H1 minus monomial H1 equals the effective-couple count")


def _pregenerated_fixtures():
    qb = branch()
    a3q = Quiver(["x", "y", "z"], [Arrow("a", "x", "y"), Arrow("b", "y", "z")])
    return [
        AlgebraPresentation(kronecker(2)),
        AlgebraPresentation(a3q, MonomialIdeal([path_of(a3q, "a", "b")])),
        AlgebraPresentation(cycle(3), TruncationIdeal(2)),
        AlgebraPresentation(cycle(4), TruncationIdeal(3)),
        AlgebraPresentation(qb, TruncationIdeal(2)),
        AlgebraPresentation(crown_quiver()),
    ]


def test_criterion_9_vanishing():
    for n in (1, 2, 3, 4):
        alg = build_algebra(AlgebraPresentation(Quiver([f"p{i}" for i in range(n)], [])))
        rep = regular_bimodule(alg)
        assert h1_oracle(rep) == 0
        assert bar_cohomology_dim(rep, 1) == 0
        assert bar_cohomology_dim(rep, 2) == 0
    for pres in _pregenerated_fixtures():
        alg = build_algebra(pres)
        if alg.dimension > 12:
            continue
        assert bar_cohomology_dim(regular_bimodule(alg), 2) == 0
    _ok(9, "k^n has H1 = H2 = 0 (n <= 4); pre-generated fixtures have bar H2 = 0")


def test_criterion_10_internal_consistency(monomial_instances):
    # bar degree 1 matches the derivation oracle on every fixture of dim <= 12
    fixtures = _pregenerated_fixtures() + [
        AlgebraPresentation(q, Z) for q, Z in monomial_instances[:10]
    ]
    for pres in fixtures:
        alg = build_algebra(pres)
        rep = regular_bimodule(alg)
        if alg.dimension <= 12:
            assert bar_cohomology_dim(rep, 1) == h1_oracle(rep)
        # opposite-algebra invariance
        assert h1_oracle(regular_bimodule(alg.opposite())) == h1_oracle(rep)

    # coboundary composites vanish on order complexes (checked in exactalg.cohomology_dims)
    from quiverh1.simplicial import order_complex, simplicial_h_dim

    rng = random.Random(43)
    for _ in range(10):
        elems = [f"e{i}" for i in range(rng.randint(1, 6))]
        pairs = [
            (elems[i], elems[j])
            for i in range(len(elems))
            for j in range(i + 1, len(elems))
            if rng.random() < 0.4
        ]
        simplicial_h_dim(order_complex(Poset.from_pairs(elems, pairs)), 1)

    # additivity of formula and oracle over disjoint unions
    rng = random.Random(45)
    pool = monomial_instances[:10]
    for _ in range(5):
        (q1, z1), (q2, z2) = rng.sample(pool, 2)
        verts = list(q1.vertices) + [f"w{v}" for v in q2.vertices]
        arrows = list(q1.arrows) + [
            Arrow(f"w{a.name}", f"w{a.source}", f"w{a.target}") for a in q2.arrows
        ]
        union = Quiver(verts, arrows)
        renamed = []
        for z in z2.generators:
            renamed.append(path_of(union, *[f"w{n}" for n in z.arrow_names()]))
        Z = MonomialIdeal(list(z1.generators) + renamed)
        total_formula = h1_monomial_acyclic(AlgebraPresentation(union, Z)).dim_h1
        parts_formula = sum(h1_monomial_acyclic(AlgebraPresentation(q, z)).dim_h1 for q, z in ((q1, z1), (q2, z2)))
        assert total_formula == parts_formula
        total_oracle = _oracle(AlgebraPresentation(union, Z))
        parts_oracle = _oracle(AlgebraPresentation(q1, z1)) + _oracle(AlgebraPresentation(q2, z2))
        assert total_oracle == parts_oracle == total_formula
    _ok(10, "bar H1 = oracle, delta composites vanish, additivity and opposite invariance hold")
