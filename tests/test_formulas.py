import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverh1.errors import FormulaUnavailable, InfiniteBasis, InvalidQuiver, NotApplicable
from quiverh1.exactalg import h1_oracle, invariants_dim, regular_bimodule
from quiverh1.formulas import (
    FORMULAS,
    _paths_parallel_to_arrows,
    _parallel_path_counts,
    CoupleClassification,
    H1Report,
    classify_and_compute,
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
    StructureConstantAlgebra,
    TruncationIdeal,
    basis_B,
    build_algebra,
    truncation_generators,
)
from quiverh1.quiver import (
    Arrow, Path, PathBasis, Quiver, arrow_path, connected_components, enumerate_paths, is_acyclic, path_counts,
)

from conftest import (
    FIXTURE_DIR,
    a2,
    a3,
    branch,
    crown_quiver,
    cycle,
    contains_generator,
    fib_dag,
    fixture_text,
    glued_pairs,
    h1_bound_monomial,
    h1_narrow,
    is_narrow,
    kronecker,
    parallel_pairs,
    path_of,
    quotient_bimodule,
    random_connected_dag,
    random_minimal_ideal,
    substitutions,
)


def test_glued_pairs_are_diagonal_on_acyclic():
    q = a3()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    pairs = glued_pairs(q, basis_B(q, Z))
    assert {(p.left.label(), p.right.label()) for p in pairs} == {("a", "a"), ("b", "b")}
    k2 = kronecker(2)
    pairs = glued_pairs(k2, basis_B(k2, MonomialIdeal([])))
    assert len(pairs) == 2
    qb = branch()
    pairs = glued_pairs(qb, basis_B(qb, MonomialIdeal([path_of(qb, "a", "b")])))
    assert {(p.left.label(), p.right.label()) for p in pairs} == {("a", "a"), ("b", "b"), ("c", "c")}


def test_glued_pairs_loop():
    q = Quiver(["x"], [Arrow("l", "x", "x")])
    from quiverh1.quiver import trivial_path, arrow_path

    pairs = glued_pairs(q, [trivial_path("x"), arrow_path(q.arrows[0])])
    labels = {(p.left.label(), p.right.label()) for p in pairs}
    assert ("l", "e_x") in labels and ("l", "l") in labels


def test_effective_pairs_branch():
    q = branch()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    cls = effective_pairs(AlgebraPresentation(q, Z))
    assert {(p.left.label(), p.right.label()) for p in cls.effective} == {("b", "c")}
    assert ("c", "b") in {(p.left.label(), p.right.label()) for p in cls.non_effective}


def test_effective_pairs_empty_cases():
    q = a3()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    assert effective_pairs(AlgebraPresentation(q, Z)).effective == ()
    # truncation ideals never have effective couples
    qb = branch()
    Z = truncation_generators(qb, 2)
    assert effective_pairs(AlgebraPresentation(qb, Z)).effective == ()


def test_effective_pairs_rejects_cyclic():
    c3 = cycle(3)
    with pytest.raises(NotApplicable):
        effective_pairs(AlgebraPresentation(c3, truncation_generators(c3, 2)))


def test_h1_monomial_examples():
    k2 = kronecker(2)
    assert h1_monomial_acyclic(AlgebraPresentation(k2, MonomialIdeal([]))).dim_h1 == 3
    qb = branch()
    assert h1_monomial_acyclic(AlgebraPresentation(qb, MonomialIdeal([path_of(qb, "a", "b")]))).dim_h1 == 2
    q = a3()
    assert h1_monomial_acyclic(AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))).dim_h1 == 0


def test_h1_truncated_examples():
    assert h1_truncated_acyclic(AlgebraPresentation(branch(), TruncationIdeal(2))).dim_h1 == 3
    assert h1_truncated_acyclic(AlgebraPresentation(a3(), TruncationIdeal(2))).dim_h1 == 0
    assert h1_truncated_acyclic(AlgebraPresentation(kronecker(2), TruncationIdeal(2))).dim_h1 == 3


def test_h1_narrow_examples():
    assert h1_narrow(a3()).dim_h1 == 0
    assert h1_narrow(crown_quiver()).dim_h1 == 1
    with pytest.raises(NotApplicable):
        h1_narrow(kronecker(2))


def test_h1_narrow_trees():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randint(2, 6)
        verts = [f"t{i}" for i in range(n)]
        arrows = []
        for i in range(1, n):
            j = rng.randint(0, i - 1)
            src, tgt = (verts[j], verts[i]) if rng.random() < 0.5 else (verts[i], verts[j])
            arrows.append(Arrow(f"e{i}", src, tgt))
        q = Quiver(verts, arrows)
        if not is_narrow(q):
            continue
        assert h1_narrow(q).dim_h1 == 0


def test_h1_path_algebra_examples():
    for n in (2, 3, 4):
        assert h1_path_algebra_acyclic(AlgebraPresentation(kronecker(n))).dim_h1 == n * n - 1
    assert h1_path_algebra_acyclic(AlgebraPresentation(crown_quiver())).dim_h1 == 1
    assert h1_path_algebra_acyclic(AlgebraPresentation(a2())).dim_h1 == 0


def test_h1_pregenerated_examples():
    pres = AlgebraPresentation(cycle(3), TruncationIdeal(2))
    rep = h1_pregenerated(pres)
    assert rep.dim_h1 == 1
    assert rep.intermediates == {
        "dim_center": 1,
        "sum_diagonal_slices": 3,
        "weighted_arrow_slices": 3,
    }
    pres = AlgebraPresentation(kronecker(2))
    assert h1_pregenerated(pres).dim_h1 == 3
    q = a3()
    pres = AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))
    assert h1_pregenerated(pres).dim_h1 == 0


def test_h1_pregenerated_rejects():
    shortcut = Quiver(
        ["v1", "v2", "v3"],
        [Arrow("a", "v1", "v2"), Arrow("b", "v2", "v3"), Arrow("c", "v1", "v3")],
    )
    pres = AlgebraPresentation(shortcut, MonomialIdeal([path_of(shortcut, "a", "b")]))
    with pytest.raises(NotApplicable, match="not pre-generated"):
        h1_pregenerated(pres)


def _tensor_data(quiver, Z):
    quot = AlgebraPresentation(quiver, Z)
    rep = quotient_bimodule(AlgebraPresentation(quiver), quot)
    return slice_data_from_paths(list(quot.basis), invariants_dim(rep)), rep


def test_h1_tensor_coefficients_examples():
    k2 = kronecker(2)
    data, rep = _tensor_data(k2, MonomialIdeal([]))
    assert (data.dim_X_E, data.dim_X_T) == (2, 1)
    assert h1_tensor_coefficients(k2, data) == 3
    qb = branch()
    data, rep = _tensor_data(qb, MonomialIdeal([path_of(qb, "a", "b")]))
    assert h1_tensor_coefficients(qb, data) == 3
    assert h1_oracle(rep) == 3
    q = a3()
    data, rep = _tensor_data(q, MonomialIdeal([path_of(q, "a", "b")]))
    assert h1_tensor_coefficients(q, data) == 0


def test_h1_bound_monomial():
    assert h1_bound_monomial(kronecker(2), MonomialIdeal([])) == 1
    qb = branch()
    assert h1_bound_monomial(qb, MonomialIdeal([path_of(qb, "a", "b")])) == 1
    q = a3()
    assert h1_bound_monomial(q, MonomialIdeal([path_of(q, "a", "b")])) == 0


def test_degeneration_consistency():
    rng = random.Random(19)
    for _ in range(10):
        q = random_connected_dag(rng)
        assert (h1_monomial_acyclic(AlgebraPresentation(q, MonomialIdeal([]))).dim_h1
                == h1_path_algebra_acyclic(AlgebraPresentation(q)).dim_h1)


def test_truncation_consistency():
    rng = random.Random(21)
    for _ in range(10):
        q = random_connected_dag(rng)
        for m in (2, 3):
            assert (
                h1_truncated_acyclic(AlgebraPresentation(q, TruncationIdeal(m))).dim_h1
                == h1_monomial_acyclic(AlgebraPresentation(q, truncation_generators(q, m))).dim_h1
            )


def test_narrow_consistency():
    rng = random.Random(23)
    found = 0
    for _ in range(30):
        q = random_connected_dag(rng, max_vertices=4, max_arrows=4)
        if not is_narrow(q):
            continue
        Z = random_minimal_ideal(rng, q)
        assert h1_monomial_acyclic(AlgebraPresentation(q, Z)).dim_h1 == h1_narrow(q).dim_h1
        found += 1
    assert found >= 5


def test_formula_additivity_over_components():
    q1 = kronecker(2)
    q2 = branch()
    union = Quiver(
        list(q1.vertices) + [f"w{v}" for v in q2.vertices],
        list(q1.arrows) + [Arrow(f"w{a.name}", f"w{a.source}", f"w{a.target}") for a in q2.arrows],
    )
    Z = MonomialIdeal([path_of(union, "wa", "wb")])
    got = h1_monomial_acyclic(AlgebraPresentation(union, Z))
    assert got.dim_h1 == 3 + 2
    assert dict(got.per_component) == {"x": 3, "wv1": 2}


def test_classify_and_compute_dispatch():
    assert classify_and_compute(AlgebraPresentation(cycle(3), TruncationIdeal(2))).method == "pregenerated"
    assert classify_and_compute(AlgebraPresentation(crown_quiver())).method == "path_algebra_acyclic"
    q = a3()
    assert classify_and_compute(
        AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")]))
    ).method == "monomial_acyclic"
    assert classify_and_compute(AlgebraPresentation(branch(), TruncationIdeal(2))).method == "truncated_acyclic"
    with pytest.raises(InfiniteBasis, match="infinite dimensional: path algebra of a cyclic quiver"):
        classify_and_compute(AlgebraPresentation(cycle(3)))


@pytest.mark.parametrize("arrows, message", [
    ([Arrow("a", "x", "y"), Arrow("b", "y", "zz")], "unknown target 'zz'"),
    ([Arrow("a", "x", "y"), Arrow("a", "y", "z")], "duplicate arrow name 'a'"),
])
def test_every_row_validates_the_quiver_before_it_reads_acyclicity(arrows, message):
    """A library caller's invalid quiver raises InvalidQuiver from every row, whatever the
    relations, and never KeyError from the acyclicity search or a number from a row."""
    q = Quiver(["x", "y", "z"], arrows)
    for scheme in (None, MonomialIdeal([Path("x", arrows)]), TruncationIdeal(2)):
        for read in (*FORMULAS, effective_pairs, classify_and_compute):
            with pytest.raises(InvalidQuiver, match=message):
                read(AlgebraPresentation(q, scheme))


def test_formula_reports_an_infinite_basis_before_the_pregenerated_test(monkeypatch):
    from quiverh1 import formulas

    calls = []
    real = formulas.is_pregenerated_monomial
    monkeypatch.setattr(formulas, "is_pregenerated_monomial", lambda *a: calls.append(a) or real(*a))
    two = Quiver(["x", "y"], [Arrow("a", "x", "y"), Arrow("b", "y", "x"), Arrow("d", "x", "x")])
    for pres in (AlgebraPresentation(cycle(3)), AlgebraPresentation(two, MonomialIdeal([path_of(two, "a", "b")]))):
        with pytest.raises(InfiniteBasis) as built:
            build_algebra(pres)
        with pytest.raises(InfiniteBasis) as formula:
            classify_and_compute(pres)
        assert str(formula.value) == str(built.value)
    assert calls == []


def test_formulas_match_oracle_on_fixed_examples():
    cases = [
        AlgebraPresentation(kronecker(3)),
        AlgebraPresentation(crown_quiver()),
        AlgebraPresentation(branch(), TruncationIdeal(3)),
        AlgebraPresentation(cycle(4), TruncationIdeal(3)),
    ]
    for pres in cases:
        formula = classify_and_compute(pres).dim_h1
        oracle = h1_oracle(regular_bimodule(build_algebra(pres)))
        assert formula == oracle


def test_dispatch_runs_the_pregenerated_test_once(monkeypatch):
    """Each pre-generated row runs its test once and builds no algebra, and the count of
    the centre ranks no system, even on the truncated 60-cycle at m = 30 (d = 1800)."""
    from quiverh1 import exactalg, formulas, presentations

    calls = []
    for owner, name in ((formulas, "is_pregenerated_monomial"), (formulas, "truncated_is_pregenerated"),
                        (presentations, "build_algebra"), (StructureConstantAlgebra, "check"),
                        (exactalg, "rank")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    c4 = cycle(4)
    assert classify_and_compute(AlgebraPresentation(c4, truncation_generators(c4, 2))).method == "pregenerated"
    assert calls == ["is_pregenerated_monomial"]
    calls.clear()
    assert classify_and_compute(AlgebraPresentation(c4, TruncationIdeal(2))).method == "pregenerated"
    assert calls == ["truncated_is_pregenerated"]
    calls.clear()
    with pytest.raises(FormulaUnavailable, match="formula unavailable, use oracle"):
        classify_and_compute(AlgebraPresentation(c4, TruncationIdeal(4)))
    assert calls == ["truncated_is_pregenerated"]
    calls.clear()
    report = classify_and_compute(AlgebraPresentation(cycle(60), TruncationIdeal(30)))
    assert (report.method, report.intermediates["dim_center"]) == ("pregenerated", 1)
    assert calls == ["truncated_is_pregenerated"]


def test_h1_pregenerated_reads_its_own_presentation():
    for pres in (
        AlgebraPresentation(cycle(3), TruncationIdeal(2)),
        AlgebraPresentation(cycle(5), truncation_generators(cycle(5), 3)),
        AlgebraPresentation(kronecker(2)),
    ):
        assert h1_pregenerated(pres) == h1_pregenerated(AlgebraPresentation(pres.quiver, pres.scheme))
    with pytest.raises(InfiniteBasis, match="infinite basis: quiver is cyclic and the ideal is not admissible"):
        h1_pregenerated(AlgebraPresentation(cycle(3), MonomialIdeal([])))


# --- the counting acyclic rows against the enumerating ones they replaced ------


def reference_h1_path_algebra_acyclic(quiver):
    """The enumerate-then-pair path algebra row that the per-length count replaced."""
    per = []
    n_pairs = 0
    for comp in connected_components(quiver):
        pairs = parallel_pairs(enumerate_paths(comp), [arrow_path(a) for a in comp.arrows])
        per.append((comp.vertices[0], 1 - len(comp.vertices) + len(pairs)))
        n_pairs += len(pairs)
    return H1Report(
        sum(d for _, d in per), "path_algebra_acyclic", per,
        {
            "n_vertices": len(quiver.vertices),
            "n_path_arrow_couples": n_pairs,
            "dim_center_per_component": 1,
            "sum_diagonal_slices": len(quiver.vertices),
        },
    )


def reference_h1_truncated_acyclic(quiver, m):
    """The enumerate-then-pair truncated row that the per-length count replaced."""
    per = []
    n_couples = 0
    for comp in connected_components(quiver):
        B = enumerate_paths(comp, max_length=m - 1)
        pairs = parallel_pairs([arrow_path(a) for a in comp.arrows], B)
        per.append((comp.vertices[0], 1 - len(comp.vertices) + len(pairs)))
        n_couples += len(pairs)
    return H1Report(
        sum(d for _, d in per), "truncated_acyclic", per,
        {"n_vertices": len(quiver.vertices), "n_couples": n_couples},
    )


def _acyclic_quivers():
    rng = random.Random(29)
    quivers = [random_connected_dag(rng, max_vertices=7, max_arrows=12) for _ in range(40)]
    quivers += [fib_dag(n) for n in range(2, 15)]
    q1, q2 = kronecker(3), fib_dag(6)  # a disconnected quiver: two components
    quivers.append(Quiver(
        list(q1.vertices) + [f"w{v}" for v in q2.vertices] + ["lone"],
        list(q1.arrows) + [Arrow(f"w{a.name}", f"w{a.source}", f"w{a.target}") for a in q2.arrows],
    ))
    return quivers


def test_acyclic_rows_match_the_enumerating_reference():
    for q in _acyclic_quivers():
        assert h1_path_algebra_acyclic(AlgebraPresentation(q)) == reference_h1_path_algebra_acyclic(q)
        for m in range(2, 6):
            truncated = AlgebraPresentation(q, TruncationIdeal(m))
            assert h1_truncated_acyclic(truncated) == reference_h1_truncated_acyclic(q, m)


def test_acyclic_rows_list_no_paths(monkeypatch):
    from quiverh1 import presentations, quiver

    listed = []

    def counted(*args, real=quiver.enumerate_paths, **kwargs):
        listed.append(args)
        return real(*args, **kwargs)

    for module in (quiver, presentations):
        monkeypatch.setattr(module, "enumerate_paths", counted)
    real_init = Path.__init__
    monkeypatch.setattr(Path, "__init__", lambda self, *a, **k: listed.append(a) or real_init(self, *a, **k))
    for q in (fib_dag(18), crown_quiver(), kronecker(3)):
        h1_path_algebra_acyclic(AlgebraPresentation(q))
        for m in range(2, 6):
            h1_truncated_acyclic(AlgebraPresentation(q, TruncationIdeal(m)))
    assert listed == []


def test_fib_dag_beyond_enumeration():
    # arrows i -> i+1 have one parallel path, arrows i -> i+2 two: 1 - n + (n-1) + 2(n-2)
    q = fib_dag(40)
    report = classify_and_compute(AlgebraPresentation(q))
    assert (report.method, report.dim_h1) == ("path_algebra_acyclic", 76)
    assert report.intermediates["n_path_arrow_couples"] == 3 * 40 - 5
    assert classify_and_compute(AlgebraPresentation(q, TruncationIdeal(2))).dim_h1 == 38
    assert classify_and_compute(AlgebraPresentation(q, TruncationIdeal(3))).dim_h1 == 76


# --- the grouped couple classification against the pairing one it replaced -----


def reference_effective_pairs(quiver, Z, B):
    """Pair every arrow with every parallel basis path, key the glued couples on
    (name, names, source) and test each substitution as a Path."""
    if not is_acyclic(quiver):
        raise NotApplicable("cyclic quiver unsupported for effective-couple classification")
    pairs = parallel_pairs([arrow_path(a) for a in quiver.arrows], B)
    glued = set()
    for pair in glued_pairs(quiver, B):
        glued.add((pair.left.arrows[0].name, pair.right.arrow_names(), pair.right.source))
    effective = []
    non_effective = []
    glued_list = []
    for pair in pairs:
        a = pair.left.arrows[0]
        e = pair.right
        if (a.name, e.arrow_names(), e.source) in glued:
            glued_list.append(pair)
            continue
        hit = False
        for gamma in Z.generators:
            for candidate in substitutions(gamma, a, e):
                if not contains_generator(candidate, Z):
                    hit = True
                    break
            if hit:
                break
        (effective if hit else non_effective).append(pair)
    non_effective = glued_list + non_effective
    return CoupleClassification(tuple(pairs), tuple(glued_list), tuple(effective), tuple(non_effective))


def test_effective_pairs_match_the_pairing_reference(monomial_instances):
    n_effective = 0
    for q, Z in monomial_instances:
        B = basis_B(q, Z)
        cls = effective_pairs(AlgebraPresentation(q, Z))
        ref = reference_effective_pairs(q, Z, B)
        assert (cls.all, cls.glued, cls.effective, cls.non_effective) == (
            ref.all, ref.glued, ref.effective, ref.non_effective)
        assert [(p.left, p.right) for p in cls.glued] == [(arrow_path(a), arrow_path(a)) for a in q.arrows]
        n_effective += len(cls.effective)
    assert n_effective > 0


def _assert_parallel_search_reads_the_basis(q, Z):
    """For each arrow, the pruned search finds the basis paths parallel to it in basis order,
    and keys nothing that no arrow is parallel to."""
    B = PathBasis(basis_B(q, Z))
    found = _paths_parallel_to_arrows(q, Z)
    for a in q.arrows:
        assert found.get((a.source, a.target), []) == [B[i] for i in B.between.get((a.source, a.target), ())]
    assert set(found) <= {(a.source, a.target) for a in q.arrows}


def test_the_parallel_search_finds_the_basis_paths_parallel_to_each_arrow(monomial_instances):
    for q, Z in monomial_instances:
        _assert_parallel_search_reads_the_basis(q, Z)
    # a*b*c is parallel to d through z, which no arrow leaving x enters
    q = Quiver(("x", "y", "z", "w"), (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "w"),
                                      Arrow("d", "x", "w")))
    _assert_parallel_search_reads_the_basis(q, MonomialIdeal([]))
    _assert_parallel_search_reads_the_basis(q, MonomialIdeal([path_of(q, "a", "b")]))
    q = fib_dag(9)
    _assert_parallel_search_reads_the_basis(q, MonomialIdeal([]))
    _assert_parallel_search_reads_the_basis(q, MonomialIdeal(path_of(q, f"s{i}", f"s{i + 1}") for i in range(7)))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_parallel_search_and_counts_match_the_whole_basis_on_random_dags(seed):
    """On larger random DAGs the pruned search equals the basis read by endpoints, and
    the pruned path counts equal the all-pairs counts, unbounded and truncated."""
    rng = random.Random(seed)
    q = random_connected_dag(rng, max_vertices=8, max_arrows=13)
    _assert_parallel_search_reads_the_basis(q, random_minimal_ideal(rng, q))
    for bound in (None, 0, 1, 2, 3):
        counts = path_counts(q, bound)
        assert _parallel_path_counts(q, bound) == {
            a.name: sum(layer.get((a.source, a.target), 0) for layer in counts) for a in q.arrows}


def test_the_monomial_row_lists_no_basis(monkeypatch):
    """formula on Fib-DAG n = 16 with the relations s_i s_(i+1) (d = 775) reads only the
    basis paths parallel to an arrow, so it never runs basis_B and caches no basis."""
    from quiverh1 import formulas, presentations

    q = fib_dag(16)
    Z = MonomialIdeal(path_of(q, f"s{i}", f"s{i + 1}") for i in range(14))
    assert len(basis_B(q, Z)) == 775
    calls = []
    real = presentations.basis_B
    for module in (presentations, formulas):  # every binding, should a module import it
        monkeypatch.setattr(module, "basis_B", lambda *a: calls.append(a) or real(*a), raising=False)
    pres = AlgebraPresentation(q, Z)
    report = classify_and_compute(pres)
    assert (report.method, report.dim_h1) == ("monomial_acyclic", 14)
    assert calls == [] and "basis" not in vars(pres)


def _seeded_presentation(kind, seed, m, prefix=""):
    """A connected acyclic monomial or truncated presentation drawn from the seed, its
    vertices and arrows renamed with the prefix."""
    rng = random.Random(seed)
    q = random_connected_dag(rng, max_vertices=6, max_arrows=9)
    Z = random_minimal_ideal(rng, q)
    renamed = {a.name: Arrow(prefix + a.name, prefix + a.source, prefix + a.target) for a in q.arrows}
    quiver = Quiver([prefix + v for v in q.vertices], renamed.values())
    if kind == "truncated":
        return AlgebraPresentation(quiver, TruncationIdeal(m))
    gens = [Path(prefix + z.source, [renamed[a.name] for a in z.arrows]) for z in Z.generators]
    return AlgebraPresentation(quiver, MonomialIdeal(gens))


def _opposite(pres):
    """Arrows reversed, and every generator read backwards."""
    rev = {a.name: Arrow(a.name, a.target, a.source) for a in pres.quiver.arrows}
    quiver = Quiver(pres.quiver.vertices, rev.values())
    if pres.kind == "truncated":
        return AlgebraPresentation(quiver, pres.scheme)
    gens = [Path(z.target, [rev[a.name] for a in reversed(z.arrows)]) for z in pres.scheme.generators]
    return AlgebraPresentation(quiver, MonomialIdeal(gens))


def _disjoint_union(p1, p2):
    quiver = Quiver(p1.quiver.vertices + p2.quiver.vertices, p1.quiver.arrows + p2.quiver.arrows)
    if p1.kind == "truncated":
        return AlgebraPresentation(quiver, p1.scheme)
    return AlgebraPresentation(quiver, MonomialIdeal(p1.scheme.generators + p2.scheme.generators))


@settings(max_examples=200)
@given(kind=st.sampled_from(["monomial", "truncated"]), seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4))
def test_dim_h1_is_invariant_under_the_opposite_presentation(kind, seed, m):
    pres = _seeded_presentation(kind, seed, m)
    assert classify_and_compute(_opposite(pres)).dim_h1 == classify_and_compute(pres).dim_h1


@settings(max_examples=200)
@given(kind=st.sampled_from(["monomial", "truncated"]), seeds=st.tuples(st.integers(0, 2**32 - 1),
       st.integers(0, 2**32 - 1)), m=st.integers(2, 4))
def test_dim_h1_is_additive_over_a_disjoint_union(kind, seeds, m):
    p1, p2 = (_seeded_presentation(kind, seed, m, prefix) for seed, prefix in zip(seeds, ("l", "r")))
    union = classify_and_compute(_disjoint_union(p1, p2))
    parts = [classify_and_compute(p) for p in (p1, p2)]
    assert union.dim_h1 == parts[0].dim_h1 + parts[1].dim_h1
    assert len(union.per_component) == 2
    assert [dim for _, dim in union.per_component] == [part.dim_h1 for part in parts]


def test_acyclicity_is_searched_once_per_quiver(monkeypatch):
    """The shared cycle search runs once on each quiver's vertices and, on a cyclic
    quiver, once on its presentation's basis states."""
    from quiverh1 import presentations, quiver as quiver_module

    searched = []
    real = quiver_module.reaches_cycle

    def counted(starts, step):
        searched.append(tuple(starts))
        return real(searched[-1], step)

    for module in (quiver_module, presentations):
        monkeypatch.setattr(module, "reaches_cycle", counted)
    c3, loop = cycle(3), Quiver(["v"], [Arrow("x", "v", "v")])
    states = lambda q: tuple((v, ()) for v in q.vertices)
    pregenerated = AlgebraPresentation(c3, truncation_generators(c3, 2))
    assert classify_and_compute(pregenerated).method == "pregenerated"  # the quiver, then the basis
    assert searched == [c3.vertices, states(c3)]
    with pytest.raises(FormulaUnavailable):  # k[x]/(x^2) is not pre-generated
        classify_and_compute(AlgebraPresentation(loop, MonomialIdeal([path_of(loop, "x", "x")])))
    assert searched == [c3.vertices, states(c3), loop.vertices, states(loop)]
    union = _disjoint_union(*(_seeded_presentation("monomial", 7, 2, p) for p in "lr"))
    searched.clear()
    classify_and_compute(union)
    assert searched == [union.quiver.vertices]  # the union only: no component quiver is searched


def _table_instances():
    """Every quiver fixture, and seeded acyclic (path-algebra, monomial, truncated) and
    cyclic (monomial, truncated) presentations."""
    from quiverh1.cli import parse
    from test_presentations import random_cyclic_instance

    instances = [parse(fixture_text(path.name)).body for path in sorted(FIXTURE_DIR.glob("*.quiver"))]
    for seed in range(60):
        for kind in ("monomial", "truncated"):
            pres = _seeded_presentation(kind, seed, 2 + seed % 3)
            instances += [pres, AlgebraPresentation(pres.quiver)]
    instances += [AlgebraPresentation(cycle(n), TruncationIdeal(m)) for n in range(1, 6) for m in range(2, 5)]
    rng = random.Random(31)
    while len(instances) < 400:
        q, Z = random_cyclic_instance(rng)
        if not is_acyclic(q):
            instances += [AlgebraPresentation(q, Z), AlgebraPresentation(q, TruncationIdeal(rng.randint(2, 4)))]
    return instances


def test_every_applicable_row_of_the_table_agrees():
    """Each row either raises NotApplicable or gives the same dimension as the others, and
    dispatch returns the first row that applies."""
    seen = Counter()
    for pres in _table_instances():
        applicable = []
        for row in FORMULAS:
            try:
                applicable.append(row(pres))
            except NotApplicable:
                pass
            except InfiniteBasis:
                applicable.append("infinite")
        if "infinite" in applicable:
            assert applicable == ["infinite"]
            with pytest.raises(InfiniteBasis):
                classify_and_compute(pres)
        elif not applicable:
            with pytest.raises(FormulaUnavailable):
                classify_and_compute(pres)
        else:
            assert len({report.dim_h1 for report in applicable}) == 1
            assert classify_and_compute(pres) == applicable[0]
        seen[tuple(getattr(report, "method", report) for report in applicable)] += 1
    assert min(seen[("path_algebra_acyclic", "pregenerated")], seen[("monomial_acyclic", "pregenerated")],
               seen[("truncated_acyclic", "pregenerated")], seen[("pregenerated",)], seen[("infinite",)],
               seen[()]) >= 5  # every outcome occurs
