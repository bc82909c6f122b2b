import random
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverh1.errors import InfiniteBasis, InvalidIdeal
from quiverh1.exactalg import regular_bimodule
from quiverh1.presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    StructureConstantAlgebra,
    TruncationIdeal,
    basis_B,
    build_algebra,
    check_minimal,
    is_pregenerated_monomial,
    slice_ideal_dims,
    truncated_is_pregenerated,
    truncation_generators,
)
from quiverh1.quiver import Arrow, Path, Quiver, connected_components, enumerate_paths, is_acyclic
from quiverh1.simplicial import Poset, incidence_algebra

from conftest import (
    a2, a3, branch, center_dim, contains_generator, cycle, fib_dag, kronecker, max_avoiding_length, multiply,
    occurrences, path_of, product_basis, random_connected_dag, random_minimal_ideal, random_monomial_instances,
)


def line4():
    """Four vertices in a row with arrows a, b, c."""
    return Quiver(
        ["v1", "v2", "v3", "v4"],
        [Arrow("a", "v1", "v2"), Arrow("b", "v2", "v3"), Arrow("c", "v3", "v4")],
    )


def test_check_minimal_ok():
    q = a3()
    ideal = check_minimal([path_of(q, "a", "b")])
    assert len(ideal.generators) == 1
    assert check_minimal([]).generators == ()


def test_an_ideal_dedupes_and_sorts_its_generators_without_hashing_a_path(monkeypatch):
    q = line4()
    ab, bc, abc = path_of(q, "a", "b"), path_of(q, "b", "c"), path_of(q, "a", "b", "c")
    monkeypatch.setattr(Path, "__hash__", lambda self: pytest.fail("a Path was hashed"))
    ideal = MonomialIdeal([abc, bc, path_of(q, "a", "b"), ab, bc])
    assert ideal.generators == (ab, bc, abc)
    assert ideal.names == frozenset({("a", "b"), ("b", "c"), ("a", "b", "c")}) and ideal.lengths == (2, 3)


def test_check_minimal_rejects_short_generator():
    q = a3()
    with pytest.raises(InvalidIdeal, match="length < 2"):
        check_minimal([path_of(q, "a")])


def test_check_minimal_rejects_nested():
    q = line4()
    with pytest.raises(InvalidIdeal, match="non-minimal"):
        check_minimal([path_of(q, "a", "b"), path_of(q, "a", "b", "c")])


def test_contains_generator():
    q = line4()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    assert contains_generator(path_of(q, "a", "b"), Z)
    assert contains_generator(path_of(q, "a", "b", "c"), Z)
    assert not contains_generator(path_of(q, "a"), Z)
    assert not contains_generator(path_of(q, "b", "c"), Z)


def test_basis_B_a3():
    q = a3()
    B = basis_B(q, MonomialIdeal([path_of(q, "a", "b")]))
    assert [p.label() for p in B] == ["e_x", "e_y", "e_z", "a", "b"]


def test_basis_B_branch():
    q = branch()
    B = basis_B(q, MonomialIdeal([path_of(q, "a", "b")]))
    assert len(B) == 7
    assert any(p.arrow_names() == ("a", "c") for p in B)


def test_basis_B_infinite():
    with pytest.raises(InfiniteBasis):
        basis_B(cycle(3), MonomialIdeal([]))


def test_basis_B_empty_ideal_is_all_paths():
    rng = random.Random(5)
    for _ in range(10):
        q = random_connected_dag(rng)
        assert basis_B(q, MonomialIdeal([])) == enumerate_paths(q)


def test_basis_avoids_generators():
    rng = random.Random(6)
    for _ in range(10):
        q = random_connected_dag(rng)
        Z = random_minimal_ideal(rng, q)
        for p in basis_B(q, Z):
            assert not contains_generator(p, Z)


def test_admissibility():
    c3 = cycle(3)
    assert basis_B(c3, truncation_generators(c3, 2))
    with pytest.raises(InfiniteBasis):
        basis_B(c3, MonomialIdeal([]))
    assert basis_B(a3(), MonomialIdeal([]))[-1].length == 2


def test_max_avoiding_length():
    c3 = cycle(3)
    assert basis_B(c3, truncation_generators(c3, 2))[-1].length == 1
    with pytest.raises(InfiniteBasis, match="infinite basis: quiver is cyclic and the ideal is not admissible"):
        basis_B(c3, MonomialIdeal([]))


def test_slice_dims_a3():
    q = a3()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    assert slice_ideal_dims(AlgebraPresentation(q, Z), "x", "z") == (1, 0, 1)
    assert slice_ideal_dims(AlgebraPresentation(q, Z), "z", "x") == (0, 0, 0)


def test_slice_dims_line4():
    q = line4()
    Z = MonomialIdeal([path_of(q, "a", "b")])
    # the path a*b*c contains a*b, which does not end at the last arrow
    assert slice_ideal_dims(AlgebraPresentation(q, Z), "v1", "v4") == (1, 1, 1)


def test_slice_dims_monotone():
    rng = random.Random(8)
    for _ in range(15):
        q = random_connected_dag(rng)
        Z = random_minimal_ideal(rng, q)
        for x in q.vertices:
            for y in q.vertices:
                dI, dF, dT = slice_ideal_dims(AlgebraPresentation(q, Z), x, y)
                assert dF <= dI <= dT


def test_pregenerated_examples():
    q = a3()
    assert is_pregenerated_monomial(AlgebraPresentation(q, MonomialIdeal([path_of(q, "a", "b")])))
    shortcut = Quiver(
        ["v1", "v2", "v3"],
        [Arrow("a", "v1", "v2"), Arrow("b", "v2", "v3"), Arrow("c", "v1", "v3")],
    )
    assert not is_pregenerated_monomial(AlgebraPresentation(shortcut, MonomialIdeal([path_of(shortcut, "a", "b")])))
    c3 = cycle(3)
    assert is_pregenerated_monomial(AlgebraPresentation(c3, truncation_generators(c3, 2)))


def _all_small_quivers(max_vertices=3, max_arrows=3):
    for nv in range(1, max_vertices + 1):
        verts = [f"v{i}" for i in range(nv)]
        arcs = list(product(range(nv), range(nv)))
        for na in range(0, max_arrows + 1):
            for combo in combinations_with_replacement(arcs, na):
                arrows = [Arrow(f"a{k}", verts[i], verts[j]) for k, (i, j) in enumerate(combo)]
                yield Quiver(verts, arrows)


def _shortcut_pregenerated(q, Z):
    """Every path x->y contains a generator, or no generator runs from x to y."""
    bound = None if is_acyclic(q) else max_avoiding_length(q, Z) + Z.max_generator_length
    paths = enumerate_paths(q, max_length=bound)
    for x in q.vertices:
        for y in q.vertices:
            between = [p for p in paths if p.source == x and p.target == y]
            if not between:
                continue
            all_contain = all(contains_generator(p, Z) for p in between)
            no_gen = not any(z.source == x and z.target == y for z in Z.generators)
            if not (all_contain or no_gen):
                return False
    return True


def test_pregenerated_shortcut_agrees_exhaustively():
    # all quivers with <= 3 vertices and <= 3 arrows, all minimal sets of
    # length-2 generators, restricted to admissible instances
    checked = 0
    for q in _all_small_quivers():
        length2 = [p for p in enumerate_paths(q, max_length=2) if p.length == 2]
        # dedupe by arrow names (parallel arrow multiplicities can repeat labels)
        for r in range(len(length2) + 1):
            from itertools import combinations

            for sub in combinations(length2, r):
                Z = MonomialIdeal(sub)
                if not is_acyclic(q) and max_avoiding_length(q, Z) is None:
                    continue
                assert is_pregenerated_monomial(AlgebraPresentation(q, Z)) == _shortcut_pregenerated(q, Z)
                checked += 1
    assert checked > 200


def test_fi_if_characterization_against_brute_force():
    # occurrence-position rule vs explicit products of an arrow-ideal element
    # with an ideal element
    rng = random.Random(9)
    for _ in range(10):
        q = random_connected_dag(rng)
        Z = random_minimal_ideal(rng, q)
        if not Z.generators:
            continue
        for p in enumerate_paths(q):
            if not contains_generator(p, Z):
                continue
            occs = [
                (i, i + z.length)
                for z in Z.generators
                for i in range(p.length - z.length + 1)
                if p.arrow_names()[i : i + z.length] == z.arrow_names()
            ]
            by_rule = any(i > 0 or j < p.length for (i, j) in occs)
            by_split = False
            for cut in range(1, p.length):
                left = p.arrow_names()[:cut]
                right = p.arrow_names()[cut:]
                for z in Z.generators:
                    zn = z.arrow_names()
                    if any(right[i : i + len(zn)] == zn for i in range(len(right) - len(zn) + 1)):
                        by_split = True  # F * I
                    if any(left[i : i + len(zn)] == zn for i in range(len(left) - len(zn) + 1)):
                        by_split = True  # I * F
            assert by_rule == by_split


def test_truncated_is_pregenerated():
    c3 = cycle(3)
    assert truncated_is_pregenerated(c3, 2)
    assert not truncated_is_pregenerated(c3, 3)
    assert truncated_is_pregenerated(a3(), 2)


def test_build_algebra_dimensions():
    assert build_algebra(AlgebraPresentation(a2())).dimension == 3
    pres = AlgebraPresentation(cycle(3), TruncationIdeal(2))
    alg = build_algebra(pres)
    assert alg.dimension == 6
    # all arrow-by-arrow products vanish at truncation level 2
    idx_arrows = [i for i, p in enumerate(pres.basis) if p.length == 1]
    for i in idx_arrows:
        for j in idx_arrows:
            assert product_basis(alg, i, j) == {}


def test_build_algebra_monomial_matches_basis():
    rng = random.Random(10)
    for _ in range(10):
        q = random_connected_dag(rng)
        Z = random_minimal_ideal(rng, q)
        alg = build_algebra(AlgebraPresentation(q, Z))
        assert alg.dimension == len(basis_B(q, Z))


def test_build_algebra_infinite():
    with pytest.raises(InfiniteBasis):
        build_algebra(AlgebraPresentation(cycle(3)))


def test_a_presentation_takes_no_scheme_but_relations_on_its_quiver():
    """A poset, or any other object, is not a relation scheme: it raises InvalidIdeal and
    is never read as a truncation.  A poset's algebra is simplicial.incidence_algebra."""
    poset = Poset.from_pairs(["x", "y", "z"], [("z", "y"), ("y", "x")])
    for scheme in (poset, object()):
        pres = AlgebraPresentation(a3(), scheme)
        for read in (lambda: pres.kind, lambda: pres.basis, lambda: build_algebra(pres)):
            with pytest.raises(InvalidIdeal, match="unknown relation scheme"):
                read()
    assert incidence_algebra(poset).dimension == 6


def test_algebra_check_catches_bad_table():
    alg = build_algebra(AlgebraPresentation(a2()))
    from quiverh1.presentations import StructureConstantAlgebra

    bad = StructureConstantAlgebra(alg.basis, {**alg.table, (2, 2): 2}, alg.vertex_idempotents)
    with pytest.raises(AssertionError):
        bad.check()
    assert _outcome(regular_bimodule, bad) == _outcome(StructureConstantAlgebra.check, bad)


def test_the_oracle_refuses_two_vertices_on_one_idempotent():
    """k with both of its vertices on its one basis element: the unit acts as 1, so
    validate() accepts its regular bimodule, but the idempotents that the bar complex keys
    its slices by are not orthogonal.  check(), which regular_bimodule runs, refuses it."""
    alg = StructureConstantAlgebra(("1",), {(0, 0): 0}, {"v": 0, "w": 0})
    for verify in (StructureConstantAlgebra.check, regular_bimodule):
        assert _outcome(verify, alg) == "idempotents v, w are not orthogonal"


# --- the one-pass routes against the code they replaced ------------------------


def reference_check(alg):
    """The all-triples check() that the row-grouped one replaced, kept as the reference."""
    d = alg.dimension
    unit = {i: 1 for i in alg.vertex_idempotents.values()}  # the sum of the vertex idempotents
    for i in range(d):
        for j in range(d):
            pij = product_basis(alg, i, j)
            for k in range(d):
                left = multiply(alg, pij, {k: 1})
                right = multiply(alg, {i: 1}, product_basis(alg, j, k))
                if left != right:
                    raise AssertionError(
                        f"associativity failure at ({alg.basis[i]}, {alg.basis[j]}, {alg.basis[k]})"
                    )
    for i in range(d):
        if multiply(alg, unit, {i: 1}) != {i: 1} or multiply(alg, {i: 1}, unit) != {i: 1}:
            raise AssertionError(f"unit failure at {alg.basis[i]}")
    idems = list(alg.vertex_idempotents.items())
    total = {}
    for v, i in idems:
        if product_basis(alg, i, i) != {i: 1}:
            raise AssertionError(f"vertex element {v} is not idempotent")
        total[i] = total.get(i, 0) + 1
    for (v, i) in idems:
        for (w, j) in idems:
            if v != w and product_basis(alg, i, j):
                raise AssertionError(f"idempotents {v}, {w} are not orthogonal")
    if total != unit:
        raise AssertionError("vertex idempotents do not sum to the unit")


def _seeded_algebra(family: str, seed: int):
    rng = random.Random(seed)
    if family == "monomial":
        while True:
            q = random_connected_dag(rng, max_vertices=4, max_arrows=5)
            alg = build_algebra(AlgebraPresentation(q, random_minimal_ideal(rng, q)))
            if alg.dimension <= 14:
                return alg
    if family == "truncated":
        return build_algebra(AlgebraPresentation(cycle(rng.randint(1, 4)), TruncationIdeal(rng.randint(2, 4))))
    elements = [f"p{i}" for i in range(rng.randint(1, 5))]
    pairs = [(a, b) for i, a in enumerate(elements) for b in elements[i + 1 :] if rng.random() < 0.4]
    return incidence_algebra(Poset.from_pairs(elements, pairs))


IDEMPOTENT_MUTATIONS = ["drop", "add", "redirect", "merge"]


def mutate_idempotents(alg, mutation: str, pick: int, target: int):
    """The algebra with one vertex dropped, a vertex added or redirected to a basis element,
    or every vertex merged onto one element; the unit, their sum, changes with them."""
    d, idems = alg.dimension, dict(alg.vertex_idempotents)
    key = sorted(idems)[pick % len(idems)]
    if mutation == "drop":
        del idems[key]
    elif mutation == "add":
        idems["extra"] = target % d
    elif mutation == "redirect":
        idems[key] = target % d
    else:
        idems = dict.fromkeys(idems, idems[key])
    return StructureConstantAlgebra(alg.basis, alg.table, idems)


def _outcome(check, alg):
    try:
        check(alg)
    except AssertionError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence"]),
    seed=st.integers(0, 2**32 - 1),
    mutation=st.sampled_from(["redirect", "drop", "add"]),
    pick=st.integers(0, 2**32 - 1),
    target=st.integers(0, 2**32 - 1),
)
def test_check_rejects_exactly_what_the_all_triples_loop_rejects(family, seed, mutation, pick, target):
    alg = _seeded_algebra(family, seed)
    d = alg.dimension
    table = dict(alg.table)
    present = sorted(table)
    absent = [(i, j) for i in range(d) for j in range(d) if (i, j) not in table]
    if mutation == "redirect":
        key = present[pick % len(present)]
        table[key] = target % d
    elif mutation == "drop":
        del table[present[pick % len(present)]]
    elif absent:
        table[absent[pick % len(absent)]] = target % d
    bad = StructureConstantAlgebra(alg.basis, table, alg.vertex_idempotents)
    assert _outcome(StructureConstantAlgebra.check, bad) == _outcome(reference_check, bad)
    assert _outcome(regular_bimodule, bad) == _outcome(reference_check, bad)


@settings(max_examples=300)
@given(
    family=st.sampled_from(["monomial", "truncated", "incidence"]),
    seed=st.integers(0, 2**32 - 1),
    mutation=st.sampled_from(IDEMPOTENT_MUTATIONS),
    pick=st.integers(0, 2**32 - 1),
    target=st.integers(0, 2**32 - 1),
)
def test_check_rejects_exactly_what_the_all_triples_loop_rejects_on_the_unit(family, seed, mutation, pick, target):
    """The unit, idempotent and orthogonality axioms read off the rows fail where the
    loops over every basis element and every pair of vertices fail, with the same message,
    and regular_bimodule, which runs check(), fails alike."""
    alg = _seeded_algebra(family, seed)
    bad = mutate_idempotents(alg, mutation, pick, target)
    assert _outcome(StructureConstantAlgebra.check, bad) == _outcome(reference_check, bad)
    assert _outcome(regular_bimodule, bad) == _outcome(reference_check, bad)


def _reference_bound(q, Z):
    return None if is_acyclic(q) else max_avoiding_length(q, Z) + Z.max_generator_length


def reference_basis(q, Z):
    """The enumerate-then-filter basis that the avoidance search replaced."""
    return [
        p for p in enumerate_paths(q, max_length=_reference_bound(q, Z))
        if not any(occurrences(p, z) for z in Z.generators)
    ]


def reference_slice_dims(q, Z):
    """The slice counts that the one-pass table replaced: {(x, y): (dim yIx, dim y(FI+IF)x,
    dim y(kQ)x)} over the vertex pairs joined by a path, from one enumeration."""
    dims = {}
    for p in enumerate_paths(q, max_length=_reference_bound(q, Z)):
        dim_I, dim_FIIF, dim_total = dims.get((p.source, p.target), (0, 0, 0))
        occs = [(i, i + z.length) for z in Z.generators for i in occurrences(p, z)]
        if occs:
            dim_I += 1
            if any(i > 0 or j < p.length for (i, j) in occs):
                dim_FIIF += 1
        dims[(p.source, p.target)] = (dim_I, dim_FIIF, dim_total + 1)
    return dims


def _one_pass_instances(monomial_instances):
    cycles = [(cycle(n), truncation_generators(cycle(n), m)) for n, m in ((6, 3), (8, 4), (10, 5))]
    return list(monomial_instances) + cycles


def test_basis_B_matches_enumerate_then_filter(monomial_instances):
    for q, Z in _one_pass_instances(monomial_instances):
        assert basis_B(q, Z) == reference_basis(q, Z)


@pytest.fixture(scope="module")
def cyclic_admissible_instances():
    """The admissible instances among 640 draws of ``random_cycle_instance`` under
    ``random.Random(5)``: at least 300, and at least 30 of them pre-generated."""
    rng = random.Random(5)
    draws = [random_cycle_instance(rng) for _ in range(640)]
    return [(q, Z) for q, Z in draws if max_avoiding_length(q, Z) is not None]


def test_slice_dims_match_per_pair_count(monomial_instances, cyclic_admissible_instances):
    for q, Z in _one_pass_instances(monomial_instances) + cyclic_admissible_instances:
        presentation, expected = AlgebraPresentation(q, Z), reference_slice_dims(q, Z)
        for x in q.vertices:
            for y in q.vertices:
                assert slice_ideal_dims(presentation, x, y) == expected.get((x, y), (0, 0, 0))


def test_pregenerated_matches_the_shortcut_on_cyclic_instances(cyclic_admissible_instances):
    verdicts = [is_pregenerated_monomial(AlgebraPresentation(q, Z)) for q, Z in cyclic_admissible_instances]
    assert verdicts == [_shortcut_pregenerated(q, Z) for q, Z in cyclic_admissible_instances]
    assert len(verdicts) >= 300 and sum(verdicts) >= 30


def test_pregenerated_test_enumerates_paths_once(monkeypatch):
    """The test reads the basis and lists or counts no path of kQ."""
    from quiverh1 import presentations

    q = cycle(10)
    Z = truncation_generators(q, 3)
    calls = []
    for name in ("enumerate_paths", "path_counts"):
        real = getattr(presentations, name)
        monkeypatch.setattr(presentations, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    assert is_pregenerated_monomial(AlgebraPresentation(q, Z))
    assert len(calls) == 0


def reference_check_minimal(Z):
    """The pairwise minimality test that the sub-sequence lookup replaced."""
    gens = list(Z)
    for z in gens:
        if z.length < 2:
            raise InvalidIdeal(f"length < 2 generator: {z.label()}", z)
    ideal = MonomialIdeal(gens)
    for z in ideal.generators:
        for w in ideal.generators:
            if w is z or w.length >= z.length:
                continue
            if occurrences(z, w):
                raise InvalidIdeal(f"non-minimal: {z.label()} contains {w.label()}", z)
    return ideal


def _minimality_outcome(check, gens):
    try:
        return check(gens).generators
    except InvalidIdeal as exc:
        return str(exc), exc.generator


@settings(max_examples=300)
@given(cyclic=st.booleans(), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
def test_check_minimal_matches_the_pairwise_test(cyclic, seed, k):
    """Same ideal, or the same generator and message, on random generator sets
    (nested ones included, and on cycles generators that repeat arrows)."""
    rng = random.Random(seed)
    if cyclic:
        q = cycle(rng.randint(1, 4))
        paths = enumerate_paths(q, max_length=6)
    else:
        q = random_connected_dag(rng, max_vertices=6, max_arrows=10)
        paths = enumerate_paths(q)
    candidates = [p for p in paths if p.length >= 2]
    gens = rng.sample(candidates, min(k, len(candidates)))
    assert _minimality_outcome(check_minimal, gens) == _minimality_outcome(reference_check_minimal, gens)


def reference_truncated_is_pregenerated(q, m):
    """The two-enumeration test that the per-length path counts replaced."""
    short = {(p.source, p.target) for p in enumerate_paths(q, max_length=m - 1)}
    return not any(p.length == m and (p.source, p.target) in short for p in enumerate_paths(q, max_length=m))


def test_truncated_is_pregenerated_matches_two_enumerations():
    rng = random.Random(37)
    quivers = [cycle(n) for n in range(1, 7)] + [fib_dag(n) for n in range(2, 9)] + [kronecker(2), branch()]
    for _ in range(30):
        q = random_connected_dag(rng)
        back = Arrow("back", q.vertices[-1], q.vertices[rng.randrange(len(q.vertices))])
        quivers += [q, Quiver(q.vertices, q.arrows + (back,))]
    seen = set()
    for q in quivers:
        for m in range(2, 7):
            expected = reference_truncated_is_pregenerated(q, m)
            assert truncated_is_pregenerated(q, m) == expected
            seen.add(expected)
    assert seen == {True, False}


# --- basis_B's cycle detection against the avoidance automaton it replaced -----


def ideal_of_walks(q: Quiver, walks) -> MonomialIdeal:
    """The minimal ideal of the walks of length >= 2 among ``walks``; a walk (start, choices)
    leaves each vertex by arrow choices[k] (modulo the arrows there), and one that contains
    or lies in an earlier walk is dropped."""
    chosen = []
    for start, choices in walks:
        p = Path(start)
        for c in choices:
            out = q.successors[p.target]
            if out:
                p = Path(p.source, p.arrows + (out[c % len(out)],))
        if p.length >= 2 and not any(occurrences(p, z) or occurrences(z, p) for z in chosen):
            chosen.append(p)
    return check_minimal(chosen)


def random_cyclic_instance(rng: random.Random):
    """A quiver with <= 4 vertices and <= 5 arrows between random endpoints, and a minimal
    ideal of random walks of length 2-4."""
    verts = [f"v{i}" for i in range(rng.randint(1, 4))]
    q = Quiver(verts, [Arrow(f"a{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(1, 5))])
    return q, random_walk_ideal(rng, q)


def random_cycle_instance(rng: random.Random):
    """A directed 3- or 4-cycle through every vertex, random arrows up to 5 in all, and a
    minimal ideal of random walks of length 2-4.  Cyclic by construction; unlike random
    endpoints, which rarely give one, about a quarter of its admissible draws are
    pre-generated."""
    n = rng.randint(3, 4)
    verts = [f"v{i}" for i in range(n)]
    arrows = [Arrow(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    arrows += [Arrow(f"a{k}", rng.choice(verts), rng.choice(verts)) for k in range(rng.randint(0, 5 - n))]
    q = Quiver(verts, arrows)
    return q, random_walk_ideal(rng, q)


def random_walk_ideal(rng: random.Random, q: Quiver) -> MonomialIdeal:
    """The minimal ideal of up to 8 random walks of length 2-4 in q."""
    walks = [(rng.choice(q.vertices), [rng.randrange(5) for _ in range(rng.randint(2, 4))])
             for _ in range(rng.randint(0, 8))]
    return ideal_of_walks(q, walks)


def basis_B_against_the_automaton(q, Z):
    """basis_B raises InfiniteBasis exactly when the automaton's state graph has a cycle
    (returns None); otherwise its longest path is the automaton's, it lists every avoiding
    path, and it is returned."""
    longest = max_avoiding_length(q, Z)
    if longest is None:
        with pytest.raises(InfiniteBasis, match="infinite basis: quiver is cyclic and the ideal is not admissible"):
            basis_B(q, Z)
        return None
    B = basis_B(q, Z)
    assert B[-1].length == longest
    assert B == [p for p in enumerate_paths(q, max_length=longest) if not contains_generator(p, Z)]
    return B


def test_basis_B_decides_finiteness_as_the_automaton_does():
    rng = random.Random(5)
    finite = []
    while len(finite) < 1500:
        q, Z = random_cyclic_instance(rng)
        if not is_acyclic(q):
            finite.append(basis_B_against_the_automaton(q, Z) is not None)
    assert 300 < sum(finite) < 1200  # both verdicts are well represented


@st.composite
def quiver_with_walks(draw):
    """A quiver with <= 4 vertices and <= 5 arrows, and a minimal ideal of walks of length
    2-4, each given by a start vertex and an arrow choice at every step."""
    n = draw(st.integers(1, 4))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=5))
    q = Quiver([f"v{i}" for i in range(n)], [Arrow(f"a{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(ends)])
    choices = st.lists(st.integers(0, 4), min_size=2, max_size=4)
    walks = draw(st.lists(st.tuples(st.sampled_from(q.vertices), choices), max_size=6))
    return q, ideal_of_walks(q, walks)


@settings(max_examples=300)
@given(instance=quiver_with_walks())
def test_basis_B_is_the_set_of_avoiding_paths_or_raises(instance):
    """A finite basis holds every trivial path and is closed under exactly the arrow
    extensions that end no generator; an infinite verdict is the automaton's."""
    q, Z = instance
    B = basis_B_against_the_automaton(q, Z)
    if B is None:
        return
    B = set(B)
    assert {Path(v) for v in q.vertices} <= B
    for p in B:
        assert not contains_generator(p, Z)
        for a in q.successors[p.target]:
            longer = Path(p.source, p.arrows + (a,))
            assert (longer in B) == (not any(z.arrow_names() == longer.arrow_names()[-z.length:]
                                             for z in Z.generators))


def test_basis_B_decides_an_infinite_basis_before_listing_a_path(monkeypatch):
    """A Fib-DAG with a loop at its first vertex, where only s0*s1 is killed, has
    Fibonacci-many avoiding paths before any cycle; the state search raises first."""
    dag = fib_dag(40)
    q = Quiver(dag.vertices, dag.arrows + (Arrow("x", "v0", "v0"),))
    Z = MonomialIdeal([path_of(q, "s0", "s1")])
    extensions = []

    def counted(p, a, real=Path._then):
        extensions.append(a)
        assert len(extensions) < 1000, "paths are listed before the basis is found infinite"
        return real(p, a)

    monkeypatch.setattr(Path, "_then", counted)
    with pytest.raises(InfiniteBasis, match="infinite basis: quiver is cyclic and the ideal is not admissible"):
        basis_B(q, Z)
    assert extensions == []


# --- the centre count against the invariant system of the regular bimodule ------

PRIMES = (None, 2, 3, 5)


def admissible_cycle_presentation(rng: random.Random) -> AlgebraPresentation:
    """The first ``random_cycle_instance`` draw with a finite basis of at most 60 paths."""
    while True:
        pres = AlgebraPresentation(*random_cycle_instance(rng))
        try:
            if len(pres.basis) <= 60:
                return pres
        except InfiniteBasis:
            pass


def truncated_cycles():
    """n-cycles, n <= 5, truncated at 2 <= m <= 6, as a truncation and as its generators."""
    for n, m in product(range(1, 6), range(2, 7)):
        yield AlgebraPresentation(cycle(n), TruncationIdeal(m))
        yield AlgebraPresentation(cycle(n), truncation_generators(cycle(n), m))


def test_center_count_matches_the_invariant_system(monomial_instances):
    """Seeded acyclic and cyclic monomial, truncated and Fib-DAG presentations, each over Q,
    F_2, F_3 and F_5."""
    rng = random.Random(11)
    presentations = [AlgebraPresentation(q, Z) for q, Z in monomial_instances]
    presentations += [admissible_cycle_presentation(rng) for _ in range(100)]
    presentations += list(truncated_cycles())
    presentations += [AlgebraPresentation(fib_dag(n)) for n in range(1, 9)]
    compared = 0
    for pres in presentations:
        algebra = build_algebra(pres)
        for prime in PRIMES:
            assert pres.center_dim == center_dim(algebra, prime), (pres, prime)
            compared += 1
    assert compared >= 1000


@settings(max_examples=100)
@given(
    family=st.sampled_from(["acyclic", "cyclic", "truncated", "fib"]),
    seed=st.integers(0, 2**32 - 1),
    prime=st.sampled_from(PRIMES),
)
def test_center_count_matches_the_invariant_system_on_random_presentations(family, seed, prime):
    rng = random.Random(seed)
    if family == "acyclic":
        pres = AlgebraPresentation(*random_monomial_instances(seed, 1)[0])
    elif family == "cyclic":
        pres = admissible_cycle_presentation(rng)
    elif family == "truncated":
        pres = rng.choice(list(truncated_cycles()))
    else:
        pres = AlgebraPresentation(fib_dag(rng.randint(1, 8)))
    assert pres.center_dim == center_dim(build_algebra(pres), prime)
