import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverh1.errors import InfinitePathSet, InvalidQuiver, NotApplicable
from quiverh1.quiver import (
    Arrow,
    Path,
    Quiver,
    arrow_path,
    compose,
    connected_components,
    enumerate_paths,
    is_acyclic,
    path_counts,
    trivial_path,
    validate,
)

from conftest import (
    a2, a3, branch, crown_quiver, cycle, dp_path_count, fib_dag, is_narrow, kronecker, parallel_pairs, path_of,
    random_connected_dag, reference_connected_components,
)


def test_validate_ok():
    assert validate(a2()) is not None


def test_validate_dangling_endpoint():
    q = Quiver(["x"], [Arrow("a", "x", "nowhere")])
    with pytest.raises(InvalidQuiver, match="dangling endpoint"):
        validate(q)


def test_validate_empty_vertex_set():
    with pytest.raises(InvalidQuiver, match="empty vertex set"):
        validate(Quiver([], []))


def test_validate_duplicate_names():
    with pytest.raises(InvalidQuiver, match="duplicate"):
        validate(Quiver(["x", "x"], []))
    with pytest.raises(InvalidQuiver, match="duplicate"):
        validate(Quiver(["x", "y"], [Arrow("a", "x", "y"), Arrow("a", "y", "x")]))


def test_is_acyclic():
    assert is_acyclic(a2())
    assert not is_acyclic(cycle(3))
    loop = Quiver(["x"], [Arrow("l", "x", "x")])
    assert not is_acyclic(loop)


def test_connected_components_counts():
    assert len(connected_components(a2())) == 1
    two = Quiver(
        ["x", "y", "u", "v"],
        [Arrow("a", "x", "y"), Arrow("b", "u", "v")],
    )
    assert len(connected_components(two)) == 2
    assert len(connected_components(Quiver(["p", "q", "r"], []))) == 3


def test_connected_components_partition():
    q = Quiver(
        ["x", "y", "u", "v", "w"],
        [Arrow("a", "x", "y"), Arrow("b", "u", "v"), Arrow("c", "v", "u")],
    )
    comps = connected_components(q)
    verts = [v for c in comps for v in c.vertices]
    arrs = [a.name for c in comps for a in c.arrows]
    assert sorted(verts) == sorted(q.vertices)
    assert sorted(arrs) == sorted(a.name for a in q.arrows)


@settings(max_examples=200)
@given(n=st.integers(1, 12), order=st.randoms(use_true_random=False),
       ends=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=10))
def test_connected_components_match_the_rescanning_search(n, order, ends):
    """Sparse random arrows (loops and parallel arrows too) over vertices listed in a random
    order leave several components and isolated vertices; each component has the same
    vertices and arrows, in the same order, as the search that rescans them all."""
    verts = [f"v{i}" for i in range(n)]
    order.shuffle(verts)
    q = Quiver(verts, [Arrow(f"a{k}", verts[i % n], verts[j % n]) for k, (i, j) in enumerate(ends)])
    assert ([(c.vertices, c.arrows) for c in connected_components(q)]
            == [(c.vertices, c.arrows) for c in reference_connected_components(q)])


def test_enumerate_paths_a3():
    paths = enumerate_paths(a3())
    assert len(paths) == 6
    assert [p.label() for p in paths[:3]] == ["e_x", "e_y", "e_z"]
    assert paths[-1].arrow_names() == ("a", "b")


def test_enumerate_paths_kronecker():
    assert len(enumerate_paths(kronecker(2))) == 4


def test_enumerate_paths_cycle_bounded():
    assert len(enumerate_paths(cycle(3), max_length=2)) == 9


def test_enumerate_paths_cycle_unbounded_raises():
    with pytest.raises(InfinitePathSet):
        enumerate_paths(cycle(3))


def test_enumerate_matches_dp_oracle():
    rng = random.Random(7)
    for _ in range(25):
        q = random_connected_dag(rng)
        assert len(enumerate_paths(q)) == dp_path_count(q)
        assert sum(n for layer in path_counts(q) for n in layer.values()) == dp_path_count(q)


def test_compose_identity_and_chain():
    q = a3()
    a = path_of(q, "a")
    b = path_of(q, "b")
    assert compose(trivial_path("x"), a) == a
    assert compose(a, trivial_path("y")) == a
    ab = compose(a, b)
    assert ab is not None and ab.arrow_names() == ("a", "b")
    assert compose(b, a) is None


def test_compose_associative_where_defined():
    rng = random.Random(11)
    for _ in range(10):
        q = random_connected_dag(rng)
        paths = enumerate_paths(q)
        sample = rng.sample(paths, min(6, len(paths)))
        for p in sample:
            for r in sample:
                for s in sample:
                    lhs = compose(p, r)
                    lhs = compose(lhs, s) if lhs else None
                    rhs = compose(r, s)
                    rhs = compose(p, rhs) if rhs else None
                    assert lhs == rhs


def test_parallel_pairs_counts():
    arrows2 = [arrow_path(a) for a in kronecker(2).arrows]
    assert len(parallel_pairs(arrows2, arrows2)) == 4
    q = a3()
    pairs = parallel_pairs(enumerate_paths(q), [arrow_path(a) for a in q.arrows])
    assert {(p.left.label(), p.right.label()) for p in pairs} == {("a", "a"), ("b", "b")}
    cq = crown_quiver()
    pairs = parallel_pairs(enumerate_paths(cq), [arrow_path(a) for a in cq.arrows])
    assert len(pairs) == 4


def test_parallel_pairs_contains_diagonal():
    rng = random.Random(3)
    for _ in range(10):
        q = random_connected_dag(rng)
        arrows = [arrow_path(a) for a in q.arrows]
        pairs = {(p.left.label(), p.right.label()) for p in parallel_pairs(arrows, arrows)}
        for a in q.arrows:
            assert (a.name, a.name) in pairs


def test_is_narrow():
    assert is_narrow(a3())
    assert not is_narrow(kronecker(2))
    assert is_narrow(crown_quiver())
    with pytest.raises(NotApplicable):
        is_narrow(cycle(3))


def test_path_invariants():
    q = a3()
    with pytest.raises(ValueError):
        Path("y", (q.arrows[0],))  # source mismatch
    with pytest.raises(ValueError):
        Path("x", (q.arrows[0], q.arrows[0]))  # not composable


@settings(max_examples=300)
@given(
    n=st.integers(1, 5),
    ends=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=7),
    acyclic=st.booleans(),
    bound=st.one_of(st.none(), st.integers(0, 4)),
)
def test_path_counts_match_enumeration(n, ends, acyclic, bound):
    """Per length and vertex pair, path_counts counts what enumerate_paths lists:
    random DAGs bounded and unbounded, and quivers with cycles, loops and
    multiple arrows at bounded length."""
    ends = [(s % n, t % n) for s, t in ends]
    if acyclic:
        ends = [(min(s, t), max(s, t)) for s, t in ends if s != t]
    q = Quiver([f"v{i}" for i in range(n)], [Arrow(f"a{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends)])
    if bound is None and not is_acyclic(q):
        with pytest.raises(InfinitePathSet):
            path_counts(q)
        return
    expected: dict[int, Counter] = {}
    for p in enumerate_paths(q, max_length=bound):
        expected.setdefault(p.length, Counter())[(p.source, p.target)] += 1
    assert dict(enumerate(path_counts(q, max_length=bound))) == {k: dict(c) for k, c in expected.items()}


@settings(max_examples=300)
@given(n=st.integers(1, 5), ends=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=7))
@example(n=1, ends=[(0, 0)])  # a loop
@example(n=2, ends=[(0, 1), (0, 1)])  # parallel arrows, no cycle
@example(n=3, ends=[(0, 1), (0, 1), (1, 2), (2, 0)])  # parallel arrows on a cycle
def test_acyclic_iff_no_closed_path_within_the_vertex_count(n, ends):
    """Quiver.acyclic is true exactly when no (v, v) appears in layers 1..|Q0| of the path
    counts, since every cycle contains one of at most |Q0| arrows.  Loops and parallel
    arrows are drawn."""
    ends = [(s % n, t % n) for s, t in ends]
    q = Quiver([f"v{i}" for i in range(n)], [Arrow(f"a{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(ends)])
    layers = path_counts(q, max_length=n)[1:]
    assert q.acyclic is not any((v, v) in layer for layer in layers for v in q.vertices)


def test_path_counts_unbounded_on_a_cycle_raises():
    with pytest.raises(InfinitePathSet):
        path_counts(cycle(3))
    assert [sum(layer.values()) for layer in path_counts(cycle(3), max_length=2)] == [3, 3, 3]


def test_path_counts_fib_dag_beyond_enumeration():
    # paths from the first to the last vertex of the n-vertex Fib-DAG: Fibonacci F(n)
    counts = path_counts(fib_dag(40))
    assert sum(layer.get(("v0", "v39"), 0) for layer in counts) == 102334155
    assert len(counts) == 40  # the longest path has 39 arrows
