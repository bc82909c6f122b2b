import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverh1 import cli
from quiverh1.errors import InvalidPoset
from quiverh1.exactalg import h1_oracle, regular_bimodule
from quiverh1.formulas import h1_path_algebra_acyclic
from quiverh1.presentations import AlgebraPresentation
from quiverh1.simplicial import (
    Poset,
    incidence_algebra,
    order_complex,
    simplicial_h_dim,
    _coboundary,
)

from conftest import (
    hasse_quiver, is_narrow, reference_covers, reference_from_pairs, reference_incidence_table,
    reference_order_complex, validate_poset,
)


def chain(n: int) -> Poset:
    elems = [f"c{i}" for i in range(n)]
    return Poset.from_pairs(elems, [(elems[i], elems[i + 1]) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return Poset.from_pairs([f"p{i}" for i in range(n)], [])


def crown() -> Poset:
    return Poset.from_pairs("abcd", [("c", "a"), ("d", "a"), ("c", "b"), ("d", "b")])


def diamond_printed() -> Poset:
    # the printed relations force a >= b by transitivity
    return Poset.from_pairs("abcd", [("c", "a"), ("d", "a"), ("b", "c"), ("b", "d")])


def test_validate_poset():
    validate_poset(chain(3))
    validate_poset(antichain(4))
    with pytest.raises(InvalidPoset, match="antisymmetry"):
        Poset.from_pairs("ab", [("a", "b"), ("b", "a")])


def test_closure_is_computed_from_covers():
    p = chain(3)
    assert p.leq("c0", "c2")


def test_hasse_quiver():
    hq = hasse_quiver(crown())
    assert len(hq.vertices) == 4 and len(hq.arrows) == 4
    hq = hasse_quiver(chain(3))
    assert len(hq.arrows) == 2  # no arrow for the composite relation
    hq = hasse_quiver(antichain(5))
    assert len(hq.arrows) == 0


def test_incidence_algebra_dimensions():
    assert incidence_algebra(chain(2)).dimension == 3
    assert incidence_algebra(crown()).dimension == 8
    assert incidence_algebra(antichain(4)).dimension == 4


def test_order_complex_counts():
    for poset, counts in ((crown(), (4, 4, 0)), (chain(3), (3, 3, 1)), (antichain(3), (3, 0, 0))):
        c = order_complex(poset)
        assert tuple(len(c.simplices_by_dim.get(d, ())) for d in range(3)) == counts


def test_coboundary_composite_vanishes():
    rng = random.Random(31)
    for _ in range(20):
        p = _random_poset(rng, rng.randint(1, 6))
        c = order_complex(p)
        (_, d0), (_, d1) = _coboundary(c, 0), _coboundary(c, 1)
        for row in d1.values():
            acc = {}
            for c1, v1 in row.items():
                for c0, v0 in d0[c1].items():
                    acc[c0] = acc.get(c0, 0) + v1 * v0
            assert not any(acc.values())


def test_simplicial_h_dims():
    assert simplicial_h_dim(order_complex(crown()), 1) == 1
    assert simplicial_h_dim(order_complex(chain(3)), 1) == 0
    assert simplicial_h_dim(order_complex(antichain(3)), 0) == 3


def test_h0_counts_components_of_comparability_graph():
    rng = random.Random(33)
    for _ in range(20):
        p = _random_poset(rng, rng.randint(1, 6))
        comps = _comparability_components(p)
        assert simplicial_h_dim(order_complex(p), 0) == comps


def _comparability_components(p: Poset) -> int:
    adj = {e: set() for e in p.elements}
    for a, b in p.relation:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    comps = 0
    for e in p.elements:
        if e in seen:
            continue
        comps += 1
        stack = [e]
        seen.add(e)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return comps


def _random_poset(rng: random.Random, n: int) -> Poset:
    elems = [f"e{i}" for i in range(n)]
    pairs = []
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.4:
            pairs.append((elems[i], elems[j]))  # respects the index order: always a DAG
    return Poset.from_pairs(elems, pairs)


def run_poset(p: Poset, prime=None) -> cli.RunReport:
    """The ``poset`` command, which sets the Hochschild H^1 of the incidence algebra against
    the simplicial H^1 of the order complex (Gerstenhaber-Schack), on the poset's document
    written out and parsed back."""
    return cli.run("poset", cli.parse(cli.serialize(cli.InputDocument("poset", "p", p))), prime)


def test_gs_compare_fixed_posets():
    for p, dim in ((crown(), 1), (chain(3), 0), (diamond_printed(), 0)):
        r = run_poset(p)
        assert r.methods == {"oracle": dim, "erelative": dim, "simplicial": dim}
        assert r.agree
        assert r.checks == {"bar_h0": simplicial_h_dim(order_complex(p), 0)}
    assert incidence_algebra(diamond_printed()).dimension == 9


def test_gs_compare_random_posets():
    rng = random.Random(35)
    for _ in range(15):
        p = _random_poset(rng, rng.randint(1, 6))
        for prime in (None, 2, 3):
            r = run_poset(p, prime)
            assert set(r.methods) == {"oracle", "erelative", "simplicial"} and r.agree
            assert r.checks == {"bar_h0": simplicial_h_dim(order_complex(p), 0, prime)}


def test_narrow_hasse_matches_path_algebra_formula():
    # when the Hasse quiver is narrow there are no parallel-path differences,
    # so the incidence algebra is the path algebra and the acyclic formula applies
    rng = random.Random(37)
    checked = 0
    for _ in range(30):
        p = _random_poset(rng, rng.randint(2, 6))
        hq = hasse_quiver(p)
        if not is_narrow(hq):
            continue
        alg = incidence_algebra(p)
        assert h1_path_algebra_acyclic(AlgebraPresentation(hq)).dim_h1 == h1_oracle(regular_bimodule(alg))
        checked += 1
    assert checked >= 5


@st.composite
def poset_inputs(draw):
    """Elements p0..p(n-1) listed in a random order, and pairs that mostly follow the index
    order, so the listing is not a linear extension; a pair against it may close a cycle,
    and now and then a pair names an unknown element."""
    n = draw(st.integers(0, 7))
    names = [f"p{i}" for i in range(n)]
    elements = draw(st.permutations(names))
    pairs = []
    for i, j, against in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 9)),
                                       max_size=12)) if n else ():
        a, b = sorted((names[i % n], names[j % n]), key=names.index)
        pairs.append((b, a) if against == 0 else (a, b))
    if draw(st.integers(0, 19)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), ("stranger", names[0] if n else "stranger"))
    return elements, pairs


def _poset_outcome(from_pairs, elements, pairs):
    try:
        return from_pairs(elements, pairs)
    except InvalidPoset as exc:
        return str(exc)


@settings(max_examples=300)
@given(poset_inputs())
@example(([], []))
@example((["a"], []))
@example((["a"], [("a", "a")]))
@example((["b", "a"], [("a", "b"), ("b", "a")]))
def test_poset_routes_match_the_all_pairs_ones(inputs):
    """The one-pass closure gives the fixpoint's relation or its error message; the covers
    and chains read off the up-sets are the all-pairs ones in the same order, and so is
    the incidence table."""
    elements, pairs = inputs
    p = _poset_outcome(Poset.from_pairs, elements, pairs)
    assert p == _poset_outcome(reference_from_pairs, elements, pairs)
    if isinstance(p, str):
        return
    assert p.above == {a: tuple(b for b in p.elements if b != a and p.leq(a, b)) for a in p.elements}
    assert p.covers() == reference_covers(p)
    assert order_complex(p).simplices_by_dim == reference_order_complex(p).simplices_by_dim
    assert incidence_algebra(p).table == reference_incidence_table(p)
