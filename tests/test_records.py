"""Value semantics of the package's records: equal fields make equal objects with
equal hashes, a record never equals a plain tuple, the repr names every field, a
frozen record refuses assignment and deletion, and the constructors keep their checks."""

import pytest

from quiverh1.cli import InputDocument
from quiverh1.errors import InvalidIdeal
from quiverh1.exactalg import BimoduleRep
from quiverh1.formulas import BimoduleSliceData, CoupleClassification, H1Report
from quiverh1.presentations import AlgebraPresentation, MonomialIdeal, StructureConstantAlgebra, TruncationIdeal
from quiverh1.quiver import Arrow, ParallelPair, Path, Quiver
from quiverh1.simplicial import OrderComplex, Poset


def _cases():
    """(class, its field names, arguments, arguments that give an unequal record)."""
    a, b = Arrow("a", "x", "y"), Arrow("b", "y", "z")
    ab = Path("x", (a, b))
    q = Quiver(("x", "y", "z"), (a, b))
    alg = StructureConstantAlgebra(("e_x",), {(0, 0): 0}, {"x": 0})
    poset = Poset(("p",), frozenset({("p", "p")}))
    pair = ParallelPair(Path("x", (a,)), Path("x", (a,)))
    return [
        (Arrow, ("name", "source", "target"), ("a", "x", "y"), ("a", "x", "z")),
        (Quiver, ("vertices", "arrows"), (("x", "y", "z"), (a, b)), (("x", "y", "z"), (a,))),
        (Path, ("source", "arrows"), ("x", (a, b)), ("x", (a,))),
        (ParallelPair, ("left", "right"), (Path("x", (a,)), Path("x", (a,))),
         (Path("y", (b,)), Path("y", (b,)))),
        (MonomialIdeal, ("generators",), ((ab,),), ((Path("x", (a,)),),)),
        (TruncationIdeal, ("m",), (3,), (4,)),
        (AlgebraPresentation, ("quiver", "scheme"), (q, TruncationIdeal(2)), (q, None)),
        (StructureConstantAlgebra, ("basis", "table", "vertex_idempotents"),
         (("e_x",), {(0, 0): 0}, {"x": 0}), (("e_y",), {(0, 0): 0}, {"y": 0})),
        (CoupleClassification, ("all", "glued", "effective", "non_effective"),
         ((pair,), (pair,), (), (pair,)), ((pair,), (), (), ())),
        (H1Report, ("dim_h1", "method", "per_component", "intermediates"),
         (1, "m", [("x", 1)], {"n": 1}), (2, "m", [("x", 1)], {"n": 1})),
        (BimoduleSliceData, ("slice_dims", "dim_X_E", "dim_X_T"), ({("x", "x"): 1}, 1, 1), ({}, 0, 0)),
        (BimoduleRep, ("algebra", "dim", "left", "right"), (alg, 1, ({0: 0},), ({0: 0},)), (alg, 1, ({},), ({},))),
        (Poset, ("elements", "relation"), (("p",), frozenset({("p", "p")})), ((), frozenset())),
        (OrderComplex, ("simplices_by_dim",), ({0: [("p",)]},), ({0: []},)),
        (InputDocument, ("kind", "name", "body"), ("poset", "p", poset), ("poset", "r", poset)),
    ]


CASES = _cases()
ASSIGNABLE = {H1Report}


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, args, other", CASES, ids=[case[0].__name__ for case in CASES])
def test_a_record_is_its_field_values(cls, fields, args, other):
    one, two = cls(*args), cls(*args)
    values = tuple(getattr(one, f) for f in fields)
    assert one == two and not one != two
    assert one != cls(*other) and not one == cls(*other)
    assert one != values and values != one
    assert type("Kin", (cls,), {})(*args) != one  # a subclass with the same values is another value
    if _hashable(values):
        assert hash(one) == hash(two)
    elif cls not in ASSIGNABLE:
        with pytest.raises(TypeError):
            hash(one)
    for f in fields:
        if cls in ASSIGNABLE:
            setattr(one, f, getattr(two, f))
            assert one == two
            continue
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(one, f, getattr(two, f))
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(one, f)
    assert tuple(getattr(one, f) for f in fields) == values


def test_the_repr_names_every_field():
    a = Arrow("a", "x", "y")
    assert repr(a) == "Arrow(name='a', source='x', target='y')"
    assert repr(Path("x", (a,))) == "Path(source='x', arrows=(Arrow(name='a', source='x', target='y'),))"
    assert repr(Path("x")) == "Path(source='x', arrows=())"
    assert repr(TruncationIdeal(3)) == "TruncationIdeal(m=3)"


def test_a_report_accepts_assignment():
    report = H1Report(1, "m")
    report.dim_h1 += 1
    assert report == H1Report(2, "m", [], {})
    assert H1Report(1, "m").per_component is not H1Report(1, "m").per_component


def test_a_frozen_record_still_caches_its_properties():
    q = Quiver(("x", "y"), (Arrow("a", "x", "y"),))
    assert q.successors is q.successors
    assert q.acyclic


def test_the_constructors_keep_their_checks():
    with pytest.raises(InvalidIdeal, match="truncation level must be >= 2, got 1"):
        TruncationIdeal(1)
    a, b = Arrow("a", "x", "y"), Arrow("b", "y", "z")
    with pytest.raises(ValueError, match="members of a parallel pair must share source and target"):
        ParallelPair(Path("x", (a,)), Path("x", (a, b)))
    with pytest.raises(ValueError, match="members of a parallel pair must share source and target"):
        ParallelPair(Path("x", (a,)), Path("y", (b,)))
    with pytest.raises(ValueError, match="does not match first arrow"):
        Path("y", (a,))
