"""Test-only poset helpers that import neither pytest nor hypothesis, so a test's
subprocess can import them cheaply; conftest re-exports them."""

from quiverh1.errors import InvalidPoset
from quiverh1.simplicial import Poset


def validate_poset(p: Poset) -> Poset:
    """Re-check the order axioms on the stored relation; reports the first violation in
    element order."""
    for a in p.elements:
        if (a, a) not in p.relation:
            raise InvalidPoset(f"reflexivity violation at {a!r}")
    for a, b in p.comparable_pairs():
        if a != b and (b, a) in p.relation:
            raise InvalidPoset(f"antisymmetry violation: {a!r} <= {b!r} <= {a!r}")
        for c in p.elements:
            if (b, c) in p.relation and (a, c) not in p.relation:
                raise InvalidPoset(f"transitivity violation: {a!r} <= {b!r} <= {c!r}")
    return p
