"""First Hochschild cohomology of finite-dimensional quiver algebras.

Closed combinatorial dimension formulas for path, monomial, truncated and
pre-generated algebras, each cross-checked by two exact-linear-algebra oracles:
derivations modulo inner derivations, and the E-relative bar complex.  On the
incidence algebra of a poset both oracles are set against H^1 of its order
complex (Gerstenhaber-Schack).
"""

from .quiver import Arrow, ParallelPair, Path, Quiver, compose, enumerate_paths
from .presentations import (
    AlgebraPresentation,
    MonomialIdeal,
    StructureConstantAlgebra,
    TruncationIdeal,
    basis_B,
    build_algebra,
)
from .formulas import H1Report, classify_and_compute
from .exactalg import h1_oracle, regular_bimodule
from .simplicial import Poset

__all__ = [
    "Arrow",
    "ParallelPair",
    "Path",
    "Quiver",
    "compose",
    "enumerate_paths",
    "AlgebraPresentation",
    "MonomialIdeal",
    "StructureConstantAlgebra",
    "TruncationIdeal",
    "basis_B",
    "build_algebra",
    "H1Report",
    "classify_and_compute",
    "h1_oracle",
    "regular_bimodule",
    "Poset",
]

__version__ = "0.1.0"
