"""Exact-arithmetic toolkit for binary scalar product families and
2-level polytopes: enumeration of maximal pairs, bound and conjecture
checks, structural decomposition audits, and lemma oracles."""

from .bounds import check_conjecture1, check_thm3, check_thm4, check_thm6_equality
from .constructions import construct_example
from .decomposition import audit_pair, choose_bd
from .enumeration import Catalog, brute_force, enumerate_catalog, stats
from .family import BspPair, ProductMatrix, VectorFamily, a_max, b_max, closure
from .polytope import Polytope2L, construct_polytope, extract_pair

__version__ = "0.1.0"

__all__ = [
    "BspPair",
    "Catalog",
    "Polytope2L",
    "ProductMatrix",
    "VectorFamily",
    "a_max",
    "audit_pair",
    "b_max",
    "brute_force",
    "check_conjecture1",
    "check_thm3",
    "check_thm4",
    "check_thm6_equality",
    "choose_bd",
    "closure",
    "construct_example",
    "construct_polytope",
    "enumerate_catalog",
    "extract_pair",
    "stats",
    "__version__",
]
