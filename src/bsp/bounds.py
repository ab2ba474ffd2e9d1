"""Size-bound checkers for pairs, the equality-case classifier, and the
generalized conjecture test."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import NotCubePairError
from .family import BspPair
from .linalg import int_dot


@dataclass(frozen=True)
class BoundReport:
    name: str
    product: int
    bound: int
    applicable: bool
    passed: bool
    equality: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "product": self.product,
            "bound": self.bound,
            "applicable": self.applicable,
            "pass": self.passed,
            "equality": self.equality,
        }


def check_thm4(p: BspPair) -> BoundReport:
    """|A| |B| <= (d+1) 2^d for spanning pairs with binary products."""
    d = p.dim
    bound = (d + 1) << d
    prod = p.product()
    return BoundReport("product-bound", prod, bound, True, prod <= bound, prod == bound)


def check_thm3(p: BspPair) -> BoundReport:
    """|A| |B| <= d 2^d + 2d, applicable when both sizes are >= d+2."""
    d = p.dim
    bound = (d << d) + 2 * d
    prod = p.product()
    applicable = len(p.family_a) >= d + 2 and len(p.family_b) >= d + 2
    return BoundReport(
        "large-pair-bound",
        prod,
        bound,
        applicable,
        (prod <= bound) if applicable else True,
        applicable and prod == bound,
    )


@dataclass(frozen=True)
class EqualityClassification:
    is_equality_case: bool
    cube_side: str | None  # "a", "b" or None
    sizes: tuple[int, int]

    def to_json(self) -> dict:
        return {
            "equality_case": self.is_equality_case,
            "cube_side": self.cube_side,
            "size_a": self.sizes[0],
            "size_b": self.sizes[1],
        }


def check_thm6_equality(p: BspPair) -> EqualityClassification:
    """When |A||B| = (d+1) 2^d, one family has size 2^d (the cube side)
    and the other d+1, and their product matrix is a row and column
    permutation of the cube pair's; anything else raises
    NotCubePairError.

    The test runs on the rows of the cube side as bitsets over the other
    side: they must be pairwise distinct, and one column must be all
    zeros.  Then the other d columns read off 2^d distinct points of
    {0,1}^d, that is all of them, as in the cube pair {0,1}^d against
    {0, e_1, ..., e_d}.  The tests check the verdict against canonical
    keys.  At d = 1 both sides have size 2, and the test reads either."""
    d = p.dim
    sizes = p.sizes()
    if p.product() != (d + 1) << d:
        return EqualityClassification(False, None, sizes)
    if (1 << d) not in sizes:
        raise NotCubePairError(f"equality case with sizes {sizes}")
    cube_side = "a" if sizes[0] == 1 << d else "b"
    cube, other = (p.family_a, p.family_b) if cube_side == "a" else (p.family_b, p.family_a)
    unit = cube.den * other.den
    others = list(other.rows)
    rows = {sum(1 << j for j, v in enumerate(others) if int_dot(u, v) == unit)
            for u in cube.rows}
    # a column is all zeros when its bit is in no row
    if len(rows) != 1 << d or reduce(or_, rows) == (1 << len(others)) - 1:
        raise NotCubePairError("equality case not isomorphic to the cube pair")
    return EqualityClassification(True, cube_side, sizes)


@dataclass(frozen=True)
class ConjectureViolation:
    sizes: tuple[int, int]
    k: int
    threshold: int  # both sizes must exceed 2^(k-1) (d-k+2) for the bound to apply
    bound: int
    product: int

    def to_json(self) -> dict:
        return {
            "size_a": self.sizes[0],
            "size_b": self.sizes[1],
            "k": self.k,
            "bound": self.bound,
            "product": self.product,
        }


def check_conjecture1(sizes: list[tuple[int, int]], d: int) -> list[ConjectureViolation]:
    """For each size pair and each k in [0, d]: if both sizes exceed
    2^(k-1) (d-k+2) then the product must be at most (2^(d-k)+k) 2^k (d-k+1).
    Returns all violations (empty list = holds on the input).

    The k=0 threshold is the half-integer (d+2)/2; the comparison is done
    with doubled integers to stay exact.
    """
    out = []
    for m, n in sizes:
        for k in range(d + 1):
            # min(m, n) > 2^(k-1) (d-k+2), scaled by 2 to avoid fractions
            if 2 * min(m, n) <= (1 << k) * (d - k + 2):
                continue
            bound = ((1 << (d - k)) + k) * (1 << k) * (d - k + 1)
            if m * n > bound:
                out.append(
                    ConjectureViolation(
                        (m, n), k, (1 << k) * (d - k + 2), bound, m * n
                    )
                )
    return out
