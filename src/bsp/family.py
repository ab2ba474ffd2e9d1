"""Vector families with binary scalar products.

The central objects are pairs of finite families (A, B) spanning R^d with
<a, b> in {0, 1} for every cross pair.  ``a_max``/``b_max`` compute the
inclusion-wise maximal partner of a spanning family, and their composition
``closure`` is the closure operator whose fixpoints are exactly the
maximal pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import Iterable, NamedTuple

from . import linalg
from .errors import DimensionMismatchError, NotSpanningError, parsing
from .linalg import Vec, dot, independent_rows, int_rows, rank, solve, vec, vec_over


@dataclass(frozen=True)
class VectorFamily:
    """A finite set of rational vectors of a common dimension."""

    dim: int
    vectors: frozenset[Vec]

    @classmethod
    def of(cls, dim: int, vectors: Iterable) -> "VectorFamily":
        vs = frozenset(vec(v) for v in vectors)
        for v in vs:
            if len(v) != dim:
                raise DimensionMismatchError(f"vector {v} has length {len(v)} != {dim}")
        return cls(dim, vs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, v) -> bool:
        return vec(v) in self.vectors

    def sorted(self) -> list[Vec]:
        return sorted(self.vectors)

    def spans(self) -> bool:
        return rank(self.vectors) == self.dim

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "vectors": [[linalg.format_rat(c) for c in v] for v in self.sorted()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VectorFamily":
        with parsing("family"):
            d, vectors = index(obj["d"]), [vec(v) for v in obj["vectors"]]
        return cls.of(d, vectors)


class Violation(NamedTuple):
    a: Vec
    b: Vec
    value: Fraction


def verify_binary_products(a: VectorFamily, b: VectorFamily) -> Violation | None:
    """None when every product is exactly 0 or 1; the first offending
    triple (in sorted order) otherwise.

    Runs on the integer rows: over denominators da and db, a product is
    in {0, 1} exactly when the integer product is in {0, da * db}."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} vs {b.dim}")
    da, rows_a = int_rows(a.vectors)
    db, rows_b = int_rows(b.vectors)
    rows_b.sort()  # a positive scale keeps the order of the members
    unit = da * db
    for u in sorted(rows_a):
        for v in rows_b:
            p = sum(map(mul, u, v))
            if p != 0 and p != unit:
                return Violation(vec_over(u, da), vec_over(v, db), Fraction(p, unit))
    return None


@dataclass(frozen=True)
class BspPair:
    """Two spanning families with pairwise products in {0, 1}."""

    dim: int
    family_a: VectorFamily
    family_b: VectorFamily

    @classmethod
    def of(cls, dim: int, a: Iterable, b: Iterable) -> "BspPair":
        pair = cls(dim, VectorFamily.of(dim, a), VectorFamily.of(dim, b))
        pair.validate()
        return pair

    def validate(self) -> None:
        if not self.family_a.spans():
            raise NotSpanningError("family A does not span R^d")
        if not self.family_b.spans():
            raise NotSpanningError("family B does not span R^d")
        witness = verify_binary_products(self.family_a, self.family_b)
        if witness is not None:
            raise ValueError(f"product {witness.value} at ({witness.a}, {witness.b})")

    def sizes(self) -> tuple[int, int]:
        return (len(self.family_a), len(self.family_b))

    def product(self) -> int:
        return len(self.family_a) * len(self.family_b)

    def transposed(self) -> "BspPair":
        return BspPair(self.dim, self.family_b, self.family_a)

    def to_json(self) -> dict:
        return {"d": self.dim, "a": self.family_a.to_json(), "b": self.family_b.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "BspPair":
        with parsing("pair"):
            d = index(obj["d"])
            a = [vec(v) for v in obj["a"]["vectors"]]
            b = [vec(v) for v in obj["b"]["vectors"]]
        return cls.of(d, a, b)


def a_max(b: VectorFamily) -> VectorFamily:
    """The full partner {x : <x, v> in {0,1} for all v in b}.

    Computed by fixing a basis inside b, solving all 2^d level assignments
    on it and filtering against the rest of the family.  Always contains
    the zero vector; has at most 2^d members.
    """
    d = b.dim
    members = b.sorted()
    basis = [members[i] for i in independent_rows(members, d)]
    if len(basis) < d:
        raise NotSpanningError("family does not span R^d")
    rest = [v for v in members if v not in basis]
    out: list[Vec] = []
    for sigma in itertools.product((0, 1), repeat=d):
        x = solve(tuple(basis), vec(sigma)).solution
        assert x is not None
        if all(dot(x, v) in (0, 1) for v in rest):
            out.append(x)
    return VectorFamily.of(d, out)


def b_max(a: VectorFamily) -> VectorFamily:
    """Symmetric counterpart of :func:`a_max` (the roles of the two
    families are interchangeable)."""
    return a_max(a)


def closure(b: VectorFamily) -> VectorFamily:
    """c(b) = b_max(a_max(b)): extensive, monotone and idempotent on
    spanning families."""
    return b_max(a_max(b))


def close_pair(b: VectorFamily) -> BspPair:
    """The maximal pair generated by a spanning family: (a_max(b), c(b))."""
    a = a_max(b)
    return BspPair(b.dim, a, b_max(a))


def is_closed_pair(p: BspPair) -> bool:
    return a_max(p.family_b) == p.family_a and b_max(p.family_a) == p.family_b


@dataclass(frozen=True)
class ProductMatrix:
    """0/1 matrix of scalar products, rows indexed by sorted A and columns
    by sorted B."""

    m: int
    n: int
    bits: tuple[str, ...]
    rank_d: int

    def column_bits(self) -> tuple[str, ...]:
        return tuple("".join(row[j] for row in self.bits) for j in range(self.n))

    def transposed(self) -> "ProductMatrix":
        return ProductMatrix(self.n, self.m, self.column_bits(), self.rank_d)

    def to_json(self) -> dict:
        return {"rows": self.m, "cols": self.n, "bits": list(self.bits)}

    @classmethod
    def from_json(cls, obj: dict) -> "ProductMatrix":
        with parsing("product matrix"):
            m, n, bits = index(obj["rows"]), index(obj["cols"]), tuple(obj["bits"])
            if len(bits) != m or any(len(r) != n for r in bits):
                raise ValueError("inconsistent matrix dimensions")
            if any(c not in "01" for r in bits for c in r):
                raise ValueError("matrix entries must be 0/1")
        return cls(m, n, bits, matrix_rank(bits))


def matrix_rank(bits: Iterable[str]) -> int:
    return rank([[int(c) for c in row] for row in bits])


def product_matrix(p: BspPair) -> ProductMatrix:
    da, rows_a = int_rows(p.family_a.vectors)
    db, cols_b = int_rows(p.family_b.vectors)
    cols_b.sort()
    unit = da * db
    bits = tuple(
        "".join("1" if sum(map(mul, a, b)) == unit else "0" for b in cols_b)
        for a in sorted(rows_a)
    )
    return ProductMatrix(len(rows_a), len(cols_b), bits, matrix_rank(bits))


def pair_from_product_matrix(mat: ProductMatrix, d: int) -> BspPair:
    """Reconstruct a pair realizing the given rank-d product matrix.

    The rank-d factorization of a product matrix is unique up to an
    invertible linear map, so any realization represents the matrix's
    isomorphism class.  Raises ValueError when the matrix is not a
    consistent rank-d product matrix.
    """
    if mat.rank_d != d:
        raise ValueError(f"matrix rank {mat.rank_d} != d = {d}")
    grid = [[Fraction(int(c)) for c in row] for row in mat.bits]
    basis_rows = independent_rows(grid, d)
    b_vectors = [tuple(grid[i][j] for i in basis_rows) for j in range(mat.n)]
    col_basis = independent_rows(b_vectors, d)
    if len(col_basis) < d:
        raise ValueError("columns do not span")
    bmat = tuple(b_vectors[j] for j in col_basis)
    a_vectors = []
    for i in range(mat.m):
        rhs = vec(grid[i][j] for j in col_basis)
        x = solve(bmat, rhs).solution
        if x is None:
            raise ValueError("inconsistent product matrix")
        if any(dot(x, b_vectors[j]) != grid[i][j] for j in range(mat.n)):
            raise ValueError("matrix is not realizable at rank d")
        a_vectors.append(x)
    return BspPair.of(d, a_vectors, b_vectors)


def cube_vertices(d: int) -> list[Vec]:
    """All 0/1 points of R^d, ordered by bitmask (bit i = coordinate i)."""
    return [
        vec(((mask >> i) & 1) for i in range(d)) for mask in range(1 << d)
    ]


def mask_to_vec(mask: int, d: int) -> Vec:
    return vec(((mask >> i) & 1) for i in range(d))


def family_from_masks(masks: Iterable[int], d: int, include_zero: bool = True) -> VectorFamily:
    ms = set(masks)
    if include_zero:
        ms.add(0)
    return VectorFamily.of(d, [mask_to_vec(m, d) for m in ms])
