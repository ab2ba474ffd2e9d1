"""Vector families with binary scalar products.

The central objects are pairs of finite families (A, B) spanning R^d with
<a, b> in {0, 1} for every cross pair.  ``a_max``/``b_max`` compute the
inclusion-wise maximal partner of a spanning family, and their composition
``closure`` is the closure operator whose fixpoints are exactly the
maximal pairs.

A :class:`VectorFamily` stores its members as integer numerator rows over
``den``, the least positive common denominator (:meth:`VectorFamily.of`
is the one place that scales rational vectors, through
:func:`linalg.int_rows`).  Over denominators da and db, <a, b> is 0 or 1
exactly when the integer product of the rows is 0 or da * db, so every
check here runs on Python ints.  Input is read by :func:`linalg.coords`,
which keeps integral coordinates as ints, so ``Fraction`` tuples appear
only for genuinely rational input and when a family is printed
(:attr:`VectorFamily.vectors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add
from typing import Iterable, NamedTuple

from .errors import DimensionMismatchError, NotSpanningError, parsing
from .linalg import (
    Row,
    Vec,
    coords,
    dim_field,
    greedy_inverse,
    independent_rows,
    int_dot,
    int_field,
    int_rows,
    rank,
    vec_over,
)


@dataclass(frozen=True)
class VectorFamily:
    """A finite set of rational vectors of a common dimension: the members
    are ``row / den`` for the integer ``rows``.  ``den`` is the least
    positive common denominator, so families with the same members compare
    and hash equal however they were built."""

    dim: int
    den: int
    rows: frozenset[Row]

    @classmethod
    def of(cls, dim: int, vectors: Iterable) -> "VectorFamily":
        """The family of the given vectors, each read by
        :func:`linalg.coords` (ints, Fractions, integer, "p/q" or decimal
        strings)."""
        vs = [coords(v) for v in vectors]
        for v in vs:
            if len(v) != dim:
                raise DimensionMismatchError(f"vector {v} has length {len(v)} != {dim}")
        den, rows = int_rows(vs)
        return cls(dim, den, frozenset(rows))

    @classmethod
    def from_rows(cls, dim: int, den: int, rows: Iterable[Row]) -> "VectorFamily":
        """The family {row / den}; ``den`` is any nonzero int, and the
        rows and ``den`` are divided by their common gcd."""
        rows = set(rows)
        g = gcd(den, *chain.from_iterable(rows))
        if den < 0:
            g = -g
        if g != 1:
            rows = {tuple(x // g for x in r) for r in rows}
        return cls(dim, den // g, frozenset(rows))

    @property
    def vectors(self) -> frozenset[Vec]:
        """The members as ``Fraction`` tuples."""
        return frozenset(vec_over(r, self.den) for r in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, v) -> bool:
        return tuple(c * self.den for c in coords(v)) in self.rows

    def sorted(self) -> list[Vec]:
        # a positive scale keeps the order of the members
        return [vec_over(r, self.den) for r in sorted(self.rows)]

    def spans(self) -> bool:
        return rank(self.rows) == self.dim

    def to_json(self) -> dict:
        return {
            "d": self.dim,
            "vectors": [[str(c) for c in v] for v in self.sorted()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VectorFamily":
        with parsing("family"):
            return cls.of(dim_field(obj["d"]), obj["vectors"])


class Violation(NamedTuple):
    a: Vec
    b: Vec
    value: Fraction


def verify_binary_products(a: VectorFamily, b: VectorFamily) -> Violation | None:
    """None when every product is exactly 0 or 1; the first offending
    triple (in sorted order) otherwise."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} vs {b.dim}")
    unit = a.den * b.den
    rows_b = sorted(b.rows)
    for u in sorted(a.rows):
        for v in rows_b:
            p = int_dot(u, v)
            if p != 0 and p != unit:
                return Violation(vec_over(u, a.den), vec_over(v, b.den), Fraction(p, unit))
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
            a, b = (", ".join(map(str, v)) for v in (witness.a, witness.b))
            raise ValueError(f"product {witness.value} at ([{a}], [{b}])")

    def sizes(self) -> tuple[int, int]:
        return (len(self.family_a), len(self.family_b))

    def product(self) -> int:
        return len(self.family_a) * len(self.family_b)

    def transposed(self) -> "BspPair":
        return BspPair(self.dim, self.family_b, self.family_a)

    def to_json(self) -> dict:
        return {"d": self.dim, "a": self.family_a.to_json(), "b": self.family_b.to_json()}

    @classmethod
    def parse_json(cls, obj: dict) -> "BspPair":
        """The pair a document holds, not yet validated; MalformedInputError
        when the document does not hold two families of its dimension
        ``d``."""
        with parsing("pair"):
            d = dim_field(obj["d"])
            return cls(d, VectorFamily.of(d, obj["a"]["vectors"]),
                       VectorFamily.of(d, obj["b"]["vectors"]))

    @classmethod
    def from_json(cls, obj: dict) -> "BspPair":
        pair = cls.parse_json(obj)
        pair.validate()
        return pair


def a_max(b: VectorFamily) -> VectorFamily:
    """The full partner {x : <x, v> in {0,1} for all v in b}.

    Computed by fixing a basis M inside b (integer rows over b.den) and
    taking all 2^d level assignments sigma on it: with the functionals phi
    and denominator D of :func:`linalg.greedy_inverse`, x = b.den
    sum(sigma_i phi_i) / D, whose product with a member row v is
    <sum(sigma_i phi_i), v> / D.  Those with products in {0, 1} against
    the rest of the family are kept.  Always contains the zero vector; has
    at most 2^d members.
    """
    d = b.dim
    members = sorted(b.rows)
    picked, den, phi = greedy_inverse(members, d)
    if len(picked) < d:
        raise NotSpanningError("family does not span R^d")
    rest = [v for i, v in enumerate(members) if i not in picked]
    sums = [(0,) * d]  # sum(sigma_i phi_i) for every sigma
    for f in phi:
        sums += [tuple(map(add, s, f)) for s in sums]
    return VectorFamily.from_rows(d, den, (
        tuple(b.den * x for x in s) for s in sums
        if all(int_dot(s, v) in (0, den) for v in rest)
    ))


def b_max(a: VectorFamily) -> VectorFamily:
    """Symmetric counterpart of :func:`a_max` (the roles of the two
    families are interchangeable)."""
    return a_max(a)


def closure(b: VectorFamily) -> VectorFamily:
    """c(b) = b_max(a_max(b)): extensive, monotone and idempotent on
    spanning families."""
    return b_max(a_max(b))


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
            m, n, bits = int_field(obj["rows"]), int_field(obj["cols"]), tuple(obj["bits"])
            if len(bits) != m or any(len(r) != n for r in bits):
                raise ValueError("inconsistent matrix dimensions")
            if any(c not in "01" for r in bits for c in r):
                raise ValueError("matrix entries must be 0/1")
        return cls(m, n, bits, matrix_rank(bits))


def matrix_rank(bits: Iterable[str]) -> int:
    return rank([[int(c) for c in row] for row in bits])


def product_matrix(p: BspPair) -> ProductMatrix:
    unit = p.family_a.den * p.family_b.den
    cols_b = sorted(p.family_b.rows)
    bits = tuple(
        "".join("1" if int_dot(a, b) == unit else "0" for b in cols_b)
        for a in sorted(p.family_a.rows)
    )
    return ProductMatrix(len(bits), len(cols_b), bits, matrix_rank(bits))


def pair_from_product_matrix(mat: ProductMatrix, d: int) -> BspPair:
    """Reconstruct a pair realizing the given rank-d product matrix.

    The rank-d factorization of a product matrix is unique up to an
    invertible linear map, so any realization represents the matrix's
    isomorphism class.  Raises ValueError when the matrix is not a
    consistent rank-d product matrix.
    """
    if mat.rank_d != d:
        raise ValueError(f"matrix rank {mat.rank_d} != d = {d}")
    grid = [[int(c) for c in row] for row in mat.bits]
    basis_rows = independent_rows(grid, d)
    b_rows = [tuple(grid[i][j] for i in basis_rows) for j in range(mat.n)]
    col_basis, den, phi = greedy_inverse(b_rows, d)
    if len(col_basis) < d:
        raise ValueError("columns do not span")
    # row i of A solves <x, b_j> = grid[i][j] on the basis columns j:
    # x = sum(grid[i][j] phi_j) / D over the picks j
    cols = list(zip(*phi))
    a_rows = []
    for row in grid:
        rhs = [row[j] for j in col_basis]
        x = tuple(int_dot(c, rhs) for c in cols)
        if any(int_dot(x, b) != den * g for b, g in zip(b_rows, row)):
            raise ValueError("matrix is not realizable at rank d")
        a_rows.append(x)
    # every product was checked against the 0/1 grid, whose rank is d, so
    # both families span R^d
    return BspPair(d, VectorFamily.from_rows(d, den, a_rows), VectorFamily.from_rows(d, 1, b_rows))
