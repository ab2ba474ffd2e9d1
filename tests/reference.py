"""Rational references that only the tests call.

The package computes on integer rows.  These helpers work on
``Fraction`` vectors instead: Gauss-Jordan solving, dual bases and unit
vectors, and the cube and closed-pair constructions the tests build
their inputs from.  The tests hold the package's answers against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from bsp.errors import DimensionMismatchError, SingularBasisError
from bsp.family import BspPair, VectorFamily, a_max, b_max
from bsp.linalg import Row, Vec, coord, coords

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """:func:`bsp.linalg.coord` as a Fraction, for code that divides with
    ``/``."""
    c = coord(value)
    return c if isinstance(c, Fraction) else Fraction(c)


def vec(v: Iterable) -> Vec:
    """:func:`bsp.linalg.coords` as Fractions, for :func:`solve` and the
    other code that divides with ``/``."""
    return tuple(map(rat, coords(v)))


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


class SolveResult(NamedTuple):
    """Outcome of solving A x = rhs.  ``solution`` is None iff inconsistent
    (not a fault); ``unique`` is False when the system is underdetermined."""

    solution: Vec | None
    unique: bool


def solve(a: Sequence[Vec], rhs: Vec) -> SolveResult:
    """Exact solution of a linear system by Gauss-Jordan elimination on
    Fractions, if one exists.

    Returns one exact solution (free variables pinned to zero) plus a
    uniqueness flag; ``SolveResult(None, False)`` signals inconsistency.
    """
    n_rows = len(a)
    if len(rhs) != n_rows:
        raise DimensionMismatchError("rhs length != row count")
    n_cols = len(a[0]) if n_rows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(a)]
    piv_cols: list[int] = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            return SolveResult(None, False)
    x = [ZERO] * n_cols
    for row_idx, col in enumerate(piv_cols):
        x[col] = aug[row_idx][n_cols]
    return SolveResult(tuple(x), unique=(len(piv_cols) == n_cols))


def dual_basis(basis: Sequence[Vec]) -> list[Vec]:
    """Vectors b_i* with <b_i, b_j*> = delta_ij, exactly.

    Raises SingularBasisError when the input is not a basis.
    """
    d = len(basis)
    if d == 0 or any(len(b) != d for b in basis):
        raise SingularBasisError("need d vectors of length d")
    duals = []
    for i in range(d):
        res = solve(tuple(basis), unit_vec(d, i))
        if res.solution is None or not res.unique:
            raise SingularBasisError("vectors are linearly dependent")
        duals.append(res.solution)
    return duals


def close_pair(b: VectorFamily) -> BspPair:
    """The maximal pair generated by a spanning family: (a_max(b), c(b))."""
    a = a_max(b)
    return BspPair(b.dim, a, b_max(a))


def cube_vertices(d: int) -> list[Vec]:
    """All 0/1 points of R^d, ordered by bitmask (bit i = coordinate i)."""
    return [vec(_mask_row(mask, d)) for mask in range(1 << d)]


def _mask_row(mask: int, d: int) -> Row:
    return tuple((mask >> i) & 1 for i in range(d))


def family_from_masks(masks: Iterable[int], d: int) -> VectorFamily:
    """The family of the cube points with these bitmasks, and the origin."""
    return VectorFamily.from_rows(d, 1, (_mask_row(m, d) for m in {0, *masks}))
