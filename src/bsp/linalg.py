"""Exact vectors; one fraction-free echelon for rank and bases;
Gauss-Jordan solving.

Vectors are plain tuples of ``fractions.Fraction`` (hashable, so families
can live in sets), or of ints for 0/1 and +-1 data; matrices are sequences
of row tuples.  Everything here is exact: no floating point is allowed
anywhere near a predicate.  Every rank and basis question goes through
:func:`independent_rows`, a fraction-free greedy echelon on integer-scaled
rows; :func:`solve` runs Gauss-Jordan elimination on Fractions, because
its solutions are rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, SingularBasisError

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, Fractions or "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rat(q: Fraction) -> str:
    """Serialize as "p/q", or integer shorthand "n" when the denominator is 1."""
    return str(q)


def vec(coords: Iterable) -> Vec:
    return tuple(rat(c) for c in coords)


def zero_vec(dim: int) -> Vec:
    return (ZERO,) * dim


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def scale(u: Vec, s: Fraction) -> Vec:
    return tuple(a * s for a in u)


def independent_rows(rows: Sequence[Sequence], limit: int | None = None) -> list[int]:
    """Indices of the rows that are independent of the rows before them.

    One fraction-free greedy echelon pass: each row is scaled to integers,
    reduced against the echelon rows found so far and divided by the gcd
    of its entries, so no Fraction arithmetic happens and entries stay
    small.  Every echelon row is zero at the pivot columns of the rows
    before it, so one sweep in order clears all pivots.  Stops after
    ``limit`` picks or when the picks reach the column count.
    """
    if not rows:
        return []
    cap = len(rows[0]) if limit is None else min(limit, len(rows[0]))
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    picked: list[int] = []
    for i, row in enumerate(rows):
        if len(picked) >= cap:
            break
        den = lcm(*(c.denominator for c in row))
        r = [c.numerator * (den // c.denominator) for c in row]
        for col, e in echelon:
            c = r[col]
            if c:
                p = e[col]
                r = [p * x - c * y for x, y in zip(r, e)]
        piv = next((j for j, x in enumerate(r) if x), None)
        if piv is None:
            continue
        g = gcd(*r)
        echelon.append((piv, [x // g for x in r] if g > 1 else r))
        picked.append(i)
    return picked


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    return len(independent_rows(rows))


class SolveResult(NamedTuple):
    """Outcome of solving A x = rhs.  ``solution`` is None iff inconsistent
    (not a fault); ``unique`` is False when the system is underdetermined."""

    solution: Vec | None
    unique: bool


def solve(a: Sequence[Vec], rhs: Vec) -> SolveResult:
    """Exact solution of a linear system, if one exists.

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


def project_onto_span(x: Vec, spanning: Sequence[Vec]) -> Vec:
    """Exact orthogonal projection of x onto span(spanning).

    Gram-matrix method, so the result stays rational; the projection of
    anything onto the zero span is the zero vector.
    """
    dim = len(x)
    if any(len(s) != dim for s in spanning):
        raise DimensionMismatchError("span vector of wrong length")
    base = [spanning[i] for i in independent_rows(spanning)]
    if not base:
        return zero_vec(dim)
    gram = tuple(tuple(dot(u, v) for v in base) for u in base)
    rhs = tuple(dot(u, x) for u in base)
    coeffs = solve(gram, rhs).solution
    assert coeffs is not None  # Gram matrix of independent vectors is invertible
    y = zero_vec(dim)
    for c, u in zip(coeffs, base):
        y = add(y, scale(u, c))
    return y


def affine_dim(points: Sequence[Vec]) -> int:
    """Affine dimension of a point set (-1 for the empty set)."""
    if not points:
        return -1
    p0 = points[0]
    return rank([sub(p, p0) for p in points[1:]])
