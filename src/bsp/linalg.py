"""Exact vectors; integer scaling; one fraction-free echelon for rank and
bases; fraction-free determinant and adjugate; Gauss-Jordan solving.

Vectors are plain tuples of ``fractions.Fraction`` or of ints; matrices
are sequences of row tuples.  Everything here is exact: no floating point
is allowed anywhere near a predicate.  Input coordinates are read by
:func:`coord`, which keeps integral input as ints and makes a Fraction
only of genuinely rational input, and integer fields such as a dimension
by :func:`int_field`, which refuses a bool.  :func:`int_rows` scales
rational vectors to integer rows over their least common denominator, the
form in which :class:`bsp.family.VectorFamily` stores a family, and
:func:`vec_over` turns a row back into Fractions for printing.  Every
rank and basis question goes through :func:`independent_rows`, a
fraction-free greedy echelon on integer rows, and :func:`det_adjugate`
solves square integer systems; :func:`solve` runs Gauss-Jordan
elimination on Fractions, for data that is genuinely rational.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, SingularBasisError

Vec = tuple[Fraction, ...]
Row = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def coord(value) -> int | Fraction:
    """One exact coordinate, as read from input: an int for an int or an
    integer string, a Fraction for a Fraction or for a string that
    ``Fraction`` reads and ``int`` does not ("p/q", exact decimals such as
    "0.5" or "1e2").  Integral input never becomes a Fraction.  A bool, a
    float or any other type raises TypeError, and a string neither reads
    raises ValueError."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            # int refuses the separators \x1c-\x1f around a numeral, which
            # str.strip and Fraction take for whitespace
            return int(value.strip())
        except ValueError:
            return Fraction(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise TypeError(f"not an exact rational: {value!r}")


def int_field(value) -> int:
    """One integer field of an input document, such as a dimension or a
    size: an int, where a bool (JSON true/false) or any other type raises
    TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return operator.index(value)


def coords(v: Iterable) -> tuple[int | Fraction, ...]:
    """The coordinates of one input vector, each read by :func:`coord`.
    A str, bytes or dict (a JSON object) is not a vector (TypeError): read
    character by character, "01" would pass for the point (0, 1), and read
    key by key, {"0": "x", "1": "y"} would too."""
    if isinstance(v, (str, bytes, dict)):
        raise TypeError(f"not a vector: {v!r}")
    return tuple(map(coord, v))


def rat(value) -> Fraction:
    """:func:`coord` as a Fraction, for code that divides with ``/``."""
    c = coord(value)
    return c if isinstance(c, Fraction) else Fraction(c)


def format_rat(q: Fraction) -> str:
    """Serialize as "p/q", or integer shorthand "n" when the denominator is 1."""
    return str(q)


def vec(v: Iterable) -> Vec:
    """:func:`coords` as Fractions, for :func:`solve` and the other code
    that divides with ``/``."""
    return tuple(map(rat, coords(v)))


def zero_vec(dim: int) -> Vec:
    return (ZERO,) * dim


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def unit_row(dim: int, i: int, s: int = 1) -> Row:
    """The integer row s e_i."""
    return tuple(s if j == i else 0 for j in range(dim))


def int_dot(u: Row, v: Row) -> int:
    return sum(map(mul, u, v))


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


def int_rows(vectors: Iterable[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """The least positive common denominator of the entries (ints,
    Fractions or a mix of both, as :func:`coords` reads them) and the
    integer numerator rows over it, in input order.  All-int rows come
    back unchanged over 1.

    Scaling by one positive number keeps the lexicographic order of the
    rows, and a product of two scaled rows is the exact product times
    both denominators."""
    vectors = list(vectors)
    den = lcm(*{c.denominator for v in vectors for c in v})
    return den, [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors]


def vec_over(row: Iterable[int], den: int) -> Vec:
    """The rational vector row / den: one row of :func:`int_rows` back as
    Fractions."""
    return tuple(Fraction(x, den) for x in row)


def det_adjugate(m: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det(M), adj(M)) of a nonsingular square integer matrix; raises
    ValueError when M is singular or not square.

    One fraction-free Gauss-Jordan elimination on [M | I] (Bareiss's
    division by the previous pivot is exact, so every entry stays an
    integer minor): it ends at [D I | D M^-1] with D = +-det(M), the sign
    that of the row swaps."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det_adjugate takes a square matrix")
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        ak = a[k]
        piv = ak[k]
        for i, ai in enumerate(a):
            if i != k:
                c = ai[k]
                a[i] = [(piv * x - c * y) // prev for x, y in zip(ai, ak)]
        prev = piv
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def independent_rows(rows: Iterable[Sequence], limit: int | None = None) -> list[int]:
    """Indices of the rows that are independent of the rows before them.

    One fraction-free greedy echelon pass: each row (ints or Fractions) is
    scaled to integers by its own denominators as it is read, which is a
    positive scale and keeps independence, then reduced against the
    echelon rows found so far and divided by the gcd of its entries, so no
    Fraction arithmetic happens and entries stay small.  Every echelon row
    is zero at the pivot columns of the rows before it, so one sweep in
    order clears all pivots.  Stops after ``limit`` picks or when the
    picks reach the column count, without reading further rows.
    """
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    picked: list[int] = []
    cap = limit
    for i, v in enumerate(rows):
        den = lcm(*[c.denominator for c in v])
        r = [c.numerator * (den // c.denominator) for c in v]
        cap = len(r) if cap is None else min(cap, len(r))
        if len(picked) >= cap:
            break
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
        if len(picked) == cap:
            break
    return picked


def rank(rows: Iterable[Sequence]) -> int:
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


def affine_dim(points: Sequence[Vec]) -> int:
    """Affine dimension of a point set (-1 for the empty set)."""
    if not points:
        return -1
    p0 = points[0]
    return len(independent_rows([*map(operator.sub, p, p0)] for p in points[1:]))
