"""Exact vectors; integer scaling; one fraction-free echelon for rank;
one greedy-basis walk for inverses; Gauss-Jordan solving.

Vectors are plain tuples of ``fractions.Fraction`` or of ints; matrices
are sequences of row tuples.  Everything here is exact: no floating point
is allowed anywhere near a predicate.  Input coordinates are read by
:func:`coord`, which keeps integral input as ints and makes a Fraction
only of genuinely rational input, integer fields such as a size by
:func:`int_field`, which refuses a bool, and a dimension by
:func:`dim_field`, which also refuses one below 1.  :func:`int_rows` scales
rational vectors to integer rows over their least common denominator, the
form in which :class:`bsp.family.VectorFamily` stores a family, and
:func:`vec_over` turns a row back into Fractions for printing.

Every rank question goes through :func:`independent_rows`, a
fraction-free greedy echelon on integer rows.  Every inverse goes through
:func:`greedy_inverse`, the walk of both closure kernels: it picks the
same rows and carries integer functionals phi_i and a denominator D with
phi_i(picked row j) = D [i = j], one :func:`extend` per row.  Its
exact-division update keeps every entry a minor and D = +-det of the
picked rows and the unit rows that complete them (Bareiss, Math. Comp.
1968).  :func:`solve` runs Gauss-Jordan elimination on Fractions; it and
:func:`dual_basis` are the rational reference the tests compare against.

Rank keeps its own engine because an inverse costs more than an echelon.
Routed through :func:`greedy_inverse`, :func:`independent_rows` gave the
same answers, but the lemma oracles, whose :func:`affine_dim` asks only
for ranks, ran 2.2x as long (the lemma-oracle acceptance test: 6.3 ->
13.8 s, pure Python on 2 shared cores).
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


def dim_field(value) -> int:
    """The dimension field of an input document: an :func:`int_field` of
    at least 1, where a smaller one raises ValueError."""
    d = int_field(value)
    if d < 1:
        raise ValueError(f"dimension {d} is below 1")
    return d


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


def vec(v: Iterable) -> Vec:
    """:func:`coords` as Fractions, for :func:`solve` and the other code
    that divides with ``/``."""
    return tuple(map(rat, coords(v)))


def unit_vec(dim: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def unit_row(dim: int, i: int, s: int = 1) -> Row:
    """The integer row s e_i."""
    return tuple(s if j == i else 0 for j in range(dim))


def int_dot(u: Row, v: Row) -> int:
    return sum(map(mul, u, v))


# add, sub and neg act entrywise, on integer rows as on Fraction vectors
def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


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


def independent_rows(rows: Iterable[Sequence], limit: int | None = None) -> list[int]:
    """Indices of the rows that are independent of the rows before them.

    One fraction-free greedy echelon pass: each row, an iterable of ints
    or Fractions read once, is scaled to integers by its own denominators
    as it is read, which is a positive scale and keeps independence (a row
    of ints is taken as it is).  It is then reduced against the echelon
    rows found so far and divided by the gcd of its entries, so no
    Fraction arithmetic happens and entries stay small.  Every echelon row
    is zero at the pivot columns of the rows before it, so one sweep in
    order clears all pivots.  Stops after ``limit`` picks or when the
    picks reach the column count, without reading further rows.
    """
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    picked: list[int] = []
    cap = limit
    for i, v in enumerate(rows):
        r = list(v)
        if not {int}.issuperset(map(type, r)):
            den = lcm(*[c.denominator for c in r])
            r = [c.numerator * (den // c.denominator) for c in r]
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


def extend(phi: Sequence[Sequence[int]], den: int, r: int,
           vals: Sequence[int]) -> tuple[list[list[int]], int] | None:
    """One step of the greedy-basis walk: (phi, D) with a point p added
    to the basis, or None when p is in the span of the first r rows.

    ``phi`` holds integer functionals with phi_i(m_j) = D [i = j] on the
    rows m_j of M, the r basis points followed by unit rows, and ``vals``
    = (phi_i(p))_i.  p takes the place of the first unit row k >= r with
    phi_k(p) != 0: phi_i <- (phi_k(p) phi_i - phi_i(p) phi_k) / D for
    i != k, an exact division as D = +-det(M) before and after, phi_k
    moves to row r, and D <- phi_k(p).  This is ``extend`` of
    ``_ckernel.c``, line for line."""
    k = next((k for k in range(r, len(phi)) if vals[k]), None)
    if k is None:
        return None
    v, fk = vals[k], phi[k]
    out = [[(v * a - x * b) // den for a, b in zip(f, fk)]
           for i, (f, x) in enumerate(zip(phi, vals)) if i != k]
    out.insert(r, list(fk))
    return out, v


def greedy_inverse(rows: Iterable[Sequence[int]],
                   limit: int | None = None) -> tuple[list[int], int, list[list[int]]]:
    """(picked, D, phi) of the greedy basis of integer rows: ``picked``
    are the indices :func:`independent_rows` returns, and phi_i(row
    picked[j]) = D [i = j] for the n functionals phi of rows of length n,
    walked by :func:`extend` from phi = I, D = 1.  On a square nonsingular
    matrix M, D = +-det(M) and phi_i is D times column i of M^-1."""
    picked: list[int] = []
    den, phi = 1, []
    for i, row in enumerate(rows):
        if not i:
            phi = [list(unit_row(len(row), j)) for j in range(len(row))]
            cap = len(phi) if limit is None else min(limit, len(phi))
        if len(picked) < cap and (
                hit := extend(phi, den, len(picked), [int_dot(f, row) for f in phi])):
            phi, den = hit
            picked.append(i)
        if len(picked) == cap:
            break
    return picked, den, phi


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
