"""Pure-Python kernel: hot loops behind enumeration and facet enumeration.

This module is the reference twin of the C kernel (``_ckernel.c``, loaded
by :mod:`bsp._kernel_c`); both expose the same functions with identical
outputs, and the active one is chosen in :mod:`bsp.kernel`.
:func:`facet_scan` is implemented here only: its exact double
description needs unbounded integers, and the C kernel re-exports it.

Everything here works on bit-packed data.  A subset of the 0/1 cube in
dimension d is an integer whose bit m is the cube point with coordinate
vector (m & 1, m >> 1 & 1, ...); the zero point (bit 0) is an implicit
member of every family and is never stored.  All arithmetic is integer:
for a basis matrix M chosen inside the family, products with the solution
of M x = sigma are evaluated as cofactor sums and compared against det(M),
which avoids rationals in the inner loop.

Each lectic set is closed once.  :func:`enum_branch` takes the rank and
the product-matrix rows of every closed set from the closure data of the
Next-Closure candidate that produced it: a candidate and its closure
have the same partner family, and the basis tables cover every cube
point, so the rows are those of :func:`pair_rows` up to order (which
:func:`heuristic_form` ignores).
"""

from __future__ import annotations

from math import gcd

from .linalg import cofactor_matrix, det

BACKEND = "python"

_MAX_CACHED_BASES = 60000


class _BasisTables:
    """Per-basis precomputation shared by every family with the same
    greedy basis: determinant, cofactors, and the cofactor sums that turn
    closure checks into integer comparisons."""

    __slots__ = ("det", "rank", "cof", "w", "t")

    def __init__(self, d: int, basis: tuple[int, ...], helpers: tuple[int, ...]):
        rows = [[(m >> i) & 1 for i in range(d)] for m in basis]
        for h in helpers:
            rows.append([1 if i == h else 0 for i in range(d)])
        self.rank = len(basis)
        self.det = det(rows)
        self.cof = cofactor_matrix(rows)
        # w[y][i] = sum over set bits j of y of cof[i][j]
        w = [[0] * d for _ in range(1 << d)]
        for y in range(1, 1 << d):
            low = y & -y
            idx = low.bit_length() - 1
            prev = w[y ^ low]
            cof_col = [self.cof[i][idx] for i in range(d)]
            w[y] = [prev[i] + cof_col[i] for i in range(d)]
        self.w = w
        # t[y][sigma] = sum over set bits i of sigma of w[y][i],
        # sigma ranging over subsets of the basis positions 0..rank-1
        r = self.rank
        t = [[0] * (1 << r) for _ in range(1 << d)]
        for y in range(1 << d):
            wy = self.w[y]
            ty = t[y]
            for sigma in range(1, 1 << r):
                low = sigma & -sigma
                ty[sigma] = ty[sigma ^ low] + wy[low.bit_length() - 1]
        self.t = t


_tables_cache: dict[tuple[int, tuple[int, ...]], _BasisTables] = {}


def _echelon_add(ech: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Reduce the integer vector ``v`` against the fraction-free echelon
    rows ``ech`` (pivot, row) and append it when it is independent of
    them."""
    for piv, row in ech:
        if v[piv]:
            a, b = row[piv], v[piv]
            v = [a * x - b * y for x, y in zip(v, row)]
    piv = next((i for i, x in enumerate(v) if x), None)
    if piv is None:
        return False
    ech.append((piv, v))
    return True


def _greedy_basis(d: int, members: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First linearly independent members in ascending mask order, plus the
    unit coordinates completing them to a basis of R^d."""
    ech: list[tuple[int, list[int]]] = []
    basis: list[int] = []
    for m in members:
        if len(basis) == d:
            break
        if _echelon_add(ech, [(m >> i) & 1 for i in range(d)]):
            basis.append(m)
    helpers = []
    for i in range(d):
        if len(basis) + len(helpers) == d:
            break
        if _echelon_add(ech, [1 if j == i else 0 for j in range(d)]):
            helpers.append(i)
    return tuple(basis), tuple(helpers)


def _tables(d: int, basis: tuple[int, ...], helpers: tuple[int, ...]) -> _BasisTables:
    key = (d, basis)
    tab = _tables_cache.get(key)
    if tab is None:
        if len(_tables_cache) >= _MAX_CACHED_BASES:
            _tables_cache.clear()
        tab = _BasisTables(d, basis, helpers)
        _tables_cache[key] = tab
    return tab


def _closure_data(d: int, sset: int):
    """Closure of the family {0} + set bits of sset inside the cube.

    Returns (closed bitset, rank, valid sigma list, tables).  The valid
    sigmas, in increasing order, enumerate the partner family A of the
    closed set (for spanning input each sigma is one A vector).
    """
    members = [m for m in range(1, 1 << d) if (sset >> m) & 1]
    basis, helpers = _greedy_basis(d, members)
    tab = _tables(d, basis, helpers)
    det = tab.det
    r = tab.rank
    t = tab.t
    valid = []
    for sigma in range(1 << r):
        ok = True
        for m in members:
            v = t[m][sigma]
            if v != 0 and v != det:
                ok = False
                break
        if ok:
            valid.append(sigma)
    w = tab.w
    closed = 0
    for y in range(1, 1 << d):
        wy = w[y]
        ok = True
        for i in range(r, d):
            if wy[i] != 0:
                ok = False
                break
        if ok:
            ty = t[y]
            for sigma in valid:
                v = ty[sigma]
                if v != 0 and v != det:
                    ok = False
                    break
        if ok:
            closed |= 1 << y
    return closed, r, valid, tab


def closure_and_rank(d: int, sset: int) -> tuple[int, int]:
    closed, r, _, _ = _closure_data(d, sset)
    return closed, r


def _rows(d: int, closed: int, valid: list[int], tab: _BasisTables) -> tuple[list[int], int]:
    """Product-matrix rows of ``closed`` against the partner vectors given
    by ``valid`` and ``tab`` (the closure data of any set whose closure is
    ``closed``)."""
    members = [0] + [m for m in range(1, 1 << d) if (closed >> m) & 1]
    n = len(members)
    det = tab.det
    t = tab.t
    rows = []
    for sigma in valid:
        row = 0
        for j, m in enumerate(members):
            if t[m][sigma] == det:
                row |= 1 << (n - 1 - j)
        rows.append(row)
    return rows, n


def pair_rows(d: int, closed: int) -> tuple[list[int], int]:
    """Product-matrix rows of the maximal pair of a closed spanning set.

    Columns are the family members (zero first, then ascending masks); bit
    2^(n-1-j) of a row is the product with column j.  Rows are ordered by
    increasing sigma, the level pattern on the greedy basis.
    """
    _, _, valid, tab = _closure_data(d, closed)
    return _rows(d, closed, valid, tab)


def a_vector_data(d: int, closed: int) -> tuple[int, list[tuple[int, ...]]]:
    """Exact partner vectors of a closed set: (denominator, numerators)."""
    _, r, valid, tab = _closure_data(d, closed)
    nums = []
    for sigma in valid:
        coord = [0] * d
        for i in range(r):
            if (sigma >> i) & 1:
                row = tab.cof[i]
                coord = [a + b for a, b in zip(coord, row)]
        nums.append(tuple(coord))
    return tab.det, nums


def _next_closed_data(d: int, current: int):
    """Closure data (see :func:`_closure_data`) of the candidate whose
    closure is the lectically next closed set after ``current``, or None
    at the end.  Of two sets in lectic order, the greater one holds the
    lowest cube point where they differ."""
    for i in range((1 << d) - 1, 0, -1):
        bit = 1 << i
        if current & bit:
            continue
        below = bit - 1
        data = _closure_data(d, (current & below) | bit)
        if (data[0] & below) == (current & below):
            return data
    return None


def next_closed(d: int, current: int) -> int:
    """Lectically smallest closed set greater than ``current`` (-1 at the
    end)."""
    data = _next_closed_data(d, current)
    return -1 if data is None else data[0]


def _transpose(rows: list[int], m: int, n: int) -> list[int]:
    cols = []
    for j in range(n):
        col = 0
        jbit = 1 << (n - 1 - j)
        for i in range(m):
            if rows[i] & jbit:
                col |= 1 << (m - 1 - i)
        cols.append(col)
    return cols


def heuristic_form(rows: list[int], n: int) -> bytes:
    """Cheap permutation-stable signature: alternately sort rows and
    columns until stable.  Equal signatures imply permutation-equivalent
    matrices (the converse is handled later by exact canonicalization)."""
    m = len(rows)
    cur = sorted(rows)
    for _ in range(6):
        cols = sorted(_transpose(cur, m, n))
        nxt = sorted(_transpose(cols, n, m))
        if nxt == cur:
            break
        cur = nxt
    width = (n + 7) // 8
    return b"%d,%d:" % (m, n) + b"".join(r.to_bytes(width, "big") for r in cur)


def enum_branch(d: int, top_count: int, p_index: int):
    """All closed sets whose membership pattern on the ``top_count``
    lectically most significant cube points (masks 1..top_count) equals
    ``p_index``, visited in lectic order.

    In the lectic order the smallest ground element is the most
    significant, so sets with a fixed pattern on masks 1..top_count form a
    contiguous run and each branch can be enumerated independently.

    Returns (visited closed sets, spanning closed sets, items) where items
    are sorted (heuristic form, smallest representative bitset) pairs for
    the spanning ones.
    """
    top_elems = [t + 1 for t in range(top_count)]
    top_bits = 0
    for e in top_elems:
        top_bits |= 1 << e
    p_bits = 0
    for t in range(top_count):
        if (p_index >> t) & 1:
            p_bits |= 1 << top_elems[t]

    out: dict[bytes, int] = {}
    visited = 0
    spanning = 0
    data = _closure_data(d, p_bits)
    if data[0] != p_bits:
        data = _next_closed_data(d, p_bits)
    while data is not None and (data[0] & top_bits) == p_bits:
        a, r, valid, tab = data
        visited += 1
        if r == d:
            spanning += 1
            hb = heuristic_form(*_rows(d, a, valid, tab))
            prev = out.get(hb)
            if prev is None or a < prev:
                out[hb] = a
        data = _next_closed_data(d, a)
    return visited, spanning, sorted(out.items())


# ---------------------------------------------------------------------------
# exact facet enumeration (double description)
# ---------------------------------------------------------------------------


def facet_scan(dim: int, verts: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Facets of the convex hull of integer points that affinely span
    R^dim.

    Returns sorted (primitive normal, offset) pairs with every point on
    the <normal, x> <= offset side.  Raises ValueError when dim < 1 or the
    points do not span R^dim.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): the
    facets are the extreme rays of the cone of y = (normal, offset) with
    <normal, v> - offset <= 0 for every point v.  The first dim + 1
    affinely independent points cut out a simplicial cone whose rays are
    the rows of their cofactor matrix.  The other points are added in
    order: each keeps the rays on its side and replaces those it cuts off
    by the combinations, tight on it, of every adjacent pair it
    separates.  A ray carries its zero set, the bitset of points tight on
    it.  Two rays are adjacent exactly when their common zero set lies in
    no third ray's zero set (distinct extreme rays have distinct zero
    sets); one of fewer than dim - 1 points rules adjacency out at once.
    """
    if dim < 1 or not verts:
        raise ValueError(f"no facets for {len(verts)} points in dimension {dim}")
    base = verts[0]
    ech: list[tuple[int, list[int]]] = []
    simplex = [0]
    for i in range(1, len(verts)):
        if len(ech) == dim:
            break
        if _echelon_add(ech, [x - y for x, y in zip(verts[i], base)]):
            simplex.append(i)
    if len(ech) < dim:
        raise ValueError(f"the points do not affinely span R^{dim}")

    h = [list(verts[i]) + [-1] for i in simplex]
    cof = cofactor_matrix(h)
    # row j of cof has product det(h) with h[j] and 0 with the other rows;
    # the sign makes that product negative, so every point is on the <= side
    sign = -1 if sum(x * y for x, y in zip(h[0], cof[0])) > 0 else 1
    tight = sum(1 << i for i in simplex)
    rays = []
    for i, row in zip(simplex, cof):
        g = gcd(*row)
        rays.append((tuple(sign * x // g for x in row), tight ^ (1 << i)))

    done = set(simplex)
    for i, v in enumerate(verts):
        if i in done:
            continue
        bit = 1 << i
        keep, pos, neg = [], [], []
        for y, z in rays:
            s = sum(a * x for a, x in zip(y, v)) - y[dim]
            if s > 0:
                pos.append((s, y, z))
            elif s < 0:
                neg.append((s, y, z))
                keep.append((y, z))
            else:
                keep.append((y, z | bit))
        if pos:
            zsets = [z for _, z in rays]
            for sp, p, zp in pos:
                for sq, q, zq in neg:
                    z = zp & zq
                    if z.bit_count() < dim - 1 or any(
                        zr & z == z and zr != zp and zr != zq for zr in zsets
                    ):
                        continue
                    y = [sp * b - sq * a for a, b in zip(p, q)]
                    g = gcd(*y)
                    keep.append((tuple(x // g for x in y), z | bit))
        rays = keep
    return sorted((y[:dim], y[dim]) for y, _ in rays)
