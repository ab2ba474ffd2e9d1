"""Pure-Python kernel: hot loops behind enumeration and facet enumeration.

This module is the reference twin of the C kernel (``_ckernel.c``, loaded
by :mod:`bsp._kernel_c`); both expose the same functions with identical
outputs, and the active one is chosen in :mod:`bsp.kernel`.
:func:`facet_scan` is implemented here only: its exact double
description needs unbounded integers, and the C kernel re-exports it.

Everything here works on bit-packed data.  A subset of the 0/1 cube in
dimension d is an integer whose bit y is the cube point with coordinate
vector (y & 1, y >> 1 & 1, ...); the zero point (bit 0) is an implicit
member of every family and is never stored.

Closure of a set S, in both kernels.  B is the greedy basis of S (again
and again, the lowest point of S outside the span of the points picked
so far), r = |B|, and M is B followed by the unit vectors that complete
it to a basis of R^d.  With D = det(M), D times the coordinates of a
point y in the rows of M is w(y) = sum over set bits j of y of row j of
adj(M), all integers.  A pattern sigma, a subset of the basis positions
0..r-1, stands for the partner vector a with <a, b_i> = [i in sigma] and
<a, e> = 0 on the completing unit vectors; then D <a, y> = t(y, sigma) =
sum over i in sigma of w_i(y).  Each basis has bitsets over the 2^r
patterns for each point y of its span (w_i(y) = 0 for i >= r): ok[y]
holds the sigma with t(y, sigma) in {0, D}, one[y] those with
t(y, sigma) = D.  The valid patterns are the AND of ok[m] over the
members m of S, the closure is every span point y with
ok[y] & valid == valid, and the product-matrix rows are one[m] & valid,
read column by column.

Each lectic set is closed once.  :func:`enum_branch` takes the rank and
the product-matrix rows of every closed set from the closure data of the
Next-Closure candidate that produced it: a candidate and its closure
have the same partner family, and the basis tables cover every cube
point, so the rows are those of :func:`pair_rows` up to order (which
:func:`heuristic_form` ignores).
"""

from __future__ import annotations

from math import gcd

from .linalg import det_adjugate, independent_rows

BACKEND = "python"

# every cache below is emptied when it reaches this many entries
_MAX_CACHED_BASES = 60000
_tables_cache: dict = {}  # (d, greedy basis) -> _BasisTables
_span_cache: dict = {}  # (d, basis prefix) -> (span bitset, linear forms)
_patterns_cache: dict = {}  # (D, w restricted to the basis) -> (ok, one)


def _remember(cache: dict, key, value):
    if len(cache) >= _MAX_CACHED_BASES:
        cache.clear()
    cache[key] = value
    return value


class _BasisTables:
    """What closures on one greedy basis need (see the module docstring):
    ``det`` = D, ``rank`` = r, ``span`` (the bitset of the cube points in
    the span of B) and, indexed by cube point, ``ok`` and ``one`` (zero
    off the span; ``ok[0]`` holds every pattern)."""

    __slots__ = ("det", "rank", "span", "ok", "one")

    def __init__(self, d: int, basis: tuple[int, ...], helpers: list[int]):
        rows = [[(m >> i) & 1 for i in range(d)] for m in basis]
        rows += [[int(i == h) for i in range(d)] for h in helpers]
        r = self.rank = len(basis)
        self.det, adj = det_adjugate(rows)
        self.span = 1
        self.ok = [(1 << (1 << r)) - 1] + [0] * ((1 << d) - 1)
        self.one = [0] * (1 << d)
        w = [[0] * d]
        for y in range(1, 1 << d):
            low = y & -y
            w.append([a + b for a, b in zip(w[y ^ low], adj[low.bit_length() - 1])])
            if not any(w[y][r:]):
                self.span |= 1 << y
                key = (self.det, tuple(w[y][:r]))
                hit = _patterns_cache.get(key)
                self.ok[y], self.one[y] = hit or _remember(_patterns_cache, key, _patterns(*key))


def _patterns(det: int, w: tuple[int, ...]) -> tuple[int, int]:
    """(ok, one) of a point with this w on a basis with this det."""
    t = [0]  # t[sigma] = sum over set bits i of sigma of w[i]
    for wi in w:
        t += [x + wi for x in t]
    ok = one = 0
    for sigma, x in enumerate(t):
        if not x or x == det:
            ok |= 1 << sigma
            one |= (x == det) << sigma
    return ok, one


def _annihilate(d: int, forms: list[list[int]], y: int) -> list[list[int]] | None:
    """Primitive integer linear forms spanning those that vanish on U and
    on the cube point y, given ``forms`` spanning those that vanish on U;
    None when y is in U."""
    vals = [sum(f[j] for j in range(d) if (y >> j) & 1) for f in forms]
    k = next((k for k, v in enumerate(vals) if v), None)
    if k is None:
        return None
    out = []
    for i, (f, v) in enumerate(zip(forms, vals)):
        if i != k:
            f = [vals[k] * a - v * b for a, b in zip(f, forms[k])]
            g = gcd(*f)
            out.append([a // g for a in f])
    return out


def _closure_data(d: int, sset: int):
    """Closure of the family {0} + set bits of sset inside the cube.

    Returns (closed bitset, rank, valid pattern bitset, tables).  The
    valid patterns enumerate the partner family A of the closed set (for
    spanning input each pattern is one A vector).  The greedy basis is
    found from the cached span of each of its prefixes.
    """
    sset &= (1 << (1 << d)) - 2  # the cube points other than the origin
    basis: tuple[int, ...] = ()
    key = (d, basis)
    span, forms = _span_cache.get(key) or _remember(
        _span_cache, key, (1, [[int(i == j) for j in range(d)] for i in range(d)])
    )
    while rest := sset & ~span:
        y = (rest & -rest).bit_length() - 1
        basis += (y,)
        key = (d, basis)
        hit = _span_cache.get(key)
        if hit is None:
            forms = _annihilate(d, forms, y)
            span = (1 << (1 << d)) - 1
            for f in forms:
                vals = [0]  # vals[x] = f(x) for every cube point x
                for c in f:
                    vals += [v + c for v in vals]
                span &= sum(1 << x for x, v in enumerate(vals) if not v)
            hit = _remember(_span_cache, key, (span, forms))
        span, forms = hit
    tab = _tables_cache.get(key)
    if tab is None:
        helpers = []
        for i in range(d):
            if (cut := _annihilate(d, forms, 1 << i)) is not None:
                helpers.append(i)
                forms = cut
        tab = _remember(_tables_cache, key, _BasisTables(d, basis, helpers))
    ok = tab.ok
    valid = ok[0]
    rest = sset
    while rest:
        low = rest & -rest
        valid &= ok[low.bit_length() - 1]
        rest ^= low
    closed = 0
    rest = tab.span & ~1
    while rest:
        low = rest & -rest
        if ok[low.bit_length() - 1] & valid == valid:
            closed |= low
        rest ^= low
    return closed, tab.rank, valid, tab


def closure_and_rank(d: int, sset: int) -> tuple[int, int]:
    closed, r, _, _ = _closure_data(d, sset)
    return closed, r


def _rows(closed: int, valid: int, tab: _BasisTables) -> tuple[list[int], int]:
    """Product-matrix rows of ``closed`` against the partner vectors given
    by ``valid`` and ``tab`` (the closure data of any set whose closure is
    ``closed``): column j is one[y] & valid for the j-th member y, spread
    over the rows by its set bits."""
    pos = {}
    rest = valid
    while rest:
        low = rest & -rest
        pos[low] = len(pos)
        rest ^= low
    rows = [0] * len(pos)
    one = tab.one
    bit = 1 << closed.bit_count()  # the zero point is column 0 and all zero
    rest = closed
    while rest:
        low = rest & -rest
        rest ^= low
        bit >>= 1
        col = one[low.bit_length() - 1] & valid
        while col:
            s = col & -col
            rows[pos[s]] |= bit
            col ^= s
    return rows, closed.bit_count() + 1


def pair_rows(d: int, closed: int) -> tuple[list[int], int]:
    """Product-matrix rows of the maximal pair of a closed spanning set.

    Columns are the family members (zero first, then ascending masks); bit
    2^(n-1-j) of a row is the product with column j.  Rows are ordered by
    increasing sigma, the level pattern on the greedy basis.
    """
    _, _, valid, tab = _closure_data(d, closed)
    return _rows(closed & ((1 << (1 << d)) - 2), valid, tab)


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
    """Bit m-1-i of column j is bit n-1-j of row i."""
    cols = [0] * n
    bit = 1 << m
    for row in rows:
        bit >>= 1
        while row:
            j = row.bit_length()
            cols[n - j] |= bit
            row ^= 1 << (j - 1)
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
    top_bits = ((1 << top_count) - 1) << 1
    p_bits = (p_index << 1) & top_bits

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
            hb = heuristic_form(*_rows(a, valid, tab))
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
    the columns of their adjugate.  The other points are added in
    order: each keeps the rays on its side and replaces those it cuts off
    by the combinations, tight on it, of every adjacent pair it
    separates.  A ray carries its zero set, the bitset of points tight on
    it.  Two rays are adjacent exactly when their common zero set lies in
    no third ray's zero set (distinct extreme rays have distinct zero
    sets); one of fewer than dim - 1 points rules adjacency out at once.
    """
    if dim < 1 or not verts:
        raise ValueError(f"no facets for {len(verts)} points in dimension {dim}")
    diffs = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    simplex = [0] + [i + 1 for i in independent_rows(diffs, limit=dim)]
    if len(simplex) <= dim:
        raise ValueError(f"the points do not affinely span R^{dim}")

    h = [list(verts[i]) + [-1] for i in simplex]
    det_h, adj = det_adjugate(h)
    # column j of adj(h) has product det(h) with h[j] and 0 with the other
    # rows; the sign makes that product negative, so every point is on the
    # <= side
    sign = -1 if det_h > 0 else 1
    tight = sum(1 << i for i in simplex)
    rays = []
    for i, row in zip(simplex, zip(*adj)):
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
