"""Pure-Python kernel: hot loops behind enumeration and facet enumeration.

This module is the reference twin of the C kernel (``_ckernel.c``, loaded
by :mod:`bsp._kernel_c`), and the active one is chosen in
:mod:`bsp.kernel`.  The C kernel runs :func:`pair_rows` and
:func:`enum_branch`, with identical outputs, and re-exports every other
function from here: the exact double description of :func:`facet_scan`
needs unbounded integers, and the others run only outside the hot loops
(checkpoint reads, oracles and tests).

Everything here works on bit-packed data.  A subset of the 0/1 cube in
dimension d is an integer whose bit y is the cube point with coordinate
vector (y & 1, y >> 1 & 1, ...); the zero point (bit 0) is an implicit
member of every family and is never stored.

Closure of a set S, in both kernels.  B is the greedy basis of S (again
and again, the lowest point of S outside the span of the points picked
so far), r = |B|, and M is B followed by unit vectors that complete it
to a basis of R^d.  With integer linear forms phi_0..phi_{d-1} and a
denominator D with phi_i(m_j) = D [i = j] on the rows m_j of M, D times
the coordinates of a point y in the rows of M is w(y) = (phi_i(y))_i.
A pattern sigma, a subset of the basis positions 0..r-1, stands for the
partner vector a with <a, b_i> = [i in sigma] and <a, e> = 0 on the
completing unit vectors; then D <a, y> = t(y, sigma) = sum over i in
sigma of w_i(y).  Each basis has bitsets over the 2^r patterns for each
point y of its span (w_i(y) = 0 for i >= r): ok[y] holds the sigma with
t(y, sigma) in {0, D}, one[y] those with t(y, sigma) = D.  The valid
patterns are the AND of ok[m] over the members m of S, the closure is
every span point y with ok[y] & valid == valid, and the product-matrix
rows are one[m] & valid, read column by column.  On the span, neither
the choice of unit vectors nor the scale of D changes the tables.  Both
kernels build the phi by one walk along the greedy basis from M = I,
D = 1, :func:`bsp.linalg.extend` here and its transcription in C: the
next point p takes the place of the first unit row e_k with
phi_k(p) = v != 0 by an integer rank-one update (Sherman & Morrison
1950) divided by the previous D (Bareiss 1968),
phi_i <- (v phi_i - phi_i(p) phi_k) / D (i != k), phi_k kept, D <- v.
Every division is exact and D = +-det(M).  A prefix spans where
phi_r..phi_{d-1} vanish.  The twin keeps this state, as the walk
leaves it, with the tables of each prefix; only filling the tables
divides D and phi_0..phi_{r-1} by their gcd with the sign that makes
D > 0, so that equal tables share ``_patterns`` cache keys.

Both kernels' :func:`enum_branch` walk each branch as this Close-by-One
tree.  A child adds one point j to a closed set a.  When j is in the span
of a, the child closes on a's own tables: its valid patterns are
valid & ok[j], since a's basis lies in the child and spans it.
Otherwise the child closes on the greedy basis of a + {j}.  The rank and the product-matrix
rows of every closed set come from the tables it was closed on: a set
and its closure have the same partner family, and the tables of any
basis of the span inside the set give that family, so the rows are those
of :func:`pair_rows` up to order (which :func:`heuristic_form` ignores).

Closing a set runs no Python loop over its members:
``compress(seq, _flags(x))`` gathers the entries of seq at the set bits
of x.  valid is the AND of the gathered ok; the closure is the AND of
pts[sigma] over the valid sigma, pts[sigma] being the bitset of the
points whose ok holds sigma (an ``array`` built with the table: ok
packed one word per point into one integer and transposed as a bit
matrix by delta swaps).  The product-matrix rows are the gathered
one[m] transposed the same way, read at the valid sigma.
:func:`enum_branch` memoizes :func:`heuristic_form` on valid and the
gathered one[m], which fix the matrix exactly (its rows are the
gathered one[m] read at the valid sigma only, so bits at other sigma
never reach them), so rows are built only on a miss: at d=4 its 6,963
spanning sets have 347 distinct matrices.  It also memoizes the selector
``_flags(v)`` of an in-span child's valid patterns v, a function of v
alone: a cold d=4 run closes 7,404 such children on 456 distinct v.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import chain, compress
from math import gcd
from operator import and_, mul

from .linalg import extend, greedy_inverse

BACKEND = "python"

# every cache below is emptied when it reaches this many entries
_MAX_CACHED_BASES = 60000
_tables_cache: dict = {}  # basis bitset << 3 | d -> _BasisTables
_patterns_cache: dict = {}  # (D, w restricted to the basis) -> (ok, one)
_forms_cache: dict = {}  # (valid, one[m] for each member m) -> heuristic form
_selectors_cache: dict = {}  # valid patterns of an in-span child -> _flags(valid)
CACHES = {"tables": _tables_cache, "patterns": _patterns_cache, "forms": _forms_cache,
          "selectors": _selectors_cache}

MAX_DIM = 6  # a cube bitset fits a 64-bit word, as the C kernel needs
_SELECT = bytes.maketrans(b"01", b"\0\1")
# per d: the narrowest array type for a cube bitset; the empty basis's span
_POINTS_TYPE = [next(c for c in "BHILQ" if array(c).itemsize * 8 >= 1 << d)
                for d in range(MAX_DIM + 1)]
_NO_BASIS = [(1, 1, *(int(i == j) for i in range(d) for j in range(d)))
             for d in range(MAX_DIM + 1)]


def _swaps(w: int) -> list[tuple[int, int]]:
    """The delta swaps (shift, mask) that transpose a w x w bit matrix
    packed row by row into one integer (row i is bits i w .. i w + w - 1),
    for w a power of 2: the one for k = w/2, w/4, .., 1 swaps the bits at
    (i, j) and (i + k, j - k) where bit k is set in j and not in i."""
    swaps = []
    for k in (w >> s for s in range(1, w.bit_length())):
        cols = sum(1 << j for j in range(w) if j & k)
        swaps.append((k * (w - 1), sum(cols << i * w for i in range(w) if not i & k)))
    return swaps


_SWAPS = [_swaps(array(c).itemsize * 8) for c in _POINTS_TYPE]  # per d


def check_set(d: int, sset: int) -> None:
    """The argument contract of both kernels for a dimension and a cube
    bitset: ValueError unless 1 <= d <= MAX_DIM and 0 <= sset < 2^(2^d)."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d must be in [1, {MAX_DIM}], got {d}")
    if not 0 <= sset < 1 << (1 << d):
        raise ValueError(f"bitset {sset} is outside [0, 2^{1 << d})")


def check_branch(d: int, top_count: int, p_index: int) -> None:
    """The argument contract of both kernels' :func:`enum_branch`."""
    check_set(d, 0)
    if not 0 <= top_count < 1 << d:
        raise ValueError(f"top_count must be in [0, {(1 << d) - 1}], got {top_count}")
    if not 0 <= p_index < 1 << top_count:
        raise ValueError(f"p_index must be in [0, 2^{top_count}), got {p_index}")


def check_rows(rows: list[int], n: int) -> None:
    """The argument contract of both kernels' :func:`heuristic_form`."""
    if not (0 <= n <= 64 and len(rows) <= 64 and all(0 <= r < 1 << n for r in rows)):
        raise ValueError("heuristic_form takes at most 64 rows of n <= 64 bits")


def _remember(cache: dict, key, value):
    if len(cache) >= _MAX_CACHED_BASES:
        cache.clear()
    cache[key] = value
    return value


def _flags(x: int) -> bytes:
    """Selector for ``itertools.compress``: byte i is bit i of x."""
    return bin(x)[:1:-1].encode().translate(_SELECT)


def _values(f) -> list[int]:
    """The linear form with coefficients f at every cube point, indexed
    by the point's bitset (the subset sums of f)."""
    vals = [0]
    for c in f:
        vals += [v + c for v in vals]
    return vals


def _patterns(det: int, w: tuple[int, ...]) -> tuple[int, int]:
    """(ok, one) of a point with this w on a basis with this D, as bitsets
    over sigma."""
    if (hit := _patterns_cache.get(key := (det, w))) is None:
        t = _values(w)  # t[sigma] = sum over set bits i of sigma of w[i]
        ok = int("".join("1" if x in (0, det) else "0" for x in reversed(t)), 2)
        one = int("".join("1" if x == det else "0" for x in reversed(t)), 2)
        hit = _remember(_patterns_cache, key, (ok, one))
    return hit


class _BasisTables:
    """What closures on one greedy basis need (see the module docstring):
    its cache ``key``, ``rank`` = r and the ``entry`` (span bitset, D,
    phi_0 .. phi_{d-1}) that :func:`_extend` takes one point further;
    once :meth:`fill` ran, also ``ok`` and ``one`` by cube point (0 and
    zeros off the span of B; ``ok[0]`` holds every pattern) and ``pts``
    by pattern (bit y of pts[sigma] is bit sigma of ok[y]).  A prefix
    that greedy-basis walks have only passed through is not filled."""

    __slots__ = ("key", "rank", "entry", "ok", "one", "pts")

    def __init__(self, key: int, entry: tuple[int, ...]):
        self.key, self.rank, self.entry = key, (key >> 3).bit_count(), entry

    def fill(self, d: int) -> None:
        r = self.rank
        span, det, *phi = self.entry[:2 + r * d]
        # D and phi_0 .. phi_{r-1} over their gcd, D > 0: the _patterns key
        if (g := gcd(det, *phi) * (1 if det > 0 else -1)) != 1:
            det //= g
            phi = [c // g for c in phi]
        origin = _patterns(det, (0,) * r)
        self.ok = [origin[0]] + [0] * ((1 << d) - 1)
        self.one = [origin[1]] * (1 << d)
        at = _flags(span & ~1)
        w = zip(*[compress(_values(phi[i:i + d]), at) for i in range(0, r * d, d)])
        for y, wy in zip(compress(range(1 << d), at), w):
            self.ok[y], self.one[y] = _patterns(det, wy)
        self.pts = _transposed(d, self.ok, 1 << r)


def _transposed(d: int, rows: list[int], n: int) -> array:
    """The first n rows of the transpose of the bit matrix whose row y is
    rows[y], as an array of _POINTS_TYPE[d]: the rows packed into one
    integer, one word each, and transposed by the delta swaps of
    _SWAPS[d]."""
    words = array(_POINTS_TYPE[d], rows)
    size = words.itemsize
    if sys.byteorder == "big":
        words.byteswap()
    x = int.from_bytes(words.tobytes(), "little")
    for shift, mask in _SWAPS[d]:
        t = (x ^ x >> shift) & mask
        x ^= t | t << shift
    words = array(_POINTS_TYPE[d])
    words.frombytes(x.to_bytes(8 * size * size, "little")[:n * size])
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _extend(d: int, key: int, entry: tuple[int, ...]) -> tuple[int, ...]:
    """Table entry of the basis prefix with cache key ``key``, given
    ``entry``, that of the prefix without its last point: (phi, D) take
    one :func:`linalg.extend` step, unreduced so that the next step's
    division stays exact, and the span is where phi_r .. phi_{d-1}
    vanish (see the module docstring)."""
    r, at_y = (key >> 3).bit_count(), _flags((key >> 3).bit_length() - 1)
    phi = [entry[i:i + d] for i in range(2, 2 + d * d, d)]
    phi, den = extend(phi, entry[1], r - 1, [sum(compress(f, at_y)) for f in phi])
    span = (1 << (1 << d)) - 1
    for f in phi[r:]:
        span &= int("".join("0" if x else "1" for x in reversed(_values(f))), 2)
    return (span, den, *chain(*phi))


def _basis(d: int, sset: int, key: int) -> tuple[_BasisTables, int]:
    """Tables of the greedy basis of the cube points in sset (the origin
    excluded) and its valid patterns.  The basis is walked point by point
    through the tables of each of its prefixes, from the one with cache
    key ``key`` on, or from the empty one (key ``d``) when that was
    evicted; a missing one is made from the entry of the one before, and
    only the basis's own tables are filled."""
    if (tab := _tables_cache.get(key)) is None:
        key = d
        tab = _tables_cache.get(d) or _remember(_tables_cache, d, _BasisTables(d, _NO_BASIS[d]))
    while rest := sset & ~tab.entry[0]:
        key += (rest & -rest) << 3
        tab = _tables_cache.get(key) or _remember(
            _tables_cache, key, _BasisTables(key, _extend(d, key, tab.entry)))
    if not hasattr(tab, "pts"):
        tab.fill(d)
    return tab, reduce(and_, compress(tab.ok, _flags(sset)), tab.ok[0])


def _closure_data(d: int, sset: int, key: int):
    """Closure of the family {0} + set bits of sset inside the cube, given
    the key of a prefix of its greedy basis (see :func:`_basis`).

    Returns (closed bitset, rank, valid pattern bitset, tables).  The
    valid patterns enumerate the partner family A of the closed set (for
    spanning input each pattern is one A vector)."""
    tab, valid = _basis(d, sset & (1 << (1 << d)) - 2, key)
    closed = reduce(and_, compress(tab.pts, _flags(valid))) & ~1
    return closed, tab.rank, valid, tab


def closure_and_rank(d: int, sset: int) -> tuple[int, int]:
    check_set(d, sset)
    return _closure_data(d, sset, d)[:2]


def _rows(d: int, cols, valid: int) -> list[int]:
    """Product-matrix rows at the valid patterns, in increasing sigma, of
    the members whose one[] bitsets are ``cols`` in column order: the
    reversed columns transposed, so that column j lands at bit n-1-j."""
    return list(compress(_transposed(d, cols[::-1], valid.bit_length()), _flags(valid)))


def pair_rows(d: int, closed: int) -> tuple[list[int], int]:
    """Product-matrix rows of the maximal pair of a closed spanning set.

    Columns are the family members (zero first, then ascending masks); bit
    2^(n-1-j) of a row is the product with column j.  Rows are ordered by
    increasing sigma, the level pattern on the greedy basis.
    """
    check_set(d, closed)
    closed &= (1 << (1 << d)) - 2
    tab, valid = _basis(d, closed, d)
    cols = list(compress(tab.one, _flags(closed | 1)))
    return _rows(d, cols, valid), len(cols)


def next_closed(d: int, current: int) -> int:
    """Lectically smallest closed set greater than ``current`` (-1 at the
    end).  Of two sets in lectic order, the greater one holds the lowest
    cube point where they differ."""
    check_set(d, current)
    for i in range((1 << d) - 1, 0, -1):
        bit = 1 << i
        if current & bit:
            continue
        below = bit - 1
        closed = _closure_data(d, (current & below) | bit, d)[0]
        if (closed & below) == (current & below):
            return closed
    return -1


def heuristic_form(rows: list[int], n: int) -> bytes:
    """Cheap signature: alternately sort rows and columns until stable.
    Equal signatures imply permutation-equivalent matrices (the converse
    is handled later by exact canonicalization).  The form does not
    depend on the order of ``rows``, but it does depend on the order of
    the columns: on 3,000 d=5 forms a random column permutation changed
    about 2,940 of them and a single column swap 1,846, while a row
    shuffle changed none.  So callers that transpose a matrix before
    taking its form must transpose it alike (:func:`bsp.canon.transpose`).

    The form is ``b"m,n:"`` followed by the sorted rows, each as whole
    big-endian bytes; :func:`form_rows` reads it back."""
    check_rows(rows, n)
    m = len(rows)
    if not (m and n):
        return b"%d,%d:" % (m, n)
    rows = sorted(bin(r | 1 << n)[3:] for r in rows)
    for _ in range(6):
        cols = sorted(map("".join, zip(*rows)))
        nxt = sorted(map("".join, zip(*cols)))
        if nxt == rows:
            break
        rows = nxt
    pad = "0" * (-n % 8)  # each row to whole bytes, big-endian
    return b"%d,%d:" % (m, n) + int(pad + pad.join(rows), 2).to_bytes(m * ((n + 7) // 8), "big")


def form_rows(form: bytes) -> tuple[list[int], int]:
    """The int rows and column count of the matrix a :func:`heuristic_form`
    holds (the inverse of its packing), in the form's row order."""
    head, _, packed = form.partition(b":")
    m, n = map(int, head.split(b","))
    width = (n + 7) // 8
    if not width:
        return [0] * m, n
    return [int.from_bytes(packed[i:i + width], "big") for i in range(0, m * width, width)], n


def enum_branch(d: int, top_count: int, p_index: int):
    """All closed sets whose membership pattern on the ``top_count``
    lectically most significant cube points (masks 1..top_count) equals
    ``p_index``, visited depth first as a Close-by-One tree.

    In the lectic order the smallest ground element is the most
    significant, so sets with a fixed pattern on masks 1..top_count form a
    contiguous run and each branch can be enumerated independently.  Its
    closed sets all contain the root, the closure of its pattern (the
    branch is empty when that closure adds a top point).  A node a, made
    by adding point y, has a child for each point j > y outside a whose
    closure of a + {j} adds no point below j (the canonicity test of
    Kuznetsov 1993); every closed set of the branch is reached once.  A
    child in the span of a closes as an AND on a's own tables (see the
    module docstring).  A closure that fails the test at j is kept for
    the node's whole subtree, and a descendant skips j while it holds a
    point below j outside the descendant's set: by monotonicity its own
    closure would hold that point too (FCbO: Krajca, Outrata & Vychodil
    2010).

    Returns (visited closed sets, spanning closed sets, items) where items
    are sorted (heuristic form, smallest representative bitset) pairs for
    the spanning ones; none of them depends on the order of the walk.
    """
    check_branch(d, top_count, p_index)
    top_bits = ((1 << top_count) - 1) << 1
    p_bits = (p_index << 1) & top_bits
    a, r, valid, tab = _closure_data(d, p_bits, d)
    if a & top_bits != p_bits:
        return 0, 0, []

    out: dict[bytes, int] = {}
    forms, selectors = _forms_cache, _selectors_cache
    visited = spanning = 0
    n = 1 << d
    # (set, rank, valid patterns, tables, added point, base, failed closures
    # by point); tab is the greedy basis of a set that agrees with the node's
    # set up to point base, so its points up to base are a greedy prefix of
    # every candidate in the node's subtree
    stack = [(a, r, valid, tab, top_count, top_count, [0] * n)]
    while stack:
        a, r, valid, tab, y, base, failed = stack.pop()
        visited += 1
        if r == d:
            spanning += 1
            # the valid patterns and the members' one[] fix the matrix (see
            # the module docstring); tables of other bases share the key
            key = (valid, *compress(tab.one, _flags(a | 1)))
            if (hb := forms.get(key)) is None:
                hb = _remember(forms, key, heuristic_form(_rows(d, key[1:], valid), len(key) - 1))
            prev = out.get(hb)
            if prev is None or a < prev:
                out[hb] = a
        ok, pts = tab.ok, tab.pts
        # the children share this list: none is popped before the loop ends
        failed = failed.copy()
        for j in range(y + 1, n):
            bit = 1 << j
            below = bit - 1
            if a & bit or failed[j] & below & ~a:
                continue
            if ok_j := ok[j]:  # j is in the span of a
                v = valid & ok_j
                if (at := selectors.get(v)) is None:
                    at = _remember(selectors, v, _flags(v))
                child = (reduce(and_, compress(pts, at)) & ~1, r, v, tab, j, base, failed)
            else:
                prefix = tab.key & ((2 << base) - 1 << 3 | 7)
                child = (*_closure_data(d, a | bit, prefix), j, j, failed)
            if (child[0] ^ a) & below:
                failed[j] = child[0]
            else:
                stack.append(child)
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
    the functionals phi_j of :func:`linalg.greedy_inverse` on the lifted
    points (v, -1), negated when D > 0.  The other points are added in
    order: each keeps the rays on its side and replaces those it cuts off
    by the combinations, tight on it, of every adjacent pair it
    separates.  A ray carries its zero set, the bitset of points tight on
    it.  Two rays are adjacent exactly when their common zero set lies in
    no third ray's zero set (distinct extreme rays have distinct zero
    sets); one of fewer than dim - 1 points rules adjacency out at once.
    """
    if dim < 1 or not verts:
        raise ValueError(f"no facets for {len(verts)} points in dimension {dim}")
    simplex, den, phi = greedy_inverse(((*v, -1) for v in verts), dim + 1)
    if len(simplex) <= dim:
        raise ValueError(f"the points do not affinely span R^{dim}")

    # phi_j has product D with the lifted simplex point j and 0 with the
    # others; the sign makes that product negative, so every point is on
    # the <= side
    sign = -1 if den > 0 else 1
    tight = sum(1 << i for i in simplex)
    rays = []
    for i, f in zip(simplex, phi):
        g = gcd(*f)
        rays.append((tuple(sign * x // g for x in f), tight ^ (1 << i)))

    done = set(simplex)
    for i, v in enumerate(verts):
        if i in done:
            continue
        bit = 1 << i
        keep, pos, neg = [], [], []
        for y, z in rays:
            s = sum(map(mul, y, v)) - y[dim]
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
