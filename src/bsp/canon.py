"""Canonical forms of 0/1 matrices under row x column permutations.

The canonical representative is the lexicographically least row-major bit
string reachable by permuting rows and columns independently.  Rows are
Python ints with column j at bit n-1-j (what ``int(row, 2)`` gives); the
ordered partition of the columns is a list of int masks, one per block of
columns that are still interchangeable.  Rows are placed one level at a
time.  A row's pattern at a level is its count vector, ``(row & blk)
.bit_count()`` for each block, read as zeros before ones inside the block;
placing the row refines every block into ``blk & ~row`` then ``blk & row``.
Only rows achieving the least count vector are branched on, so the search
is exact, and the key is packed straight from the least count trace.  A
step whose candidates hold a single distinct row is forced and placed
without branching.

The trace alone fixes the permuted matrix, since the key is packed
straight from it.  So a known key certifies a matrix by a descent that
follows only the key's trace (:func:`has_key`): at each level it branches
only on the rows whose count vector is the trace's.  A complete path
permutes the matrix into the key's matrix, so the certificate is sound.
It is also complete: a matrix with that key reaches the trace along its
own search's best path, and the descent tries every row that fits.
Rows that fit a trace are few on product matrices, so a certificate
costs about one path there.  A level of that path filters the rows left
block by block against the trace's count vector, one popcount per row
per block, only while two or more remain; keying the d=5 forms, the
first block leaves at most one on 45% of the levels that start with
two or more.  The one row left then has its whole count vector
compared with the trace's once, one popcount per block, and the blocks
are split by it.  A level of the search's own descents costs the same
plus a minimum per filtered block, and the key is packed one n-bit row
per level.

A leaf whose trace equals a known one proves an isomorphism (McKay &
Piperno, Practical graph isomorphism II, 2014), and the search uses it
in two ways.  First, at a branch whose trace so far is a prefix of the
best trace, a child from which the descent reaches the best trace is
skipped.  The isomorphism between that leaf and the best leaf maps the
best leaf's ancestor at the child's depth onto the child.  That ancestor
is not on the current path, so its subtree is already searched, and the
child's subtree holds the same traces.  A transpose whose descent
reaches the best trace is skipped too.

Second, the leaf such a descent reaches, and a search leaf that ties the
best trace, each prove an automorphism, which the search stores as a
map: the best leaf's i-th row goes to the new leaf's i-th row.  Both
leaves spell the same permuted matrix, so some column permutation
carries each row of the one onto the row at the same place in the other;
the map is that column permutation acting on row values.  So equal rows
have equal images and the rows need not be distinct.  A map is kept for
one orientation only: the rows of the transpose are other values, and a
tie across orientations proves an isomorphism to the transpose, not an
automorphism.  At a branch, a candidate is then skipped, with no
descent, when the maps that fix every row of the current path, taken
together, carry a sibling already searched or skipped onto it.  They
must fix the path pointwise: the column permutation then keeps each
placed row, and with them every column block, so it carries the
sibling's subtree onto the candidate's with the same count vectors and
the same traces.  A map that moves a placed row may exchange two blocks,
and then the traces below may differ.  So the search descends once per
orbit of siblings, not once per sibling: on the 32 x 32 identity it
makes 31 descents instead of 496.  The stored maps generate the
automorphisms the search met; a count of |Aut| would start from them.

No table of seen states is kept: children that an automorphism swaps
are cut by these rules once the best trace is known, and on product and
slack matrices, normalising each branching state cost more than it saved.
"""

from __future__ import annotations

import functools

from .family import ProductMatrix


def _refine(blocks: list[int], row: int) -> list[int]:
    """The blocks split by a placed row: each into its columns where the
    row is 0, then those where it is 1, with no empty part."""
    out = []
    for blk in blocks:
        ones = blk & row
        if ones and ones != blk:
            out += (blk ^ ones, ones)
        else:
            out.append(blk)
    return out


def _follows(
    blocks: list[int], rem: list[int], level: int, target: tuple, path: list[int]
) -> bool:
    """Whether the rows ``rem`` can be placed so that the trace goes on
    from ``level`` exactly as ``target`` does.  If so, the rows are
    appended to ``path`` in the order placed; if not, ``path`` is left as
    it was."""
    start, rem = len(path), rem.copy()  # one copy; placed rows are removed in place
    while rem:
        want, cands = target[level], rem
        for blk, ones in zip(blocks, want):
            if len(cands) < 2:  # one row left: compare its whole count vector once
                if cands and tuple([(cands[0] & b).bit_count() for b in blocks]) != want:
                    cands = []
                break
            cands = [row for row in cands if (row & blk).bit_count() == ones]
        if not cands:
            break
        level += 1
        row = cands[0]
        if cands.count(row) < len(cands):  # two distinct candidates
            for row in dict.fromkeys(cands):
                rest = rem.copy()
                rest.remove(row)
                path.append(row)
                if _follows(_refine(blocks, row), rest, level, target, path):
                    return True
                path.pop()
            break
        path.append(row)
        rem.remove(row)
        blocks = _refine(blocks, row)
    else:
        return True
    del path[start:]
    return False


def _pack(m: int, n: int, trace: tuple) -> bytes:
    """The key of the matrix a count trace spells: ``b"m,n:"`` and the
    row-major bit string packed big-endian.  Block sizes evolve
    deterministically from the counts."""
    packed, sizes = 0, [n]
    for counts in trace:
        row, parts = 0, []
        for size, ones in zip(sizes, counts):
            row = row << size | (1 << ones) - 1
            if 0 < ones < size:
                parts += (size - ones, ones)
            else:
                parts.append(size)
        packed = packed << n | row
        sizes = parts
    return b"%d,%d:" % (m, n) + packed.to_bytes((m * n + 7) // 8, "big")


@functools.lru_cache(maxsize=1024)
def _unpack(key: bytes) -> tuple[int, int, tuple]:
    """(m, n, count trace) of a key: its rows read in order, which is the
    trace :func:`_pack` packed."""
    head, _, packed = key.partition(b":")
    m, n = (int(x) for x in head.split(b","))
    bits, full = int.from_bytes(packed, "big"), (1 << n) - 1
    blocks, trace = [full] if n else [], []
    for i in range(m - 1, -1, -1):
        row = bits >> i * n & full
        trace.append(tuple([(row & blk).bit_count() for blk in blocks]))
        blocks = _refine(blocks, row)
    return m, n, tuple(trace)


def _key(m: int, n: int, *orientations: list[int]) -> bytes:
    """Serialised canonical form of the m x n matrix with the given rows
    (see :func:`_pack`); the least over several row lists when given (one
    search, one best)."""
    best = ((n + 1,),)  # compares above every trace
    best_leaf = None  # rows of the best leaf, when it is in this orientation
    maps: list[dict[int, int]] = []  # proved automorphisms: moved row -> image
    path: list[int] = []  # rows placed so far

    def dfs(blocks: list[int], rem: list[int], trace: tuple) -> None:
        nonlocal best, best_leaf
        rem = rem.copy()  # one copy; placed rows are removed in place
        while rem:
            # the rows with the least count vector, filtered block by block
            cands = rem
            for blk in blocks:
                if len(cands) == 1:
                    break
                ones = [(row & blk).bit_count() for row in cands]
                least = min(ones)
                if ones.count(least) < len(ones):
                    cands = [row for row, k in zip(cands, ones) if k == least]
            row = cands[0]
            trace += (tuple([(row & blk).bit_count() for blk in blocks]),)
            if trace > best:
                return
            if cands.count(row) < len(cands):  # two distinct candidates
                break
            path.append(row)
            rem.remove(row)
            blocks = _refine(blocks, row)
        else:
            if trace < best:
                best, best_leaf = trace, tuple(path)
            else:
                prove()
            return
        depth = len(path)
        handled: set[int] = set()
        orbit: dict[int, set[int]] = {}  # candidate -> its orbit, once a map fixes the path
        known = 0  # maps already merged into the orbits
        for row in dict.fromkeys(cands):
            if known < len(maps):
                for g in maps[known:]:
                    if g.keys().isdisjoint(path):  # g fixes the path: it permutes cands
                        orbit = orbit or {c: {c} for c in cands}
                        for x, y in g.items():
                            if x in orbit and orbit[x] is not orbit[y]:
                                merged = orbit[x] | orbit[y]
                                orbit.update(dict.fromkeys(merged, merged))
                known = len(maps)
            if orbit and not handled.isdisjoint(orbit[row]):
                continue  # an automorphism fixing the path maps a sibling here
            handled.add(row)
            rest = rem.copy()
            rest.remove(row)
            child = _refine(blocks, row)
            path.append(row)
            # a child that reaches the best trace mirrors a searched node
            if trace == best[: len(trace)] and _follows(child, rest, len(trace), best, path):
                prove()
            else:
                dfs(child, rest, trace)
            del path[depth:]

    def prove() -> None:
        """Keep the automorphism that maps the best leaf onto the leaf
        ``path`` spells, whose trace is the best trace, when the best leaf
        is in this orientation."""
        if best_leaf:
            maps.append({x: y for x, y in zip(best_leaf, path) if x != y})

    root = [(1 << n) - 1] if n else []
    for i, rows in enumerate(orientations):
        if i and _follows(root, rows, 0, best, []):
            continue  # the searched matrix, relabelled
        best_leaf, maps[:], path[:] = None, [], []
        dfs(root, rows, ())
    del dfs  # it refers to itself: without this, each search is garbage for the cycle collector
    return _pack(m, n, best)


def transpose(rows: list[int], n: int) -> list[int]:
    """Rows of the transpose, in some row and column order (the key does
    not depend on either)."""
    cols = [0] * n
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def canonical_key(mat: ProductMatrix, include_transpose: bool = False) -> bytes:
    """Equal keys iff the matrices are related by row/column permutations
    (and transposition, when flagged).  Deterministic across runs and
    platforms.

    With the transpose flag, non-square matrices are keyed in the
    orientation with fewer rows; transposing commutes with canonical
    labeling, so transpose-equivalent matrices land on the same key.
    """
    return rows_key([int(r, 2) if r else 0 for r in mat.bits], mat.n, include_transpose)


def _orientations(rows: list[int], n: int, include_transpose: bool, cols: list[int] | None):
    """(m, n, row lists) that :func:`rows_key` searches: with the flag,
    the orientation with fewer rows, and both of a square matrix.  The
    transpose is made only when ``cols``, its rows, is not given."""
    m = len(rows)
    if not include_transpose or m < n:
        return m, n, (rows,)
    if cols is None:
        cols = transpose(rows, n)
    return (n, m, (cols,)) if m > n else (m, n, (rows, cols))


def rows_key(rows: list[int], n: int, include_transpose: bool = False,
             cols: list[int] | None = None) -> bytes:
    """:func:`canonical_key` of the matrix with these int rows over n
    columns (column j at bit n-1-j), as the kernel hands them over.
    ``cols``, when given, holds the rows of the transpose in any row and
    column order, which saves transposing again."""
    m, n, orientations = _orientations(rows, n, include_transpose, cols)
    return _key(m, n, *orientations)


def has_key(rows: list[int], n: int, key: bytes, include_transpose: bool = False,
            cols: list[int] | None = None) -> bool:
    """Whether ``rows_key(rows, n, include_transpose, cols) == key``, for
    a key that :func:`rows_key` returned with the same flag.  Decided by
    following the key's trace, not by a search (see the module
    docstring)."""
    m, n, orientations = _orientations(rows, n, include_transpose, cols)
    key_m, key_n, trace = _unpack(key)
    if (key_m, key_n) != (m, n):
        return False
    return any(_follows([(1 << n) - 1] if n else [], r, 0, trace, []) for r in orientations)


def canonical_from_key(key: bytes, rank_d: int) -> ProductMatrix:
    """Inverse of :func:`canonical_key`'s serialization (for catalog IO);
    the caller supplies the rank, which the key does not encode.  Raises
    ValueError unless the key is "m,n:" with min(m, n) >= max(rank_d, 0),
    and then exactly the ceil(m n / 8) bytes that pack an m x n matrix,
    with zero padding bits."""
    head, _, packed = key.partition(b":")
    m, n = (int(x) for x in head.split(b","))
    total, value = m * n, int.from_bytes(packed, "big")
    if min(m, n) < max(rank_d, 0) or len(packed) != (total + 7) // 8 or value >> total:
        raise ValueError(f"key {key[:40]!r} does not pack a {m} x {n} matrix")
    bits = bin(value)[2:].zfill(total) if total else ""
    rows = tuple(bits[i * n : (i + 1) * n] for i in range(m))
    return ProductMatrix(m, n, rows, rank_d)
