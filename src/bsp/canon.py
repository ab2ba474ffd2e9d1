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
is exact, and the key is packed straight from the least count trace.

A step whose candidates hold a single distinct row is forced: that row is
placed with no further bookkeeping.  Only at a node with two or more
distinct candidates is the state (trace so far, remaining rows up to
moving rows and moving columns inside blocks) looked up in a memo, and the
node skipped if an equal state was seen.  The normal form of a state is
computed only once a second node reaches the same trace.  This is sound:
the memo only drops a subtree whose outcome an earlier equal state has
already produced, so checking fewer states can only make the search
explore more, never return a different key.

The trace alone fixes the permuted matrix, since the key is packed
straight from it.  So a known key certifies a matrix by a descent that
follows only the key's trace (:func:`has_key`): at each level it branches
only on the rows whose count vector is the trace's.  A complete path
permutes the matrix into the key's matrix, so the certificate is sound.
It is also complete: a matrix with that key reaches the trace along its
own search's best path, and the descent tries every row that fits.
Rows that fit a trace are few, so a certificate costs about one path of
the search; states already tried at a level are kept in a memo as above
and fail again.  A leaf whose trace equals a known one proves an
isomorphism (McKay & Piperno, Practical graph isomorphism II, 2014), and
the search uses this too.  At a branch whose trace so far is a prefix of
the best trace, a child from which the descent reaches the best trace is
skipped.  The isomorphism between that leaf and the best leaf maps the
best leaf's ancestor at the child's depth onto the child.  That ancestor
is not on the current path, so its subtree is already searched, and the
child's subtree holds the same traces.
"""

from __future__ import annotations

import functools

from .family import ProductMatrix


def _refine(blocks: list[int], row: int) -> list[int]:
    return [part for blk in blocks for part in (blk & ~row, blk & row) if part]


def _state_key(blocks: list[int], rem: list[int]) -> tuple:
    """Normal form of a search state, invariant under permuting columns
    inside blocks.  Refining the blocks by every remaining row, taken in
    order of count vectors, sorts each block's columns by their column
    vectors into cells of equal columns.  Equal keys mean the states are
    equal up to moving rows and moving columns inside blocks, so they have
    identical futures.  (Missed identifications are harmless: they only
    cost time.)"""
    cells = blocks
    for row in sorted(rem, key=lambda r: [(r & blk).bit_count() for blk in blocks]):
        cells = _refine(cells, row)
    listed = sorted(tuple([row & cell > 0 for cell in cells]) for row in rem)
    sizes = tuple(blk.bit_count() for blk in blocks)
    return (sizes, tuple(cell.bit_count() for cell in cells), tuple(listed))


def _seen(memo: dict, at, blocks: list[int], rem: list[int]) -> bool:
    """Record the state reached at ``at`` (a trace, or a level of a
    followed trace) in ``memo``; True when an equal state is already
    there.  A place reached once holds its raw state, later ones normal
    forms."""
    seen = memo.get(at)
    if seen is None:
        memo[at] = (blocks, rem)
        return False
    if isinstance(seen, tuple):
        seen = memo[at] = {_state_key(*seen)}
    state = _state_key(blocks, rem)
    if state in seen:
        return True
    seen.add(state)
    return False


def _follows(blocks: list[int], rem: list[int], level: int, target: tuple, memo: dict) -> bool:
    """Whether the rows ``rem`` can be placed so that the trace goes on
    from ``level`` exactly as ``target`` does.  ``memo`` holds the states
    this descent already tried against ``target``."""
    while rem:
        cands = rem
        for blk, ones in zip(blocks, target[level]):
            cands = [row for row in cands if (row & blk).bit_count() == ones]
        if not cands:
            return False
        level += 1
        row = cands[0]
        if cands.count(row) < len(cands):  # two distinct candidates
            break
        rem = rem.copy()
        rem.remove(row)
        blocks = _refine(blocks, row)
    else:
        return True
    # an equal state tried before failed, else the descent had stopped
    if _seen(memo, level, blocks, rem):
        return False
    for row in dict.fromkeys(cands):
        rest = rem.copy()
        rest.remove(row)
        if _follows(_refine(blocks, row), rest, level, target, memo):
            return True
    return False


def _pack(m: int, n: int, trace: tuple) -> bytes:
    """The key of the matrix a count trace spells: ``b"m,n:"`` and the
    row-major bit string packed big-endian.  Block sizes evolve
    deterministically from the counts."""
    packed, sizes = 0, [n]
    for counts in trace:
        parts: list[int] = []
        for size, ones in zip(sizes, counts):
            packed = packed << size | (1 << ones) - 1
            parts += (size - ones, ones)
        sizes = [size for size in parts if size]
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
    search, one best, one memo)."""
    best = ((n + 1,),)  # compares above every trace
    visited: dict[tuple, tuple | set] = {}

    def dfs(blocks: list[int], rem: list[int], trace: tuple) -> None:
        nonlocal best
        while rem:
            # the rows with the least count vector, filtered block by block
            cands = rem
            for blk in blocks:
                if len(cands) == 1:
                    break
                ones = [(row & blk).bit_count() for row in cands]
                least = min(ones)
                cands = [row for row, k in zip(cands, ones) if k == least]
            row = cands[0]
            trace += (tuple([(row & blk).bit_count() for blk in blocks]),)
            if trace > best:
                return
            if cands.count(row) < len(cands):  # two distinct candidates
                break
            rem = rem.copy()
            rem.remove(row)
            blocks = _refine(blocks, row)
        else:
            best = min(best, trace)
            return
        # identical trace prefix + equivalent state = identical outcome;
        # highly symmetric matrices would otherwise branch factorially
        if _seen(visited, trace, blocks, rem):
            return
        for row in dict.fromkeys(cands):
            rest = rem.copy()
            rest.remove(row)
            child = _refine(blocks, row)
            # a child that reaches the best trace mirrors a searched node
            if trace == best[: len(trace)] and _follows(child, rest, len(trace), best, {}):
                continue
            dfs(child, rest, trace)

    for rows in orientations:
        dfs([(1 << n) - 1] if n else [], rows, ())
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


def _orientations(rows: list[int], n: int, include_transpose: bool):
    """(m, n, row lists) that :func:`rows_key` searches: with the flag,
    the orientation with fewer rows, and both of a square matrix."""
    m = len(rows)
    if include_transpose and m > n:
        m, n, rows = n, m, transpose(rows, n)
    if include_transpose and m == n:
        return m, n, (rows, transpose(rows, n))
    return m, n, (rows,)


def rows_key(rows: list[int], n: int, include_transpose: bool = False) -> bytes:
    """:func:`canonical_key` of the matrix with these int rows over n
    columns (column j at bit n-1-j), as the kernel hands them over."""
    m, n, orientations = _orientations(rows, n, include_transpose)
    return _key(m, n, *orientations)


def has_key(rows: list[int], n: int, key: bytes, include_transpose: bool = False) -> bool:
    """Whether ``rows_key(rows, n, include_transpose) == key``, for a key
    that :func:`rows_key` returned with the same flag.  Decided by
    following the key's trace, not by a search (see the module
    docstring)."""
    m, n, orientations = _orientations(rows, n, include_transpose)
    key_m, key_n, trace = _unpack(key)
    if (key_m, key_n) != (m, n):
        return False
    memo: dict = {}  # a state that fails in one orientation fails in both
    return any(_follows([(1 << n) - 1] if n else [], r, 0, trace, memo) for r in orientations)


def canonical_from_key(key: bytes, rank_d: int) -> ProductMatrix:
    """Inverse of :func:`canonical_key`'s serialization (for catalog IO);
    the caller supplies the rank, which the key does not encode."""
    head, _, packed = key.partition(b":")
    m, n = (int(x) for x in head.split(b","))
    total = m * n
    bits = bin(int.from_bytes(packed, "big"))[2:].zfill(total) if total else ""
    rows = tuple(bits[i * n : (i + 1) * n] for i in range(m))
    return ProductMatrix(m, n, rows, rank_d)
