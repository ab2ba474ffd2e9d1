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
"""

from __future__ import annotations

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


def _key(m: int, n: int, *orientations: list[int]) -> bytes:
    """Serialised canonical form of the m x n matrix with the given rows,
    ``b"m,n:"`` and the row-major bit string packed big-endian; the least
    over several row lists when given (one search, one best, one memo)."""
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
        # (a trace seen once holds its raw state, later ones normal forms)
        seen = visited.get(trace)
        if seen is None:
            visited[trace] = (blocks, rem)
        else:
            if isinstance(seen, tuple):
                seen = visited[trace] = {_state_key(*seen)}
            state = _state_key(blocks, rem)
            if state in seen:
                return
            seen.add(state)
        for row in dict.fromkeys(cands):
            rest = rem.copy()
            rest.remove(row)
            dfs(_refine(blocks, row), rest, trace)

    for rows in orientations:
        dfs([(1 << n) - 1] if n else [], rows, ())
    # block sizes evolve deterministically from the chosen count trace
    packed, sizes = 0, [n]
    for counts in best:
        parts: list[int] = []
        for size, ones in zip(sizes, counts):
            packed = packed << size | (1 << ones) - 1
            parts += (size - ones, ones)
        sizes = [size for size in parts if size]
    return b"%d,%d:" % (m, n) + packed.to_bytes((m * n + 7) // 8, "big")


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


def rows_key(rows: list[int], n: int, include_transpose: bool = False) -> bytes:
    """:func:`canonical_key` of the matrix with these int rows over n
    columns (column j at bit n-1-j), as the kernel hands them over."""
    m = len(rows)
    if include_transpose and m > n:
        m, n, rows = n, m, transpose(rows, n)
    if include_transpose and m == n:
        return _key(m, n, rows, transpose(rows, n))
    return _key(m, n, rows)


def canonical_from_key(key: bytes, rank_d: int) -> ProductMatrix:
    """Inverse of :func:`canonical_key`'s serialization (for catalog IO);
    the caller supplies the rank, which the key does not encode."""
    head, _, packed = key.partition(b":")
    m, n = (int(x) for x in head.split(b","))
    total = m * n
    bits = bin(int.from_bytes(packed, "big"))[2:].zfill(total) if total else ""
    rows = tuple(bits[i * n : (i + 1) * n] for i in range(m))
    return ProductMatrix(m, n, rows, rank_d)
