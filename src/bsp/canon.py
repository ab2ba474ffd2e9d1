"""Canonical forms of 0/1 matrices under row x column permutations.

The canonical representative is the lexicographically least row-major bit
string reachable by permuting rows and columns independently.  Rows are
placed one level at a time; an ordered partition of the columns tracks
which column orders are still interchangeable, and each placed row refines
it (zeros before ones inside every block).  At each level only the rows
achieving the minimal pattern are branched on, so the search is exact.

Matrices here are small (catalog product matrices are at most 2^d x 2^d
for d <= 6) and almost always have distinct rows and columns, which keeps
ties, and therefore backtracking, shallow.
"""

from __future__ import annotations

from .family import ProductMatrix

Trace = list[tuple[int, ...]]


def _refine(blocks: list[tuple[int, ...]], row: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for blk in blocks:
        zeros = tuple(c for c in blk if not row[c])
        ones = tuple(c for c in blk if row[c])
        if zeros:
            out.append(zeros)
        if ones:
            out.append(ones)
    return out


def _state_key(blocks: list[tuple[int, ...]], rows: list[tuple[int, ...]],
               rem: frozenset[int]) -> tuple:
    """Normal form of a search state, invariant under permuting columns
    inside blocks.  Equal keys mean the states have identical futures, so
    re-exploring one is redundant.  (Missed identifications are harmless:
    they only cost time.)"""
    rem_rows = [rows[i] for i in rem]
    order = sorted(
        range(len(rem_rows)),
        key=lambda i: tuple(sum(rem_rows[i][c] for c in blk) for blk in blocks),
    )
    cols: list[int] = []
    for blk in blocks:
        cols.extend(sorted(blk, key=lambda c: tuple(rem_rows[i][c] for i in order)))
    listed = sorted(tuple(rows[i][c] for c in cols) for i in rem)
    return (tuple(len(b) for b in blocks), tuple(listed))


def canonical_bit_rows(bit_rows: list[str], n_cols: int) -> tuple[str, ...]:
    """Canonical row strings for the matrix given as '0'/'1' row strings."""
    m = len(bit_rows)
    if m == 0 or n_cols == 0:
        return tuple("" for _ in range(m))
    rows = [tuple(int(c) for c in r) for r in bit_rows]
    best: Trace | None = None
    visited: set[tuple] = set()

    def dfs(blocks: list[tuple[int, ...]], rem: frozenset[int], trace: Trace) -> None:
        nonlocal best
        if not rem:
            if best is None or trace < best:
                best = list(trace)
            return
        level = len(trace)
        by_counts: dict[tuple[int, ...], list[int]] = {}
        for idx in rem:
            row = rows[idx]
            counts = tuple(sum(row[c] for c in blk) for blk in blocks)
            by_counts.setdefault(counts, []).append(idx)
        counts = min(by_counts)
        if best is not None:
            prefix = best[: level + 1]
            candidate = trace + [counts]
            if candidate > prefix:
                return
        # identical trace prefix + equivalent state = identical outcome;
        # highly symmetric matrices would otherwise branch factorially
        state = (tuple(trace), _state_key(blocks, rows, rem))
        if state in visited:
            return
        visited.add(state)
        seen: set[tuple[int, ...]] = set()
        trace.append(counts)
        for idx in by_counts[counts]:
            row = rows[idx]
            if row in seen:
                continue
            seen.add(row)
            dfs(_refine(blocks, row), rem - {idx}, trace)
        trace.pop()

    dfs([tuple(range(n_cols))], frozenset(range(m)), [])
    assert best is not None
    # Rebuild the bit strings: block sizes evolve deterministically from
    # the chosen count trace.
    sizes = [n_cols]
    out: list[str] = []
    for counts in best:
        pieces = []
        new_sizes = []
        for sz, ones in zip(sizes, counts):
            pieces.append("0" * (sz - ones) + "1" * ones)
            if sz - ones:
                new_sizes.append(sz - ones)
            if ones:
                new_sizes.append(ones)
        out.append("".join(pieces))
        sizes = new_sizes
    return tuple(out)


def _serialize(m: int, n: int, canon_rows: tuple[str, ...]) -> bytes:
    payload = "".join(canon_rows)
    packed = int(payload, 2).to_bytes((len(payload) + 7) // 8, "big") if payload else b""
    return b"%d,%d:" % (m, n) + packed


def canonical_matrix(mat: ProductMatrix) -> ProductMatrix:
    """The matrix rewritten in its canonical row/column order."""
    rows = canonical_bit_rows(list(mat.bits), mat.n)
    return ProductMatrix(mat.m, mat.n, rows, mat.rank_d)


def canonical_key(mat: ProductMatrix, include_transpose: bool = False) -> bytes:
    """Equal keys iff the matrices are related by row/column permutations
    (and transposition, when flagged).  Deterministic across runs and
    platforms.

    With the transpose flag, non-square matrices are keyed in the
    orientation with fewer rows; transposing commutes with canonical
    labeling, so transpose-equivalent matrices land on the same key.
    """
    if not include_transpose:
        return _serialize(mat.m, mat.n, canonical_bit_rows(list(mat.bits), mat.n))
    if mat.m > mat.n:
        mat = mat.transposed()
    if mat.m < mat.n:
        return _serialize(mat.m, mat.n, canonical_bit_rows(list(mat.bits), mat.n))
    a = _serialize(mat.m, mat.n, canonical_bit_rows(list(mat.bits), mat.n))
    t = mat.transposed()
    b = _serialize(t.m, t.n, canonical_bit_rows(list(t.bits), t.n))
    return min(a, b)


def canonical_from_key(key: bytes, rank_d: int) -> ProductMatrix:
    """Inverse of :func:`canonical_key`'s serialization (for catalog IO);
    the caller supplies the rank, which the key does not encode."""
    head, _, packed = key.partition(b":")
    m, n = (int(x) for x in head.split(b","))
    total = m * n
    bits = bin(int.from_bytes(packed, "big"))[2:].zfill(total) if total else ""
    rows = tuple(bits[i * n : (i + 1) * n] for i in range(m))
    return ProductMatrix(m, n, rows, rank_d)
