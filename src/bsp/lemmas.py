"""Brute-force verifiers for the auxiliary combinatorial results.

These are proved statements; the oracles exist to cross-check the
implementation (a violation signals a bug in the harness, never new
mathematics).  Everything is exact integer arithmetic; the 7/8 factor is
handled by comparing 8 * count against 7 * 2^n.

Each oracle enumerates every case and counts it independently of the
closed form it is compared with; only the inner loops are bit-parallel.
Subsets of [n] are bitmasks.  Lemma 1 counts all S of one (S1, S2) pair
at once on packed byte strings (:func:`_small_difference_counts`), and
Lemma 2 searches families on bitsets of compatible subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _comb
from typing import Iterator


def comb(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 outside 0 <= k <= n."""
    return _comb(n, k) if 0 <= k <= n else 0


@dataclass(frozen=True)
class OracleReport:
    name: str
    checked: int
    violations: tuple
    equality_cases: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "pass": self.passed,
            "violations": list(self.violations),
            "equality_cases": list(self.equality_cases),
        }


def check_inequality2(d_max: int) -> OracleReport:
    """(d+f)(2^(d-1) + 2^(d-f)) <= d 2^d + 2d for all 2 <= f <= d."""
    checked = 0
    violations = []
    equalities = []
    for d in range(2, d_max + 1):
        for f in range(2, d + 1):
            checked += 1
            lhs = (d + f) * ((1 << (d - 1)) + (1 << (d - f)))
            rhs = (d << d) + 2 * d
            if lhs > rhs:
                violations.append((d, f, lhs, rhs))
            elif lhs == rhs:
                equalities.append((d, f))
    return OracleReport("df-inequality", checked, tuple(violations), tuple(equalities))


def check_binom_bound(n_max: int) -> OracleReport:
    """C(n,j-1) + C(n,j) + C(n,j+1) <= (7/8) 2^n for n > 2, all j."""
    checked = 0
    violations = []
    equalities = []
    for n in range(3, n_max + 1):
        for j in range(-1, n + 2):
            checked += 1
            lhs = comb(n, j - 1) + comb(n, j) + comb(n, j + 1)
            rhs_times8 = 7 << n
            if 8 * lhs > rhs_times8:
                violations.append((n, j, lhs))
            elif 8 * lhs == rhs_times8:
                equalities.append((n, j))
    return OracleReport("three-binomials", checked, tuple(violations), tuple(equalities))


def _count_small_difference(p: int, q: int) -> int:
    """|{T subset of P+Q : |T cap P| - |T cap Q| in {-1,0,1}}| by direct
    enumeration over the 2^(p+q) subsets."""
    count = 0
    low = (1 << p) - 1
    for mask in range(1 << (p + q)):
        if -1 <= (mask & low).bit_count() - (mask >> p).bit_count() <= 1:
            count += 1
    return count


# the full (S1, S2, S) enumeration takes 4^n (S1, S2) steps for n = d - 1,
# each one big-int subtraction and one byte deletion over a 2^n-byte string
_FULL_ENUMERATION_LIMIT = 6


def _small_difference_counts(n: int) -> Iterator[tuple[int, int, int]]:
    """(S1, S2, count) for all S1, S2 in [n] with |S2 - S1| > 1, S1
    outer and S2 inner in mask order, where count is the number of S in
    [n] with |S cap S2| - |S cap S1| in {-1, 0, 1}.

    All S of one (S1, S2) are counted at once (broadword counting, Knuth
    TAOCP 4A, 7.1.3): byte S of plain[S1] is |S cap S1| and byte S of
    plain[S2] + n * (1, ..., 1) is |S cap S2| + n, so no byte of their
    difference borrows, and byte S of it is |S cap S2| - |S cap S1| + n.
    The count is the number of its bytes equal to n - 1, n or n + 1: what
    is left once one ``bytes.translate`` deletes every other byte value.
    """
    size = 1 << n
    plain = [int.from_bytes(bytes((s & t).bit_count() for s in range(size)), "little")
             for t in range(size)]
    shift = n * int.from_bytes(b"\1" * size, "little")
    plus = [x + shift for x in plain]
    far = bytes(v for v in range(2 * n + 1) if abs(v - n) > 1)
    for s1 in range(size):
        low = plain[s1]
        for s2 in range(size):
            if (s2 & ~s1).bit_count() > 1:
                yield s1, s2, len((plus[s2] - low).to_bytes(size, "little").translate(None, far))


def check_lemma1(d: int) -> OracleReport:
    """For S1, S2 in [d-1] with |S2 - S1| > 1 the family of S with
    |S cap S2| - |S cap S1| in {-1, 0, 1} has at most (7/8) 2^(d-1) sets.

    The count only depends on p = |S2 - S1| and q = |S1 - S2| (elements
    outside the symmetric difference are free), so shapes (p, q) are
    enumerated directly; for n = d - 1 up to _FULL_ENUMERATION_LIMIT the
    full (S1, S2, S) enumeration is run as well and compared.  Each shape
    count is also cross-checked against the three-binomials closed form
    from the proof's bijection.
    """
    n = d - 1
    checked = 0
    violations = []
    equalities = []
    shapes: dict[tuple[int, int], int] = {}
    for p in range(2, n + 1):
        for q in range(0, n - p + 1):
            checked += 1
            base = shapes[p, q] = _count_small_difference(p, q)
            formula = comb(p + q, q - 1) + comb(p + q, q) + comb(p + q, q + 1)
            if base != formula:
                violations.append(("bijection", p, q, base, formula))
            count = base << (n - p - q)
            if 8 * count > 7 << n:
                violations.append(("bound", p, q, count))
            elif 8 * count == 7 << n:
                equalities.append((p, q))
    if n <= _FULL_ENUMERATION_LIMIT:
        # S1, S2 and S as bitmasks over [n]
        for s1, s2, count in _small_difference_counts(n):
            checked += 1
            p, q = (s2 & ~s1).bit_count(), (s1 & ~s2).bit_count()
            expected = shapes[p, q] << (n - p - q)
            if count != expected:
                violations.append(("shape-reduction", s1, s2, count, expected))
            if 8 * count > 7 << n:
                violations.append(("bound-direct", s1, s2, count))
    return OracleReport(f"small-difference-families-d{d}", checked, tuple(violations), tuple(equalities))


def _compatible(a: int, b: int) -> bool:
    return (b & ~a).bit_count() <= 1 and (a & ~b).bit_count() <= 1


def check_lemma2(d: int) -> OracleReport:
    """Families of d subsets of [d-1] with pairwise |S2 - S1| <= 1 are,
    for d > 2, exactly { |S| >= d-2 } and { |S| <= 1 }.

    The oracle enumerates all families by depth-first search with the
    pairwise condition enforced on the fly: each subset a holds the bitset
    compat[a] of the later subsets compatible with it, and a chain's
    candidates are the bitset of the later subsets compatible with all of
    it, taken lowest first, so families come out in lexicographic order.
    For d = 2 it only reports the count (the statement is degenerate
    there).
    """
    n = d - 1
    size = 1 << n
    compat = [sum(1 << b for b in range(a + 1, size) if _compatible(a, b)) for a in range(size)]
    found: list[tuple[int, ...]] = []

    def extend(chain: list[int], allowed: int) -> None:
        if len(chain) == d:
            found.append(tuple(chain))
            return
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            nxt = low.bit_length() - 1
            chain.append(nxt)
            extend(chain, allowed & compat[nxt])
            chain.pop()

    extend([], (1 << size) - 1)

    big = tuple(s for s in range(size) if s.bit_count() >= d - 2)
    small = tuple(s for s in range(size) if s.bit_count() <= 1)
    expected = {big, small}
    violations = []
    if d > 2:
        got = set(found)
        if got != expected:
            violations.append(("families", sorted(got), sorted(expected)))
    return OracleReport(
        f"size-d-family-classification-d{d}",
        len(found),
        tuple(violations),
        tuple(found),
    )
