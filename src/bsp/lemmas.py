"""Brute-force verifiers for the auxiliary combinatorial results.

These are proved statements; the oracles exist to cross-check the
implementation (a violation signals a bug in the harness, never new
mathematics).  Everything is exact integer arithmetic; the 7/8 factor is
handled by comparing 8 * count against 7 * 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb as _comb


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


# the full (S1, S2, S) enumeration takes 8^n steps for n = d - 1
_FULL_ENUMERATION_LIMIT = 6


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
    for p in range(2, n + 1):
        for q in range(0, n - p + 1):
            checked += 1
            base = _count_small_difference(p, q)
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
        for s1 in range(1 << n):
            for s2 in range(1 << n):
                p = (s2 & ~s1).bit_count()
                if p <= 1:
                    continue
                checked += 1
                count = 0
                for s in range(1 << n):
                    if -1 <= (s & s2).bit_count() - (s & s1).bit_count() <= 1:
                        count += 1
                q = (s1 & ~s2).bit_count()
                expected = _count_small_difference(p, q) << (n - p - q)
                if count != expected:
                    violations.append(("shape-reduction", s1, s2, count, expected))
                if 8 * count > 7 << n:
                    violations.append(("bound-direct", s1, s2, count))
    return OracleReport(f"small-difference-families-d{d}", checked, tuple(violations), tuple(equalities))


def check_lemma2(d: int) -> OracleReport:
    """Families of d subsets of [d-1] with pairwise |S2 - S1| <= 1 are,
    for d > 2, exactly { |S| >= d-2 } and { |S| <= 1 }.

    The oracle enumerates all families by depth-first search with the
    pairwise condition enforced on the fly.  For d = 2 it only reports
    the count (the statement is degenerate there).
    """
    n = d - 1
    subsets = list(range(1 << n))

    def compatible(a: int, b: int) -> bool:
        return (b & ~a).bit_count() <= 1 and (a & ~b).bit_count() <= 1

    found: list[tuple[int, ...]] = []
    checked = 0

    def extend(chain: list[int], start: int) -> None:
        nonlocal checked
        if len(chain) == d:
            checked += 1
            found.append(tuple(chain))
            return
        for nxt in range(start, len(subsets)):
            if all(compatible(prev, nxt) for prev in chain):
                chain.append(nxt)
                extend(chain, nxt + 1)
                chain.pop()

    extend([], 0)

    big = tuple(sorted(s for s in subsets if s.bit_count() >= d - 2))
    small = tuple(sorted(s for s in subsets if s.bit_count() <= 1))
    expected = {big, small}
    violations = []
    if d > 2:
        got = {tuple(sorted(f)) for f in found}
        if got != expected:
            violations.append(("families", sorted(got), sorted(expected)))
    return OracleReport(
        f"size-d-family-classification-d{d}",
        checked,
        tuple(violations),
        tuple(sorted(found)),
    )
