from math import comb

from bsp.lemmas import (
    check_binom_bound,
    check_inequality2,
    check_lemma1,
    check_lemma2,
    _compatible,
    _count_small_difference,
    _small_difference_counts,
)


def test_inequality2_holds_up_to_20():
    rep = check_inequality2(20)
    assert rep.passed
    assert rep.checked == sum(d - 1 for d in range(2, 21))


def test_inequality2_equality_cases():
    rep = check_inequality2(10)
    assert all((d, d) in rep.equality_cases for d in range(2, 11))
    assert (3, 2) in rep.equality_cases  # 30 = 30


def test_inequality2_strict_case():
    rep = check_inequality2(10)
    assert (10, 3) not in rep.equality_cases
    lhs = (10 + 3) * (2**9 + 2**7)
    assert lhs < 10 * 2**10 + 20


def test_binom_bound_holds_up_to_20():
    rep = check_binom_bound(20)
    assert rep.passed


def test_binom_bound_tight_cases():
    rep = check_binom_bound(6)
    assert (3, 1) in rep.equality_cases  # 1 + 3 + 3 = 7
    assert (3, 2) in rep.equality_cases
    assert (4, 2) in rep.equality_cases  # 4 + 6 + 4 = 14 = 7/8 * 16


def test_binom_bound_boundary_j():
    # j = -1 contributes only C(n, 0); trivially below the bound
    assert comb(3, 0) == 1 <= 7


def test_lemma1_counts_spec_cases():
    # d=4, S1 = {}, S2 = {1,2}: subsets of [3] meeting {1,2} at most once
    n = 3
    count = 0
    for mask in range(1 << n):
        inter = bin(mask & 0b011).count("1")
        if inter <= 1:
            count += 1
    assert count == 6 <= 7

    # d=4, S1 = {3}, S2 = {1,2}
    count = 0
    for mask in range(1 << n):
        v = bin(mask & 0b011).count("1") - bin(mask & 0b100).count("1")
        if -1 <= v <= 1:
            count += 1
    assert count == 7


def test_lemma1_up_to_d10():
    for d in range(3, 11):
        assert check_lemma1(d).passed


def test_lemma1_bijection_formula():
    for p in range(2, 6):
        for q in range(0, 4):
            direct = _count_small_difference(p, q)
            formula = sum(
                comb(p + q, q + j) if 0 <= q + j <= p + q else 0
                for j in (-1, 0, 1)
            )
            assert direct == formula


def test_lemma2_exactly_two_families():
    for d in (3, 4, 5, 6):
        rep = check_lemma2(d)
        assert rep.passed
        assert len(rep.equality_cases) == 2
        n = d - 1
        sizes = {
            tuple(sorted(bin(s).count("1") for s in fam))
            for fam in rep.equality_cases
        }
        small = tuple(sorted([0] + [1] * n))
        big = tuple(sorted([n] + [n - 1] * n))
        assert sizes == {small, big}


def test_lemma2_d2_degenerate_reports_only():
    rep = check_lemma2(2)
    assert rep.passed  # no assertion made, just the count
    assert len(rep.equality_cases) == 1


def test_lemma1_byte_counts_match_the_triple_loop():
    # the plain (S1, S2, S) loop the packed byte counts replace
    for n in range(0, 6):
        expected = []
        for s1 in range(1 << n):
            for s2 in range(1 << n):
                if (s2 & ~s1).bit_count() <= 1:
                    continue
                count = sum(-1 <= (s & s2).bit_count() - (s & s1).bit_count() <= 1
                            for s in range(1 << n))
                expected.append((s1, s2, count))
        assert list(_small_difference_counts(n)) == expected


def _lemma2_reference(d: int) -> list[tuple[int, ...]]:
    """The families of check_lemma2 by a depth-first search that tests
    each candidate against every member of the chain."""
    found = []

    def extend(chain: list[int], start: int) -> None:
        if len(chain) == d:
            found.append(tuple(chain))
            return
        for nxt in range(start, 1 << (d - 1)):
            if all(_compatible(prev, nxt) for prev in chain):
                chain.append(nxt)
                extend(chain, nxt + 1)
                chain.pop()

    extend([], 0)
    return found


def test_lemma2_bitset_search_matches_the_pairwise_search():
    for d in range(1, 7):
        rep = check_lemma2(d)
        ref = _lemma2_reference(d)
        assert rep.checked == len(ref)
        assert rep.equality_cases == tuple(ref)  # the same families, in DFS order
