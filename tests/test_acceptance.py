"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line when its criterion holds (pytest -s
shows them; failures surface normally).  Criteria touching the d=5
catalog live in the slow tier: run `pytest -m slow` for the release
gate (they finish in minutes on the compiled kernel).
"""

import os
import random
from fractions import Fraction

import pytest

from bsp.bounds import check_conjecture1, check_thm3, check_thm4, check_thm6_equality
from bsp.canon import canonical_key
from bsp.constructions import construct_example, expected_sizes
from bsp.decomposition import audit_pair, check_lemslice
from bsp.enumeration import (
    brute_force,
    enumerate_catalog,
    figure1_reference,
    stats,
    verify_against_reference,
)
from bsp.family import pair_from_product_matrix, product_matrix
from bsp.lemmas import check_binom_bound, check_inequality2, check_lemma1, check_lemma2
from bsp.linalg import rank, vec
from bsp.polytope import (
    POLYTOPE_KINDS,
    audit_conjecture_on_slacks,
    check_thm1,
    check_thm2,
    construct_polytope,
    detect_special,
    expected_f_vector_ends,
    reference_slack,
    verify_lemma3,
)

D4_MAXIMAL = {(5, 16), (6, 12), (7, 10), (8, 9), (9, 8), (10, 7), (12, 6), (16, 5)}

_catalogs = {}


def catalog(d, workers=1):
    if d not in _catalogs:
        _catalogs[d] = enumerate_catalog(d, workers=workers)
    return _catalogs[d]


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_d4_maximal_pairs():
    st = stats(catalog(4))
    assert set(st.maximal_pairs) == D4_MAXIMAL
    report(1, "d=4 maximal size pairs match the published list exactly")


@pytest.mark.slow
def test_criterion_2_d5_figure1_and_products():
    cat = catalog(5, workers=os.cpu_count())
    st = stats(cat)
    diff = verify_against_reference(st, figure1_reference())
    assert diff.equal, (diff.missing, diff.extra)
    assert st.max_product == 192 == 6 << 5
    tops = {(m, n) for (m, n) in st.achievable if m * n == 192}
    assert tops == {(6, 32), (32, 6)}
    big = {(m, n) for (m, n) in st.achievable if m >= 7 and n >= 7}
    assert max(m * n for m, n in big) == 170 == (5 << 5) + 10
    assert {(m, n) for (m, n) in big if m * n == 170} == {(10, 17), (17, 10)}
    report(2, "d=5 achievable sizes equal the reference table; 192/170 attained")


def test_criterion_3_oracle_equivalence():
    for d in (1, 2, 3):
        assert enumerate_catalog(d).key_set() == brute_force(d).key_set()
    report(3, "closure-DFS and brute-force catalogs coincide for d in {1,2,3}")


def test_criterion_4_bound_suite():
    for d in (1, 2, 3, 4):
        for cls in catalog(d).classes:
            pair = pair_from_product_matrix(cls.matrix, d)
            t4 = check_thm4(pair)
            assert t4.passed
            t3 = check_thm3(pair)
            assert t3.passed
            if t4.equality:
                cls6 = check_thm6_equality(pair)  # raises unless a cube pair
                assert cls6.is_equality_case
                assert sorted(pair.sizes()) == [d + 1, 1 << d]
    report(4, "all cataloged pairs (d<=4) pass both size bounds; "
              "equality cases classify as cube pairs")


def test_criterion_5_section2_audit():
    audits = 0
    for d in (1, 2, 3, 4):
        for cls in catalog(d).classes:
            pair = pair_from_product_matrix(cls.matrix, d)
            for oriented in (pair, pair.transposed()):
                for _, rep in audit_pair(oriented, all_tied=True):
                    audits += 1
                    assert rep.all_pass
    report(5, f"projection-decomposition claims hold exactly in {audits} audits "
              "(every cataloged pair, every tied b_d)")


def test_criterion_6_constructions():
    for d in range(2, 11):
        for kind in ("cube-pair", "example3", "example4"):
            assert construct_example(kind, d).sizes() == expected_sizes(kind, d)
        for k in range(d + 1):
            assert (
                construct_example("example5", d, k=k).sizes()
                == expected_sizes("example5", d, k=k)
            )
        k3 = canonical_key(product_matrix(construct_example("example3", d)), True)
        k4 = canonical_key(product_matrix(construct_example("example4", d)), True)
        if d == 2:
            # degenerate dimension: both examples collapse onto the single
            # (3,4) class (an explicit linear isomorphism exists), so the
            # keys rightly coincide; the distinction starts at d = 3
            assert k3 == k4
        else:
            assert k3 != k4
    report(6, "example sizes match closed forms for d<=10; "
              "example 3 and 4 keys are distinct for every d >= 3")


def test_criterion_7_polytopes():
    for d in range(2, 7):
        susp = construct_polytope("suspension-cube", d)
        cross_seg = construct_polytope("cross-x-segment", d)
        assert susp.two_level and cross_seg.two_level
        assert susp.f_vector_ends() == (2 + (1 << (d - 1)), 4 * (d - 1))
        assert cross_seg.f_vector_ends() == (4 * (d - 1), 2 + (1 << (d - 1)))
        for p in (susp, cross_seg):
            r2 = check_thm2(p)
            assert r2.product == r2.bound and r2.passed  # tight
        assert canonical_key(susp.slack_matrix(), True) == canonical_key(
            cross_seg.slack_matrix().transposed(), True
        )
    for d in range(2, 6):
        for kind in ("cube", "cross"):
            p = construct_polytope(kind, d)
            r1 = check_thm1(p)
            assert r1.equality and r1.passed
            assert detect_special(p) in ("cube", "cross")
    report(7, "extremal polytopes: f-vectors, tight bounds, transpose-dual "
              "slacks, cube/cross detection")


def test_criterion_8_lemma_oracles():
    assert check_inequality2(20).passed
    assert check_binom_bound(20).passed
    for d in range(3, 11):
        assert check_lemma1(d).passed
    for d in range(2, 7):
        assert check_lemma2(d).passed
    for d in (1, 2, 3):
        rep = check_lemslice(d, mode="exhaustive")  # raises on violation
    assert (rep.checked, rep.tight) == (4374, 331)  # every opposite-free d=3 subset
    for d in (4, 5):
        rep = check_lemslice(d, mode="random", seed=1, trials=100_000)
        assert rep.checked == 100_000
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        d = 2 + checked % 4  # dimensions 2..5
        basis = [
            vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
            for _ in range(d)
        ]
        if rank(basis) < d:
            continue
        assert verify_lemma3(basis).passed
        checked += 1
    report(8, "all combinatorial oracles pass with zero violations")


def test_criterion_9_conjecture_fast_tier():
    for d in (1, 2, 3, 4):
        sizes = sorted(stats(catalog(d)).achievable)
        assert check_conjecture1(sizes, d) == []
    for d in range(2, 9):
        slacks = [(f"{kind}-d{d}", reference_slack(kind, d)) for kind in POLYTOPE_KINDS]
        assert all(e.passed for e in audit_conjecture_on_slacks(slacks, d))
    report(9, "generalized bound holds on d<=4 catalogs and all internal "
              "slack matrices for d<=8")


@pytest.mark.slow
def test_criterion_9_conjecture_d5():
    sizes = sorted(stats(catalog(5, workers=os.cpu_count())).achievable)
    assert check_conjecture1(sizes, 5) == []
    report(9, "generalized bound holds on the full d=5 catalog (slow tier)")


def test_criterion_10_determinism(tmp_path):
    from bsp.svg import min_product_svg, size_scatter_svg

    outputs = []
    for workers in (1, 2):
        cat = enumerate_catalog(4, workers=workers)
        st = stats(cat)
        outputs.append(
            (
                cat.to_jsonl(),
                st.to_csv(),
                size_scatter_svg(st.fig_size_points(), 4),
                min_product_svg(st.fig_min_product_points(), 4),
            )
        )
    assert outputs[0] == outputs[1]
    report(10, "catalog, CSV and SVG artifacts are byte-identical across "
               "worker counts")


@pytest.mark.slow
def test_criterion_10_determinism_d5():
    a = enumerate_catalog(5, workers=1).to_jsonl()
    b = enumerate_catalog(5, workers=os.cpu_count() or 2).to_jsonl()
    assert a == b
    report(10, "d=5 catalogs byte-identical across worker counts (slow tier)")


@pytest.mark.slow
def test_criterion_5_section2_audit_d5():
    audits = 0
    for cls in catalog(5, workers=os.cpu_count()).classes:
        pair = pair_from_product_matrix(cls.matrix, 5)
        for _, rep in audit_pair(pair, all_tied=True):
            audits += 1
            assert rep.all_pass
    report(5, f"projection-decomposition claims hold on the full d=5 catalog "
              f"({audits} audits, slow tier)")
