"""Cross-checks between the compiled kernel, the pure fallback, and the
generic Fraction implementation."""

import random
from fractions import Fraction

import pytest

from bsp import kernel
from bsp.family import a_max, closure, family_from_masks, mask_to_vec

BACKENDS = ["python"]
try:
    kernel.get_backend("c")
    BACKENDS.append("c")
except (ImportError, ValueError):
    pass

requires_c = pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel not built")


@requires_c
def test_backends_agree_exhaustively_small_d():
    kc, kp = kernel.get_backend("c"), kernel.get_backend("python")
    for d in (1, 2, 3):
        for s in range(1 << ((1 << d) - 1)):
            sset = s << 1
            assert kc.closure_and_rank(d, sset) == kp.closure_and_rank(d, sset)


@requires_c
def test_backends_agree_on_random_d4_d5():
    kc, kp = kernel.get_backend("c"), kernel.get_backend("python")
    rng = random.Random(2)
    for d in (4, 5):
        for _ in range(150):
            n = rng.randint(1, (1 << d) - 1)
            masks = rng.sample(range(1, 1 << d), n)
            sset = 0
            for m in masks:
                sset |= 1 << m
            cc = kc.closure_and_rank(d, sset)
            cp = kp.closure_and_rank(d, sset)
            assert cc == cp
            closed = cc[0]
            assert kc.pair_rows(d, closed) == kp.pair_rows(d, closed)
            assert kc.a_vector_data(d, closed) == kp.a_vector_data(d, closed)
            assert kc.next_closed(d, sset) == kp.next_closed(d, sset)


@requires_c
def test_enum_branch_identical_across_backends():
    kc, kp = kernel.get_backend("c"), kernel.get_backend("python")
    for d, k in ((2, 0), (3, 2), (4, 4)):
        for p in range(1 << k):
            assert kc.enum_branch(d, k, p) == kp.enum_branch(d, k, p)


def _enum_branch_reference(impl, d, top_count, p_index):
    """enum_branch rebuilt from the public kernel steps, one call each."""
    top_bits = sum(1 << (t + 1) for t in range(top_count))
    p_bits = sum(1 << (t + 1) for t in range(top_count) if (p_index >> t) & 1)
    a = p_bits
    if impl.closure_and_rank(d, a)[0] != a:
        a = impl.next_closed(d, a)
    visited = spanning = 0
    forms = {}
    while a >= 0 and (a & top_bits) == p_bits:
        visited += 1
        if impl.closure_and_rank(d, a)[1] == d:
            spanning += 1
            hb = impl.heuristic_form(*impl.pair_rows(d, a))
            forms[hb] = min(forms.get(hb, a), a)
        a = impl.next_closed(d, a)
    return visited, spanning, sorted(forms.items())


@pytest.mark.parametrize("backend", BACKENDS)
def test_enum_branch_matches_next_closed_walk(backend):
    impl = kernel.get_backend(backend)
    for d, k in ((2, 0), (3, 2), (4, 4)):
        for p in range(1 << k):
            assert impl.enum_branch(d, k, p) == _enum_branch_reference(impl, d, k, p), (d, k, p)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_closure_matches_generic_fraction_closure(backend):
    """The bit-packed cube closure agrees with the generic rational one."""
    impl = kernel.get_backend(backend)
    rng = random.Random(13)
    for d in (2, 3, 4):
        for _ in range(25):
            masks = rng.sample(range(1, 1 << d), rng.randint(1, (1 << d) - 1))
            fam = family_from_masks(masks, d)
            if not fam.spans():
                continue
            sset = 0
            for m in masks:
                sset |= 1 << m
            closed, rank = impl.closure_and_rank(d, sset)
            assert rank == d
            got = family_from_masks(
                [m for m in range(1, 1 << d) if (closed >> m) & 1], d
            )
            assert got == closure(fam)
            # partner family agrees too
            den, nums = impl.a_vector_data(d, closed)
            avecs = {tuple(Fraction(x, den) for x in num) for num in nums}
            assert avecs == a_max(got).vectors


@pytest.mark.parametrize("backend", BACKENDS)
def test_closure_is_extensive_and_idempotent_bitwise(backend):
    impl = kernel.get_backend(backend)
    rng = random.Random(29)
    for d in (3, 4, 5):
        for _ in range(40):
            sset = 0
            for m in rng.sample(range(1, 1 << d), rng.randint(1, (1 << d) - 1)):
                sset |= 1 << m
            closed, _ = impl.closure_and_rank(d, sset)
            assert closed & sset == sset
            again, _ = impl.closure_and_rank(d, closed)
            assert again == closed


@pytest.mark.parametrize("backend", BACKENDS)
def test_facet_scan_square(backend):
    impl = kernel.get_backend(backend)
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = impl.facet_scan(2, verts)
    assert len(facets) == 4
    assert ((0, 1), 1) in facets and ((0, -1), 0) in facets


@requires_c
def test_facet_scan_backends_agree():
    kc, kp = kernel.get_backend("c"), kernel.get_backend("python")
    rng = random.Random(4)
    for dim in (2, 3, 4):
        pts = {tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 4)}
        pts = sorted(pts)
        assert kc.facet_scan(dim, pts) == kp.facet_scan(dim, pts)


@requires_c
def test_backends_agree_at_d6_spot_checks():
    kc, kp = kernel.get_backend("c"), kernel.get_backend("python")
    rng = random.Random(8)
    for _ in range(10):
        masks = rng.sample(range(1, 64), rng.randint(6, 40))
        sset = 0
        for m in masks:
            sset |= 1 << m
        cc = kc.closure_and_rank(6, sset)
        assert cc == kp.closure_and_rank(6, sset)
        closed = cc[0]
        assert kc.pair_rows(6, closed) == kp.pair_rows(6, closed)
