import pytest

from bsp.constructions import construct_example
from bsp.decomposition import (
    CounterexampleFound,
    DecompositionError,
    audit,
    audit_pair,
    check_lemslice,
    choose_bd,
    decompose,
    normalize,
    tied_bd_choices,
)
from bsp.family import BspPair, VectorFamily, close_pair
from bsp.linalg import vec


def cube_pair_d2():
    cube = VectorFamily.of(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    basis = VectorFamily.of(2, [(0, 0), (1, 0), (0, 1)])
    return BspPair(2, cube, basis)


def pair_d1():
    f = VectorFamily.of(1, [(0,), (1,)])
    return BspPair(1, f, f)


def test_choose_bd_cube_pair_tiebreak():
    # both e1 and e2 give split dimensions (1, 1); the lexicographic
    # tie-break selects e1
    p = cube_pair_d2()
    assert choose_bd(p) == vec((1, 0))
    assert tied_bd_choices(p) == [vec((1, 0)), vec((0, 1))]


def test_choose_bd_d1():
    assert choose_bd(pair_d1()) == vec((1,))


def test_choose_bd_example3_d3_max_dim():
    from bsp.decomposition import _bd_value

    p = construct_example("example3", 3)
    assert max(_bd_value(p, b) for b in tied_bd_choices(p)) == 2


def test_normalize_fixpoint():
    p = cube_pair_d2()
    n = normalize(p, vec((1, 0)))
    assert not n.translated and n.flipped == 0
    assert n.family_a == p.family_a and n.family_b == p.family_b


def test_normalize_translation_branch():
    # transposed closed pair of example3 at d=3: under b_d = e2+e3 the
    # zero side of A = {0, e1, e2, e3, e1+e2, e1+e3} is {0, e1}, strictly
    # smaller than the one side, so normalization must translate
    p = close_pair(construct_example("example3", 3).family_b).transposed()
    b_d = vec((0, 1, 1))
    assert b_d in p.family_b.vectors
    a0 = [a for a in p.family_a.vectors if sum(x * y for x, y in zip(a, b_d)) == 0]
    a1 = [a for a in p.family_a.vectors if sum(x * y for x, y in zip(a, b_d)) == 1]
    assert len(a0) < len(a1)
    n = normalize(p, b_d)
    assert n.translated
    assert n.b_d == vec((0, -1, -1))
    # per-member products remain one-signed; the zero side dominates
    na0 = [a for a in n.family_a.vectors if sum(x * y for x, y in zip(a, n.b_d)) == 0]
    na1 = [a for a in n.family_a.vectors if sum(x * y for x, y in zip(a, n.b_d)) == 1]
    assert len(na0) >= len(na1)
    # the normalized structure still decomposes and passes the audit
    dec = decompose(p, b_d)
    assert audit(dec).all_pass


def test_normalize_example4_keeps_binary_products():
    p = construct_example("example4", 3)
    closed = close_pair(p.family_b)
    for b_d in tied_bd_choices(closed):
        n = normalize(closed, b_d)
        prods = {
            sum(u * v for u, v in zip(a, b))
            for a in n.family_a.vectors
            for b in n.family_b.vectors
        }
        assert prods <= {0, 1}


def test_decompose_cube_pair_spec_values():
    dec = decompose(cube_pair_d2(), vec((1, 0)))
    assert dec.a0 == VectorFamily.of(2, [(0, 0), (0, 1)])
    assert dec.a1 == VectorFamily.of(2, [(1, 0), (1, 1)])
    assert dec.b_star == VectorFamily.of(2, [(0, 1)])
    assert dec.b1 == VectorFamily.of(2, [(0, 0), (1, 0)])
    assert len(dec.b0) == 0
    assert dec.u0_dim == 1
    rep = audit(dec)
    assert rep.all_pass
    ineq0 = next(i for i in rep.items if i.name == "inequality0")
    assert ineq0.lhs == ineq0.rhs == 12  # tight on the cube pair


def test_decompose_d1_spec_values():
    dec = decompose(pair_d1())
    assert dec.a0 == VectorFamily.of(1, [(0,)])
    assert dec.a1 == VectorFamily.of(1, [(1,)])
    assert len(dec.b_star) == 0
    assert dec.b1 == VectorFamily.of(1, [(0,), (1,)])
    rep = audit(dec)
    by_name = {i.name: i for i in rep.items}
    assert (by_name["claim5-side1"].lhs, by_name["claim5-side1"].rhs) == (2, 2)
    assert (
        by_name["eq8-side0-strengthened"].lhs,
        by_name["eq8-side0-strengthened"].rhs,
    ) == (2, 2)


def test_decompose_example3_claim3():
    p = close_pair(construct_example("example3", 3).family_b)
    for b_d, rep in audit_pair(p, all_tied=True):
        claim3 = next(i for i in rep.items if i.name == "claim3-projection-count")
        assert claim3.passed


def test_partition_identity_on_catalogs():
    from bsp.enumeration import enumerate_catalog
    from bsp.family import pair_from_product_matrix

    for d in (2, 3):
        for cls in enumerate_catalog(d).classes:
            pair = pair_from_product_matrix(cls.matrix, d)
            for b_d in tied_bd_choices(pair):
                dec = decompose(pair, b_d)
                assert dec.max_fiber <= 2
                assert len(dec.pair.family_b) == 2 * len(dec.pi_b) - len(dec.b_star)


def test_audit_all_catalog_entries_d_le_4():
    from bsp.enumeration import enumerate_catalog
    from bsp.family import pair_from_product_matrix

    for d in (1, 2, 3, 4):
        for cls in enumerate_catalog(d).classes:
            pair = pair_from_product_matrix(cls.matrix, d)
            for oriented in (pair, pair.transposed()):
                for _, rep in audit_pair(oriented, all_tied=True):
                    assert rep.all_pass


def test_decompose_rejects_foreign_bd():
    with pytest.raises(DecompositionError):
        normalize(cube_pair_d2(), vec((7, 7)))


def test_lemslice_exhaustive_small():
    r1 = check_lemslice(1)
    assert r1.mode == "exhaustive" and r1.checked > 0
    r2 = check_lemslice(2)
    assert r2.checked == 54  # opposite-free subsets of the 7 ground points
    assert r2.tight == 33


def test_lemslice_cube_is_tight():
    from bsp.decomposition import _check_x
    from bsp.family import cube_vertices

    for d in (1, 2, 3, 4):
        x = cube_vertices(d)
        assert _check_x(x, d)
        assert len(x) == 1 << d  # tight


def test_lemslice_random_modes():
    # pinned counts: the seeded draws walk the ground set in sorted order
    for d, tight in ((3, 166), (4, 9), (5, 0)):
        rep = check_lemslice(d, mode="random", seed=1, trials=2000)
        assert rep.checked == 2000
        assert rep.tight == tight


def test_lemslice_rejects_big_exhaustive():
    with pytest.raises(ValueError):
        check_lemslice(3, mode="exhaustive")
