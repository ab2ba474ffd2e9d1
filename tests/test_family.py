import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsp.errors import MalformedInputError, NotSpanningError
from bsp.family import (
    BspPair,
    ProductMatrix,
    VectorFamily,
    a_max,
    b_max,
    closure,
    is_closed_pair,
    pair_from_product_matrix,
    product_matrix,
    verify_binary_products,
)
from reference import close_pair, cube_vertices, family_from_masks, unit_vec
from test_linalg import zero_vec


def fam(d, vectors):
    return VectorFamily.of(d, vectors)


def cube_family(d):
    return fam(d, cube_vertices(d))


def basis_family(d):
    return fam(d, [zero_vec(d)] + [unit_vec(d, i) for i in range(d)])


def test_verify_binary_products_violation_witness():
    w = verify_binary_products(fam(2, [(2, 0)]), fam(2, [(1, 0)]))
    assert w is not None
    assert w.value == 2


def test_verify_binary_products_example3_d3():
    a = fam(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)])
    b = fam(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])
    assert verify_binary_products(a, b) is None


def test_verify_binary_products_fractional():
    half = Fraction(1, 2)
    a = fam(2, [(1, 1), (1, -1), (0, 0)])
    b = fam(2, [(half, half), (half, -half), (0, 0)])
    assert verify_binary_products(a, b) is None


def _brute_force_violation(a: VectorFamily, b: VectorFamily):
    for u in sorted(a.vectors):
        for v in sorted(b.vectors):
            p = sum((x * y for x, y in zip(u, v)), Fraction(0))
            if p != 0 and p != 1:
                return (u, v, p)
    return None


@st.composite
def rational_family_pairs(draw):
    d = draw(st.integers(1, 4))
    coords = st.builds(
        Fraction, st.sampled_from((-1, 0, 0, 0, 1, 1, 2)), st.integers(1, 4)
    )
    family = st.lists(st.tuples(*[coords] * d), max_size=5).map(lambda vs: fam(d, vs))
    return draw(family), draw(family)


@settings(max_examples=300)
@given(rational_family_pairs())
def test_verify_binary_products_matches_fraction_double_loop(pair):
    a, b = pair
    got = verify_binary_products(a, b)
    assert got == _brute_force_violation(a, b)
    if got is not None:
        assert type(got.value) is Fraction
        assert got.a in a.vectors and got.b in b.vectors
        assert all(type(c) is Fraction for c in got.a + got.b)


@st.composite
def families_with_copies(draw):
    """Rational vectors with denominators 1..6, a reordered copy of the
    list and a factor k >= 1."""
    d = draw(st.integers(1, 4))
    coords = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    vectors = draw(st.lists(st.tuples(*[coords] * d), max_size=8))
    return d, vectors, draw(st.permutations(vectors)), draw(st.integers(1, 5))


@settings(max_examples=200)
@given(families_with_copies())
def test_family_storage_is_canonical(data):
    d, vectors, reordered, k = data
    f = fam(d, vectors)
    assert f.vectors == set(vectors)
    assert f.sorted() == sorted(set(vectors))
    assert all(v in f for v in vectors)
    # den is the least positive common denominator
    assert f.den == lcm(*(c.denominator for v in vectors for c in v))
    assert all(tuple(Fraction(x, f.den) for x in r) in f.vectors for r in f.rows)
    # equal members give equal objects, however they were built
    for g in (fam(d, reordered),
              VectorFamily.from_rows(d, k * f.den, [tuple(k * x for x in r) for r in f.rows]),
              VectorFamily.from_rows(d, -k * f.den, [tuple(-k * x for x in r) for r in f.rows])):
        assert g == f and hash(g) == hash(f)
        assert g.den == f.den and g.rows == f.rows


def test_a_max_cube_case():
    got = a_max(fam(2, [(0, 0), (1, 0), (0, 1)]))
    assert got == cube_family(2)


def test_a_max_example3_b_family():
    b = fam(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])
    got = a_max(b)
    want = fam(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)])
    assert got == want


def test_a_max_not_spanning():
    with pytest.raises(NotSpanningError):
        a_max(fam(2, [(0, 0), (1, 0)]))


def test_b_max_of_cube_is_basis():
    assert b_max(cube_family(2)) == basis_family(2)


def test_b_max_d1():
    assert b_max(fam(1, [(0,), (1,)])) == fam(1, [(0,), (1,)])


def test_b_max_of_example3_a_family():
    a = fam(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0)])
    b = b_max(a)
    want = fam(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)])
    assert b == want
    assert len(a) * len(b) == 3 * 2**3 + 2 * 3  # Lemma: tight at d=3


def test_closure_fixpoints_d2():
    for vecs in ([(0, 0), (1, 0), (0, 1)],
                 [(0, 0), (1, 0), (0, 1), (1, 1)],
                 [(0, 0), (1, 0), (1, 1)]):
        f = fam(2, vecs)
        assert closure(f) == f


def test_closure_a_partner_d2():
    f = fam(2, [(0, 0), (1, 0), (1, 1)])
    assert a_max(f) == fam(2, [(0, 0), (0, 1), (1, 0), (1, -1)])


def test_closure_laws_random_cube_subsets():
    rng = random.Random(7)
    for d in (2, 3, 4):
        for _ in range(12):
            masks = rng.sample(range(1, 1 << d), rng.randint(d, (1 << d) - 1))
            s = family_from_masks(masks, d)
            if not s.spans():
                continue
            c = closure(s)
            assert s.vectors <= c.vectors  # extensive
            assert closure(c) == c  # idempotent
            extra = rng.randrange(1, 1 << d)
            s2 = family_from_masks(masks + [extra], d)
            assert closure(s).vectors <= closure(s2).vectors  # monotone


def test_a_max_contains_zero_and_is_bounded():
    rng = random.Random(11)
    for d in (2, 3):
        for _ in range(10):
            masks = rng.sample(range(1, 1 << d), rng.randint(d, (1 << d) - 1))
            s = family_from_masks(masks, d)
            if not s.spans():
                continue
            am = a_max(s)
            assert zero_vec(d) in am.vectors
            assert len(am) <= 1 << d
            assert len(b_max(am)) <= 1 << d


def test_close_pair_is_closed():
    p = close_pair(fam(2, [(0, 0), (1, 0), (0, 1)]))
    assert is_closed_pair(p)
    assert p.sizes() == (4, 3)


def test_product_matrix_cube_pair():
    p = BspPair(2, fam(2, [(0, 0), (1, 0), (0, 1)]), cube_family(2))
    m = product_matrix(p)
    assert (m.m, m.n) == (3, 4)
    assert m.rank_d == 2
    assert sorted(m.bits) == ["0000", "0011", "0101"]


def test_product_matrix_zero_row():
    p = close_pair(fam(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    m = product_matrix(p)
    assert "0" * m.n in m.bits


def test_product_matrix_example5_shape():
    from bsp.constructions import construct_example

    p = construct_example("example5", 3, k=1)
    m = product_matrix(p)
    assert (m.m, m.n) == (5, 6)


def test_pair_roundtrip_json():
    p = close_pair(fam(2, [(0, 0), (1, 0), (1, 1)]))
    q = BspPair.from_json(json.loads(json.dumps(p.to_json())))
    assert q == p


def test_family_json_reads_integral_coordinates_as_ints():
    f = VectorFamily.from_json({"d": 2, "vectors": [["1", 0], ["1/2", "0.5"], [" 2 ", "4/2"]]})
    assert f == fam(2, [(1, 0), (Fraction(1, 2), Fraction(1, 2)), (2, 2)])
    assert f.den == 2 and (Fraction(1, 2), "1/2") in f and ("2", 2) in f
    assert all(type(x) is int for r in VectorFamily.from_json(
        {"d": 2, "vectors": [["1", 0], [2, "-3"]]}).rows for x in r)


@pytest.mark.parametrize("vectors", [["10", "01"], "10", [[True, False], [False, True]]])
def test_family_json_rejects_strings_and_bools_as_vectors(vectors):
    with pytest.raises(MalformedInputError):
        VectorFamily.from_json({"d": 2, "vectors": vectors})


@pytest.mark.parametrize("d", [0, -1])
def test_family_json_rejects_a_dimension_below_1(d):
    with pytest.raises(MalformedInputError, match="below 1"):
        VectorFamily.from_json({"d": d, "vectors": [[]] if d == 0 else []})


def test_pair_from_product_matrix_roundtrip():
    from bsp.canon import canonical_key

    p = close_pair(fam(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]))
    m = product_matrix(p)
    q = pair_from_product_matrix(m, 3)
    q.validate()
    assert q.sizes() == p.sizes()
    # reconstruction realizes the same matrix up to row/column order
    assert canonical_key(product_matrix(q)) == canonical_key(m)
    # a matrix whose stated rank is wrong is refused
    for bits in (("100", "010", "001"), ("00", "00")):
        with pytest.raises(ValueError):
            pair_from_product_matrix(ProductMatrix(len(bits), len(bits[0]), bits, 2), 2)


def test_a_max_contains_standard_basis_for_cube_subfamilies():
    # with B inside the 0/1 cube, every unit vector has binary products
    # with B, so a_max(B) must contain 0 and the standard basis
    import random


    rng = random.Random(3)
    for d in (2, 3, 4):
        for _ in range(8):
            masks = rng.sample(range(1, 1 << d), rng.randint(d, (1 << d) - 1))
            fam = family_from_masks(masks, d)
            if not fam.spans():
                continue
            am = a_max(fam)
            assert zero_vec(d) in am.vectors
            for i in range(d):
                assert unit_vec(d, i) in am.vectors
