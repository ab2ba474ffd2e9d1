import random
from fractions import Fraction

import pytest

from bsp.canon import canonical_key
from bsp.errors import (
    BadParameterError,
    MalformedSlackError,
    NotFullDimensionalError,
    NotTwoLevelError,
    SingularBasisError,
)
from bsp.family import ProductMatrix, matrix_rank, verify_binary_products
from bsp.linalg import rank, unit_vec, vec
from bsp.polytope import (
    POLYTOPE_KINDS,
    audit_conjecture_on_slacks,
    check_thm1,
    check_thm2,
    construct_polytope,
    detect_special,
    expected_f_vector_ends,
    extract_pair,
    facets,
    polytope_from_vertices,
    reference_slack,
    slack_pair_sizes,
    verify_lemma3,
    vertices_from_facets,
)

FAST_DIMS = {
    "cube": (1, 2, 3, 4, 5),
    "cross": (1, 2, 3, 4, 5),
    "simplex": (1, 2, 3, 4, 5),
    "prism": (2, 3, 4, 5),
    "suspension-cube": (2, 3, 4, 5),
    "cross-x-segment": (2, 3, 4, 5),
}


def test_unit_square_has_four_facets():
    fs = facets(2, [vec((0, 0)), vec((1, 0)), vec((0, 1)), vec((1, 1))])
    assert len(fs) == 4


def test_simplex_facet_count():
    p = construct_polytope("simplex", 3)
    assert p.n_facets == 4


def test_suspension_d3_facet_count():
    assert construct_polytope("suspension-cube", 3).n_facets == 8


def test_not_full_dimensional_raises():
    with pytest.raises(NotFullDimensionalError):
        facets(2, [vec((0, 0)), vec((1, 1)), vec((2, 2))])


def test_f_vectors_and_two_level():
    for kind, dims in FAST_DIMS.items():
        for d in dims:
            p = construct_polytope(kind, d)
            assert p.two_level, (kind, d)
            assert p.f_vector_ends() == expected_f_vector_ends(kind, d), (kind, d)


def test_pentagon_is_not_two_level():
    # integral pentagon; one facet sees three distinct vertex values
    p = polytope_from_vertices(2, [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
    assert not p.two_level
    with pytest.raises(NotTwoLevelError):
        p.slack_matrix()


def test_non_vertex_point_is_rejected():
    # a 2-level rectangle plus two edge midpoints: the midpoints lie on
    # one facet only, so their incident normals have rank 1 < d
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    with pytest.raises(BadParameterError, match=r"point \[1, 0\] is not a vertex"):
        polytope_from_vertices(2, pts)


def test_triangular_prism_two_level_but_not_special():
    p = construct_polytope("prism", 3)
    assert p.two_level
    assert detect_special(p) == "neither"


def test_closed_form_slacks_match_pipeline():
    for kind, dims in FAST_DIMS.items():
        for d in dims:
            if d < 2:
                continue
            got = canonical_key(construct_polytope(kind, d).slack_matrix())
            ref = canonical_key(reference_slack(kind, d))
            assert got == ref, (kind, d)


def test_facet_scan_h_to_v_roundtrip():
    for kind in POLYTOPE_KINDS:
        for d in (2, 3, 4):
            p = construct_polytope(kind, d)
            assert vertices_from_facets(d, list(p.facets)) == set(p.vertices), (kind, d)


def test_extract_pair_cube():
    pair = extract_pair(construct_polytope("cube", 3))
    assert pair.sizes() == (8, 4)
    assert verify_binary_products(pair.family_a, pair.family_b) is None


def test_extract_pair_suspension_d4():
    pair = extract_pair(construct_polytope("suspension-cube", 4))
    assert pair.sizes()[0] == 10  # 2 + 2^(d-1)
    assert pair.sizes()[1] == 7  # 6 parallel classes + zero


def test_extract_pair_triangle():
    pair = extract_pair(construct_polytope("simplex", 2))
    assert pair.sizes() == (3, 4)


def test_extract_pair_spans_and_verifies():
    for kind in POLYTOPE_KINDS:
        p = construct_polytope(kind, 4)
        pair = extract_pair(p)
        assert rank(pair.family_a.sorted()) == 4
        assert rank(pair.family_b.sorted()) == 4
        assert verify_binary_products(pair.family_a, pair.family_b) is None


def test_thm1_cube_equality():
    r = check_thm1(construct_polytope("cube", 3))
    assert (r.product, r.bound, r.equality) == (48, 48, True)
    r1 = check_thm1(construct_polytope("cube", 1))
    assert (r1.product, r1.bound, r1.equality) == (4, 4, True)


def test_thm1_suspension_d4():
    r = check_thm1(construct_polytope("suspension-cube", 4))
    assert (r.product, r.bound) == (120, 128)
    assert r.passed and not r.equality


def test_thm2_tightness_of_both_examples():
    for kind in ("suspension-cube", "cross-x-segment"):
        r = check_thm2(construct_polytope(kind, 4))
        assert r.applicable and r.product == r.bound == 120


def test_thm2_not_applicable_for_cube():
    assert not check_thm2(construct_polytope("cube", 3)).applicable


def test_detect_special_affine_cube_image():
    # parallelepiped = affine image of the cube
    verts = [(0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 1),
             (0, 0, 2), (1, 0, 3), (0, 1, 2), (1, 1, 3)]
    assert detect_special(polytope_from_vertices(3, verts)) == "cube"


def test_detect_special_low_dim_duality():
    # the d=3 suspension is an octahedron; the d=3 prism over the diamond
    # is an affine cube; both are "neither" from d=4 on
    assert detect_special(construct_polytope("suspension-cube", 3)) == "cross"
    assert detect_special(construct_polytope("cross-x-segment", 3)) == "cube"
    assert detect_special(construct_polytope("suspension-cube", 4)) == "neither"
    assert detect_special(construct_polytope("cross-x-segment", 4)) == "neither"


def test_detect_special_affine_oracle_d_le_3():
    """Slack-key identification agrees with an explicit affine-map search."""
    cases = [
        ("cube", 2), ("cube", 3), ("cross", 2), ("cross", 3),
        ("suspension-cube", 3), ("cross-x-segment", 3), ("prism", 3),
        ("simplex", 2), ("simplex", 3),
    ]
    for kind, d in cases:
        p = construct_polytope(kind, d)
        verdict = detect_special(p)
        aff_cube = affinely_isomorphic(p, construct_polytope("cube", d))
        aff_cross = affinely_isomorphic(p, construct_polytope("cross", d))
        # the cube key is tried first, so an affine cube (including the
        # d=2 diamond, which is both) always reports "cube"
        assert (verdict == "cube") == aff_cube, (kind, d)
        assert (verdict == "cross") == (aff_cross and not aff_cube), (kind, d)
        assert (verdict == "neither") == (not aff_cube and not aff_cross), (kind, d)


def affinely_isomorphic(p, q):
    """Explicit affine-map search: map an affine basis of p's vertices to
    each choice from q's vertices and test the bijection (d <= 3)."""
    import itertools

    from bsp.linalg import add, solve, sub

    if p.f0 != q.f0 or p.d != q.d:
        return False
    d = p.d
    verts = list(p.vertices)
    base = verts[0]
    rel = [sub(v, base) for v in verts[1:]]
    basis_idx = []
    for i, v in enumerate(rel):
        chosen = [rel[j] for j in basis_idx]
        if rank(chosen + [v]) > len(chosen):
            basis_idx.append(i)
        if len(basis_idx) == d:
            break
    rows = tuple(rel[basis_idx[i]] for i in range(d))
    for origin in q.vertices:
        for images in itertools.permutations(q.vertices, d):
            # solve for the linear part row by row: <L_c, rel_i> = img_i[c]
            cols = []
            okay = True
            for coord in range(d):
                rhs = vec(sub(images[i], origin)[coord] for i in range(d))
                res = solve(rows, rhs)
                if res.solution is None:
                    okay = False
                    break
                cols.append(res.solution)
            if not okay:
                continue

            def tmap(v):
                w = sub(v, base)
                return add(origin, vec(
                    sum(cols[c][i] * w[i] for i in range(d)) for c in range(d)
                ))

            if {tmap(v) for v in p.vertices} == set(q.vertices):
                return True
    return False


def test_lemma3_standard_basis():
    assert verify_lemma3([unit_vec(3, i) for i in range(3)]).passed


def test_lemma3_random_bases():
    rng = random.Random(42)
    for d in (2, 3, 4, 5):
        done = 0
        while done < 4:
            basis = [
                vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
                for _ in range(d)
            ]
            if rank(basis) < d:
                continue
            assert verify_lemma3(basis).passed
            done += 1


def test_lemma3_singular_input():
    with pytest.raises(SingularBasisError):
        verify_lemma3([vec((1, 0)), vec((2, 0))])


def test_slack_pair_sizes_cube():
    m, b = slack_pair_sizes(reference_slack("cube", 5))
    assert (m, b) == (32, 6)  # d parallel classes + zero


def test_slack_pair_sizes_matches_extract_pair():
    for kind in POLYTOPE_KINDS:
        for d in (2, 3, 4):
            p = construct_polytope(kind, d)
            assert slack_pair_sizes(p.slack_matrix()) == extract_pair(p).sizes(), (kind, d)


def test_audit_conjecture_on_slacks_d_le_8():
    for d in range(2, 9):
        slacks = [(f"{kind}-d{d}", reference_slack(kind, d)) for kind in POLYTOPE_KINDS]
        entries = audit_conjecture_on_slacks(slacks, d)
        assert all(e.passed for e in entries), [e.label for e in entries if not e.passed]


def test_audit_conjecture_empty_input():
    assert audit_conjecture_on_slacks([], 5) == []


def test_malformed_slack():
    bad = ProductMatrix(2, 2, ("01", "2x"), 1)
    with pytest.raises(MalformedSlackError):
        slack_pair_sizes(bad)


def test_construct_polytope_bad_parameters():
    with pytest.raises(BadParameterError):
        construct_polytope("prism", 1)
    with pytest.raises(BadParameterError):
        construct_polytope("whatever", 3)


@pytest.mark.slow
def test_f_vectors_d6():
    for kind in ("suspension-cube", "cross-x-segment", "cross", "simplex", "prism"):
        p = construct_polytope(kind, 6)
        assert p.two_level
        assert p.f_vector_ends() == expected_f_vector_ends(kind, 6)
        assert canonical_key(p.slack_matrix()) == canonical_key(reference_slack(kind, 6))


@pytest.mark.slow
def test_cube_d6_brute_force_facets():
    p = construct_polytope("cube", 6)
    assert p.f_vector_ends() == (64, 12)
    r = check_thm1(p)
    assert r.equality
    assert detect_special(p) == "cube"


def test_thm1_equality_iff_special_for_constructions():
    # among the shipped constructions, the vertex-facet product meets
    # d 2^(d+1) exactly when the polytope is an affine cube or cross
    for kind in POLYTOPE_KINDS:
        for d in FAST_DIMS[kind]:
            if d < 2:
                continue
            p = construct_polytope(kind, d)
            r = check_thm1(p)
            assert r.passed
            assert r.equality == (detect_special(p) != "neither"), (kind, d)
