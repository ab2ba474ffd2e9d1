import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsp import kernel
from bsp.canon import canonical_key
from bsp.errors import (
    BadParameterError,
    MalformedSlackError,
    NotFullDimensionalError,
    NotTwoLevelError,
    SingularBasisError,
)
from bsp.family import ProductMatrix, matrix_rank, verify_binary_products
from bsp.linalg import affine_dim, dot, int_rows, rank, solve, unit_vec, vec
from bsp.polytope import (
    POLYTOPE_KINDS,
    _construction_vertices,
    audit_conjecture_on_slacks,
    check_thm1,
    check_thm2,
    construct_polytope,
    detect_special,
    expected_f_vector_ends,
    extract_pair,
    polytope_from_vertices,
    reference_slack,
    slack_pair_sizes,
    special_kind,
    verify_lemma3,
)
from test_linalg import det

FAST_DIMS = {
    "cube": (1, 2, 3, 4, 5),
    "cross": (1, 2, 3, 4, 5),
    "simplex": (1, 2, 3, 4, 5),
    "prism": (2, 3, 4, 5),
    "suspension-cube": (2, 3, 4, 5),
    "cross-x-segment": (2, 3, 4, 5),
}


def test_unit_square_has_four_facets():
    p = polytope_from_vertices(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert p.facets == (((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 0), 1))


def test_simplex_facet_count():
    p = construct_polytope("simplex", 3)
    assert p.n_facets == 4


def test_suspension_d3_facet_count():
    assert construct_polytope("suspension-cube", 3).n_facets == 8


def test_not_full_dimensional_raises():
    with pytest.raises(NotFullDimensionalError):
        polytope_from_vertices(2, [(0, 0), (1, 1), (2, 2)])


def test_facets_are_the_kernel_scan_over_den():
    """Polytope2L keeps the kernel's integer (normal, offset) pairs over
    its denominator, and its slacks and zero sets are theirs."""
    verts = [("1/2", 0), (0, "1/3"), ("-1/2", 0), (0, "-1/3"), ("1/2", "1/3")]
    for d, pts in [(2, verts)] + [(d, _construction_vertices(kind, d))
                                  for kind in POLYTOPE_KINDS for d in (2, 3, 4)]:
        p = polytope_from_vertices(d, pts)
        assert (p.den, list(p.rows)) == int_rows(sorted({vec(v) for v in pts}))
        assert list(p.facets) == kernel.facet_scan(d, list(p.rows))
        for (n, c), slack, zeros in zip(p.facets, p.slacks, p.facet_zeros):
            assert slack == tuple(c - dot(n, r) for r in p.rows)
            assert zeros == sum(1 << j for j, s in enumerate(slack) if s == 0)
        assert p.vertex_zeros == tuple(
            sum(1 << i for i, z in enumerate(p.facet_zeros) if z >> j & 1) for j in range(p.f0)
        )
        assert not any(isinstance(x, Fraction) for r in p.rows + p.slacks for x in r)


def _input_forms(pts):
    """The same points as ints, integer strings, Fractions and "p/q"
    strings."""
    return ([list(v) for v in pts], [[str(c) for c in v] for v in pts],
            [[Fraction(c) for c in v] for v in pts], [[f"{2 * c}/2" for c in v] for v in pts])


def test_input_forms_give_the_same_polytope():
    for kind in POLYTOPE_KINDS:
        for d in (2, 3, 4):
            first, *rest = (polytope_from_vertices(d, f)
                            for f in _input_forms(_construction_vertices(kind, d)))
            for p in rest:
                assert (p.den, p.rows, p.facets, p.slacks) == (
                    first.den, first.rows, first.facets, first.slacks)
                assert p.vertex_zeros == first.vertex_zeros and p.two_level == first.two_level


def test_integral_input_builds_no_fraction(monkeypatch):
    """Ints and integer strings stay ints from parse to slacks."""
    inputs = [form for kind in POLYTOPE_KINDS
              for form in _input_forms(_construction_vertices(kind, 4))[:2]]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for form in inputs:
        p = polytope_from_vertices(4, form)
        for check in (check_thm1, check_thm2, extract_pair):
            check(p)
    assert made == []
    polytope_from_vertices(2, [("1/2", 0), (0, 1), (1, 1)])
    assert made  # the counter sees genuinely rational input


def _minor_det(rows: list[list[int]], skip_col: int, dim: int) -> int:
    sub = [[row[c] for c in range(dim) if c != skip_col] for row in rows]
    return det(sub) if sub else 1


def brute_force_facets(dim: int, verts: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Oracle for ``facet_scan``: every hyperplane spanned by a d-subset of
    the points with all points on one side, as sorted (primitive normal,
    offset) pairs with the points on the <= side.  On full-dimensional
    points these are exactly the facets.  Takes C(n, d) subsets."""
    found: set[tuple[tuple[int, ...], int]] = set()
    for combo in combinations(range(len(verts)), dim):
        base = verts[combo[0]]
        rows = [[verts[c][j] - base[j] for j in range(dim)] for c in combo[1:]]
        normal = [(-1) ** j * _minor_det(rows, j, dim) for j in range(dim)]
        if not any(normal):
            continue
        c = sum(n * x for n, x in zip(normal, base))
        values = [sum(n * x for n, x in zip(normal, v)) for v in verts]
        if max(values) > c > min(values):
            continue
        if max(values) > c:
            normal, c = [-x for x in normal], -c
        g = gcd(*normal, c)
        found.add((tuple(x // g for x in normal), c // g))
    return sorted(found)


def _assert_scan_matches_oracle(dim, pts):
    """facet_scan equals the brute-force oracle on full-dimensional points
    and raises ValueError on the others."""
    if affine_dim([vec(p) for p in pts]) < dim:
        with pytest.raises(ValueError):
            kernel.facet_scan(dim, pts)
    else:
        assert kernel.facet_scan(dim, pts) == brute_force_facets(dim, pts), (dim, pts)


@pytest.mark.parametrize("kind, d", [
    pytest.param(kind, d, marks=[pytest.mark.slow] if (kind, d) == ("cube", 5) else [])
    for kind, dims in FAST_DIMS.items() for d in dims
])
def test_facet_scan_matches_brute_force_on_constructions(kind, d):
    # the d=5 cube is slow only for the oracle: C(32, 5) subsets
    pts = sorted(_construction_vertices(kind, d))
    _assert_scan_matches_oracle(d, pts)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_facet_scan_matches_brute_force_on_random_sets(d):
    # unsorted lists with repeated and interior points, some of them
    # lower-dimensional
    rng = random.Random(d)
    for coords in (range(-3, 4), (0, 1), (-1, 0, 1)):
        for _ in range(30):
            pts = [tuple(rng.choice(coords) for _ in range(d)) for _ in range(rng.randint(d + 1, d + 8))]
            _assert_scan_matches_oracle(d, pts)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=d + 6),
)))
def test_facet_scan_matches_brute_force_property(data):
    _assert_scan_matches_oracle(*data)


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
    # a 2-level rectangle plus two edge midpoints: the midpoint [1, 0]
    # lies only on the bottom facet, which [0, 0] and [2, 0] lie on too
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


def fraction_facets(p) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The facets as rational (normal, offset) pairs: <normal, x> <= offset
    on the vertices x = row / den."""
    return [(vec(n), Fraction(c, p.den)) for n, c in p.facets]


def vertices_from_facets(d: int, fs: list) -> set:
    """Brute-force vertex enumeration of the H-polytope: feasible unique
    solutions of d-subsets of facet equalities."""
    out = set()
    for combo in combinations(fs, d):
        res = solve(tuple(n for n, _ in combo), vec(c for _, c in combo))
        if res.solution is not None and res.unique:
            x = res.solution
            if all(dot(n, x) <= c for n, c in fs):
                out.add(x)
    return out


def test_facet_scan_h_to_v_roundtrip():
    for kind in POLYTOPE_KINDS:
        for d in (2, 3, 4):
            p = construct_polytope(kind, d)
            assert vertices_from_facets(d, fraction_facets(p)) == set(p.vertices), (kind, d)


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
    # extract_pair builds the pair from the slacks without validating it
    for d in (2, 3, 4, 5):
        for kind in POLYTOPE_KINDS:
            pair = extract_pair(construct_polytope(kind, d))
            pair.validate()  # both families span, every product is 0 or 1
            assert pair.sizes() == slack_pair_sizes(reference_slack(kind, d)), (kind, d)


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
    """Slack-bitset identification agrees with an explicit affine-map
    search."""
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
        # the cube test is tried first, so an affine cube (including the
        # d=2 diamond, which is both) always reports "cube"
        assert (verdict == "cube") == aff_cube, (kind, d)
        assert (verdict == "cross") == (aff_cross and not aff_cube), (kind, d)
        assert (verdict == "neither") == (not aff_cube and not aff_cross), (kind, d)


def _key_verdict(slack: ProductMatrix, d: int) -> str:
    """The former detection: canonical keys against the references."""
    key = canonical_key(slack)
    for kind in ("cube", "cross"):
        if key == canonical_key(reference_slack(kind, d)):
            return kind
    return "neither"


def _bit_verdict(slack: ProductMatrix, d: int) -> str:
    return special_kind(d, [int(r, 2) for r in slack.bits],
                        [int(c, 2) for c in slack.column_bits()])


def _matrix(rows: list[str]) -> ProductMatrix:
    return ProductMatrix(len(rows), len(rows[0]), tuple(rows), 0)


def _permuted(slack: ProductMatrix, rng) -> ProductMatrix:
    rows, cols = list(slack.bits), list(range(slack.n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return _matrix(["".join(r[j] for j in cols) for r in rows])


def _mutants(slack: ProductMatrix, rng):
    """One flipped entry, one row overwritten by a copy of another, and
    one column overwritten by a copy of another that is not its
    complement (so some column is left without one)."""
    rows = list(slack.bits)
    i, j = rng.randrange(slack.m), rng.randrange(slack.n)
    flip = "1" if rows[i][j] == "0" else "0"
    yield _matrix(rows[:i] + [rows[i][:j] + flip + rows[i][j + 1:]] + rows[i + 1:])
    k = rng.choice([k for k in range(slack.m) if k != i])
    yield _matrix(rows[:i] + [rows[k]] + rows[i + 1:])
    cols = list(slack.column_bits())
    comp = {c: "".join("1" if x == "0" else "0" for x in c) for c in cols}
    k = rng.choice([k for k in range(slack.n) if k != j and cols[k] != comp[cols[j]]])
    cols[j] = cols[k]
    yield _matrix(["".join(col[r] for col in cols) for r in range(slack.m)])


def test_special_detection_matches_canonical_key_oracle():
    """The bitset cube/cross test gives the verdict the canonical keys of
    the reference slacks give, on the constructions, on permuted
    references and on their near-misses."""
    for kind in POLYTOPE_KINDS:
        for d in (2, 3, 4, 5):
            p = construct_polytope(kind, d)
            assert detect_special(p) == _key_verdict(p.slack_matrix(), d), (kind, d)
    p = construct_polytope("cube", 6)
    assert detect_special(p) == _key_verdict(p.slack_matrix(), 6) == "cube"
    rng = random.Random(11)
    verdicts = set()
    for kind in ("cube", "cross"):
        for d in (2, 3, 4, 5):
            for _ in range(3):
                perm = _permuted(reference_slack(kind, d), rng)
                want = "cube" if d == 2 else kind  # the square is both
                assert _bit_verdict(perm, d) == _key_verdict(perm, d) == want, (kind, d)
                for mutant in _mutants(perm, rng):
                    got = _bit_verdict(mutant, d)
                    assert got == _key_verdict(mutant, d), (kind, d, mutant.bits)
                    verdicts.add(got)
    assert verdicts == {"neither"}


def _rank_first_non_vertex(d: int, pts):
    """The former vertex test: the first point, in sorted order, whose
    incident facet normals do not span R^d; None when there is none."""
    verts = sorted({vec(v) for v in pts})
    _, rows = int_rows(verts)
    try:
        fs = kernel.facet_scan(d, rows)
    except ValueError:
        raise NotFullDimensionalError("flat") from None
    for v, r in zip(verts, rows):
        if rank([n for n, c in fs if dot(n, r) == c]) < d:
            return v
    return None


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vertex_test_matches_rank_oracle(d, monkeypatch):
    """Zero-set containment rejects the same first point as the rank of
    the incident facet normals, on random integer points with interior
    points, edge midpoints and repeats, and never calls a rank or an
    echelon (in any package module that holds one)."""

    def no_rank(*_):
        raise AssertionError("polytope_from_vertices called a rank")

    modules = [mod for name, mod in sys.modules.items() if name.startswith("bsp.")]

    def checked(pts):
        with monkeypatch.context() as patch:
            for mod in modules:
                for name in ("rank", "independent_rows"):
                    if hasattr(mod, name):
                        patch.setattr(mod, name, no_rank)
            return polytope_from_vertices(d, pts)

    rng = random.Random(100 + d)
    cube = [tuple(2 * c for c in v) for v in _construction_vertices("cube", d)]
    outcomes = set()
    for trial in range(60):
        if trial % 3 == 0:  # an even cube with its centre or an edge midpoint
            extra = [(1,) * d, (1,) + (0,) * (d - 1)][trial % 2]
            pts = cube + [extra]
        else:
            pts = [tuple(2 * rng.randint(-2, 2) for _ in range(d))
                   for _ in range(rng.randint(d + 1, d + 6))]
            for _ in range(rng.randint(0, 3)):  # midpoints: edges, interior
                p, q = rng.sample(pts, 2)
                pts.append(tuple((a + b) // 2 for a, b in zip(p, q)))
            pts += rng.sample(pts, rng.randint(0, 2))  # repeats
        rng.shuffle(pts)
        try:
            want = _rank_first_non_vertex(d, pts)
        except NotFullDimensionalError:
            with pytest.raises(NotFullDimensionalError):
                checked(pts)
            outcomes.add("flat")
            continue
        if want is None:
            assert checked(pts).f0 == len(set(pts))
            outcomes.add("vertices")
        else:
            msg = f"point [{', '.join(str(c) for c in want)}] is not a vertex of the hull"
            with pytest.raises(BadParameterError) as err:
                checked(pts)
            assert str(err.value) == msg
            outcomes.add("rejected")
    assert {"vertices", "rejected"} <= outcomes


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


def test_slack_with_repeated_rows_or_columns_is_malformed():
    # columns x, x, ~x, ~x and x, ~x, ~x, x: the pair count once depended
    # on which of the two orders came in
    for rows in (["0011", "0011", "1100", "1100"], ["0110", "0110", "1001", "1001"],
                 ["000", "001", "110", "111"], ["01", "01", "10"]):
        for mat in (_matrix(rows), _matrix(rows).transposed()):
            with pytest.raises(MalformedSlackError, match="repeated"):
                slack_pair_sizes(mat)


def test_closed_forms_reject_what_construct_polytope_rejects():
    for kind in POLYTOPE_KINDS + ("whatever",):
        for d in range(-1, 4):
            try:
                p = construct_polytope(kind, d)
            except BadParameterError as exc:
                for closed_form in (reference_slack, expected_f_vector_ends):
                    with pytest.raises(BadParameterError, match=str(exc)):
                        closed_form(kind, d)
            else:
                ref = reference_slack(kind, d)
                assert len(set(ref.bits)) == ref.m and len(set(ref.column_bits())) == ref.n
                assert expected_f_vector_ends(kind, d) == p.f_vector_ends()


def test_construct_polytope_bad_parameters():
    with pytest.raises(BadParameterError):
        construct_polytope("prism", 1)
    with pytest.raises(BadParameterError):
        construct_polytope("whatever", 3)


def test_f_vectors_d6():
    for kind in ("suspension-cube", "cross-x-segment", "cross", "simplex", "prism"):
        p = construct_polytope(kind, 6)
        assert p.two_level
        assert p.f_vector_ends() == expected_f_vector_ends(kind, 6)
        assert canonical_key(p.slack_matrix()) == canonical_key(reference_slack(kind, 6))


def test_cube_d6_facets():
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
