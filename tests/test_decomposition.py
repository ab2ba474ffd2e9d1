import functools
import hashlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bsp.decomposition
from bsp.cli import main
from bsp.constructions import construct_example
from bsp.decomposition import (
    AuditItem,
    AuditReport,
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
from bsp.enumeration import enumerate_catalog
from bsp.family import BspPair, VectorFamily, close_pair, pair_from_product_matrix
from bsp.linalg import (
    Vec,
    add,
    affine_dim,
    dual_basis,
    independent_rows,
    int_rows,
    neg,
    rank,
    solve,
    sub,
    vec,
)
from test_linalg import dot, scale, zero_vec

# ---------------------------------------------------------------------------
# Fraction reference: the decomposition computed with rational dot products,
# a projection along b_d and a Gram solve per projected point
# ---------------------------------------------------------------------------


def _project_along(x: Vec, b_d: Vec) -> Vec:
    # orthogonal projection onto the hyperplane b_d-perp
    coeff = dot(x, b_d) / dot(b_d, b_d)
    return sub(x, scale(b_d, coeff))


def project_onto_span(x: Vec, spanning: list[Vec]) -> Vec:
    """Exact orthogonal projection of x onto span(spanning), by the Gram
    matrix; the projection onto the zero span is the zero vector."""
    base = [spanning[i] for i in independent_rows(spanning)]
    if not base:
        return zero_vec(len(x))
    gram = tuple(tuple(dot(u, v) for v in base) for u in base)
    coeffs = solve(gram, tuple(dot(u, x) for u in base)).solution
    y = zero_vec(len(x))
    for c, u in zip(coeffs, base):
        y = add(y, scale(u, c))
    return y


def _fraction_rank(vectors) -> int:
    """Rank by Gaussian elimination on Fractions, apart from the integer
    echelon of :mod:`bsp.linalg`."""
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _ref_affine_dim(points) -> int:
    points = list(points)
    return _fraction_rank([sub(p, points[0]) for p in points[1:]]) if points else -1


def _ref_split(a_vectors, b_d):
    a0 = [a for a in a_vectors if dot(a, b_d) == 0]
    a1 = [a for a in a_vectors if dot(a, b_d) == 1]
    assert len(a0) + len(a1) == len(a_vectors)
    return a0, a1


def _ref_bd_value(p, b):
    a0, a1 = _ref_split(p.family_a.vectors, b)
    return max(_ref_affine_dim(a0), _ref_affine_dim(a1))


def _ref_tied(p):
    scored = [(_ref_bd_value(p, b), b) for b in p.family_b.sorted() if any(b)]
    best = max(v for v, _ in scored)
    return [b for v, b in sorted(scored, reverse=True) if v == best]


def _ref_normalize(p, b_d):
    a_set, b_set = set(p.family_a.vectors), set(p.family_b.vectors)
    a0, a1 = _ref_split(a_set, b_d)
    translated = len(a0) < len(a1)
    if translated:
        a_star = min(a1)
        a_set = {sub(a, a_star) for a in a_set}
        b_set = (b_set - {b_d}) | {neg(b_d)}
        b_d = neg(b_d)
        a0, a1 = _ref_split(a_set, b_d)
    flipped = 0

    def flip_where(predicate):
        nonlocal b_set, flipped
        out = set()
        for b in b_set:
            if predicate(b):
                b = neg(b)
                flipped += 1
            out.add(b)
        b_set = out

    flip_where(lambda b: {dot(a, b) for a in a0} == {0, -1})
    a1p = [sub(a, min(a1)) for a in a1]
    flip_where(
        lambda b: {dot(a, b) for a in a0} == {0}
        and {dot(a, b) for a in a1p} == {0, -1}
    )
    return a_set, b_set, b_d, translated, flipped


def _ref_decompose(p, b_d):
    """Every field of :func:`decompose`, as plain Python values."""
    a_set, b_set, b_d, translated, flipped = _ref_normalize(p, b_d)
    a0, a1 = _ref_split(a_set, b_d)
    fibers = {}
    for b in sorted(b_set):
        fibers.setdefault(_project_along(b, b_d), []).append(b)
    b0, b1 = set(), set()
    for b in (b for v in fibers.values() if len(v) > 1 for b in v):
        const0 = len({dot(a, b) for a in a0}) == 1
        const1 = len({dot(a, b) for a in a1}) == 1
        assert const0 or const1
        if const0 and const1:
            (b1 if b in (zero_vec(p.dim), b_d) else b0).add(b)
        else:
            (b1 if const1 else b0).add(b)
    return {
        "family_a": a_set,
        "family_b": b_set,
        "b_d": b_d,
        "translated": translated,
        "flipped": flipped,
        "a0": set(a0),
        "a1": set(a1),
        "b_star": {v[0] for v in fibers.values() if len(v) == 1},
        "b0": b0,
        "b1": b1,
        "u0_dim": _ref_affine_dim(a0),
        "pi_b": set(fibers),
        "tau_pi_b": {project_onto_span(y, a0) for y in fibers},
        "max_fiber": max(len(v) for v in fibers.values()),
    }


def _ref_audit(d: int, ref: dict) -> AuditReport:
    """Every claim of :func:`audit` from the fields of :func:`_ref_decompose`,
    each dimension by Fraction elimination."""
    na, nb, na0, na1, nb0, nb1, nbs, npi, ntau = (len(ref[k]) for k in (
        "family_a", "family_b", "a0", "a1", "b0", "b1", "b_star", "pi_b", "tau_pi_b"))
    u0 = ref["u0_dim"]
    dim_a0, dim_a1 = (max(_ref_affine_dim(ref[k]), 0) for k in ("a0", "a1"))
    dim_b0, dim_b1 = (_fraction_rank(ref[k]) for k in ("b0", "b1"))
    claims = [
        ("claim2-max-preimages", ref["max_fiber"], 2),
        ("partition-identity", nb, 2 * npi - nbs),
        ("inequality0", na * nb, 2 * na0 * npi + na1 * (nb0 + nb1)),
        ("claim3-projection-count", npi, 2 ** (d - 1 - u0) * ntau),
        ("claim5-side0", na0 * nb0, 2 ** d),
        ("claim5-side1", na1 * nb1, 2 ** d),
        ("eq8-side1", na1 * nb1, 2 ** d),
        ("eq8-side0-strengthened", na0 * (nb0 + 2), 2 ** d),
        ("inequality1", na * nb, (u0 + 1) * 2 ** d + na0 * nb0 + na1 * nb1),
        ("size-bound-a0", na0, 2 ** dim_a0),
        ("size-bound-a1", na1, 2 ** dim_a1),
        ("size-bound-b0", nb0, 2 ** dim_b0),
        ("size-bound-b1", nb1, 2 ** dim_b1),
        ("dim-sum-side0", dim_a0 + dim_b0, d),
        ("dim-sum-side1", dim_a1 + dim_b1, d),
    ]
    return AuditReport(tuple(
        AuditItem(name, lhs, rhs, lhs == rhs if name == "partition-identity" else lhs <= rhs)
        for name, lhs, rhs in claims
    ))


def _fields(dec):
    n = dec.pair
    out = {
        "family_a": set(n.family_a.vectors), "family_b": set(n.family_b.vectors),
        "b_d": n.b_d, "translated": n.translated, "flipped": n.flipped,
        "u0_dim": dec.u0_dim, "max_fiber": dec.max_fiber,
    }
    for name in ("a0", "a1", "b_star", "b0", "b1", "pi_b", "tau_pi_b"):
        out[name] = set(getattr(dec, name).vectors)
    for name, value in out.items():
        if isinstance(value, set):
            assert all(type(c) is Fraction for v in value for c in v), name
    return out


def _assert_matches_reference(p) -> Counter:
    """decompose equals the Fraction reference field by field, and
    audit_pair equals both the audit of each decompose and the reference
    audit claim by claim, for every tied b_d.  Counts the tied choices and
    those whose normalization translates A or flips members of B."""
    tied = tied_bd_choices(p)
    assert tied == _ref_tied(p)
    seen = Counter()
    audits = []
    for b_d in tied:
        assert all(type(c) is Fraction for c in b_d)
        dec = decompose(p, b_d)
        assert dec.b_d == dec.pair.b_d
        ref = _ref_decompose(p, b_d)
        assert _fields(dec) == ref, b_d
        rep = audit(dec)
        assert rep == _ref_audit(p.dim, ref), b_d
        audits.append((b_d, rep))
        seen.update(choices=1, translated=ref["translated"], flipped=ref["flipped"] > 0)
    assert audit_pair(p) == audits
    return seen


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
    p = construct_example("example3", 3)
    assert max(_ref_bd_value(p, b) for b in tied_bd_choices(p)) == 2


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


def test_decompose_rejects_zero_bd_and_non_binary_products():
    with pytest.raises(DecompositionError, match="orthogonal"):
        decompose(cube_pair_d2(), vec((0, 0)))
    two = BspPair(2, VectorFamily.of(2, [(0, 0), (2, 0), (0, 1)]), cube_pair_d2().family_b)
    for run in (audit_pair, tied_bd_choices, lambda p: decompose(p, vec((0, 1)))):
        with pytest.raises(DecompositionError, match="product 2 "):
            run(two)


def test_degenerate_pairs_raise_decomposition_error():
    # a valid pair whose tied b_d = e1 has product 1 with all of A, so
    # normalization would translate A1 away
    p = BspPair.of(2, [(1, 0), (1, 1)], [(1, 0), (1, -1)])
    assert tied_bd_choices(p) == [vec((1, 0))]
    for run in (audit_pair, decompose, lambda p: normalize(p, vec((1, 0)))):
        with pytest.raises(DecompositionError, match="product 1 with every member of A"):
            run(p)
    a = cube_pair_d2().family_a
    for b in ([], [(0, 0)]):
        no_bd = BspPair(2, a, VectorFamily.of(2, b))
        for run in (audit_pair, tied_bd_choices, choose_bd, decompose):
            with pytest.raises(DecompositionError, match="no nonzero member"):
                run(no_bd)


def test_lemslice_exhaustive_small():
    r1 = check_lemslice(1)
    assert r1.mode == "exhaustive" and r1.checked > 0
    r2 = check_lemslice(2)
    assert r2.checked == 54  # opposite-free subsets of the 7 ground points
    assert r2.tight == 33


def test_lemslice_cube_is_tight():
    from bsp.family import cube_vertices

    for d in (1, 2, 3, 4):
        x = cube_vertices(d)
        assert len(x) == 1 << affine_dim(x) == 1 << d


def test_lemslice_random_modes():
    # pinned counts: the seeded draws walk the ground set in sorted order
    for d, tight in ((3, 166), (4, 9), (5, 0)):
        rep = check_lemslice(d, mode="random", seed=1, trials=2000)
        assert rep.checked == 2000
        assert rep.tight == tight


def test_lemslice_rejects_big_exhaustive():
    with pytest.raises(ValueError):
        check_lemslice(4, mode="exhaustive")


# ---------------------------------------------------------------------------
# the integer decomposition against the Fraction reference
# ---------------------------------------------------------------------------


@functools.cache
def _catalog_pairs(d_max: int) -> list[BspPair]:
    return [
        pair_from_product_matrix(cls.matrix, d)
        for d in range(1, d_max + 1)
        for cls in enumerate_catalog(d).classes
    ]


def test_decompose_matches_reference_on_catalogs():
    pairs, seen = 0, Counter()
    for pair in _catalog_pairs(4):
        for oriented in (pair, pair.transposed()):
            seen += _assert_matches_reference(oriented)
            pairs += 1
    assert (pairs, seen["choices"]) == (42, 242)
    assert (seen["translated"], seen["flipped"]) == (59, 61)


def test_decompose_matches_reference_on_closed_examples():
    seen = Counter()
    for kind in ("example3", "example4"):
        for d in (2, 3, 4):
            closed = close_pair(construct_example(kind, d).family_b)
            seen += _assert_matches_reference(closed)
            seen += _assert_matches_reference(closed.transposed())
    assert seen["choices"] == 55
    assert (seen["translated"], seen["flipped"]) == (11, 11)


def _image(v: Vec, rows: list[Vec]) -> Vec:
    """The row vector v times the matrix with the given rows."""
    out = zero_vec(len(v))
    for c, row in zip(v, rows):
        out = add(out, scale(row, c))
    return out


def _rational_image(pair: BspPair, rng: random.Random) -> BspPair:
    """(A M, B M^-T) for a random invertible rational M, drawn until both
    families carry a denominator > 1; every product is kept."""
    d = pair.dim
    while True:
        m = [vec(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
             for _ in range(d)]
        if rank(m) < d:
            continue
        m_inv_t = dual_basis(m)  # rows n_j with <m_i, n_j> = delta_ij
        image = BspPair.of(
            d,
            [_image(a, m) for a in pair.family_a.vectors],
            [_image(b, m_inv_t) for b in pair.family_b.vectors],
        )
        if int_rows(image.family_a.vectors)[0] > 1 and int_rows(image.family_b.vectors)[0] > 1:
            return image


def test_decompose_matches_reference_on_rational_images():
    rng = random.Random(7)
    seen = Counter()
    for pair in _catalog_pairs(4):
        if pair.dim > 1:
            image = _rational_image(pair, rng)
            seen += _assert_matches_reference(image)
            seen += _assert_matches_reference(image.transposed())
    assert seen["choices"] == 240
    assert (seen["translated"], seen["flipped"]) == (59, 61)


def test_audit_pair_builds_fractions_only_for_the_returned_bd(monkeypatch):
    """Each tied choice costs d Fractions, the b_d handed back; the
    product matrix, normalization, fibers and ranks run on ints."""
    pairs = [q for p in _catalog_pairs(4) if p.dim == 4 for q in (p, p.transposed())]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for pair in pairs:
        made.clear()
        results = audit_pair(pair)
        assert 0 < len(made) <= 4 * len(results)


def test_audit_pair_builds_no_family_and_no_inverse(monkeypatch):
    """audit_pair reads its counts off the product matrix: no member
    family and no Gram inverse per tied choice, which decompose builds."""
    pairs = [q for p in _catalog_pairs(4) if p.dim == 4 for q in (p, p.transposed())]
    calls = Counter()
    from_rows = VectorFamily.from_rows.__func__
    greedy_inverse = bsp.decomposition.greedy_inverse

    def counting_from_rows(cls, *args):
        calls["from_rows"] += 1
        return from_rows(cls, *args)

    def counting_greedy_inverse(*args):
        calls["greedy_inverse"] += 1
        return greedy_inverse(*args)

    monkeypatch.setattr(VectorFamily, "from_rows", classmethod(counting_from_rows))
    monkeypatch.setattr(bsp.decomposition, "greedy_inverse", counting_greedy_inverse)
    for pair in pairs:
        assert audit_pair(pair)
        assert not calls, pair.sizes()
    decompose(pairs[0])
    assert calls == {"from_rows": 9, "greedy_inverse": 1}


def test_audit_catalog_d4_output_is_pinned(tmp_path, capsys):
    csv = tmp_path / "audit.csv"
    catalog = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "catalog_d4.jsonl"
    assert main(["audit", str(catalog), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "40b9a676cb1dc4950cc379103c791bfa31be0be68263f1cb909eeb377ff00db0"
    )
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "f595c6f9d5456d340b6ca52c301b0e3a1ac37367629b8a94bc6319d2b981a631"
    )


# ---------------------------------------------------------------------------
# the reference projection itself
# ---------------------------------------------------------------------------


def test_project_onto_axis():
    assert project_onto_span(vec((1, 1)), [vec((1, 0))]) == vec((1, 0))


def test_project_in_span_is_identity():
    x = vec((2, 3))
    assert project_onto_span(x, [vec((1, 0)), vec((1, 1))]) == x


def test_project_coordinate_plane():
    got = project_onto_span(vec((0, 1, 1)), [vec((1, 0, 0)), vec((0, 1, 0))])
    assert got == vec((0, 1, 0))


@st.composite
def rational_vectors(draw, dim):
    nums = st.integers(min_value=-6, max_value=6)
    dens = st.integers(min_value=1, max_value=4)
    return vec(Fraction(draw(nums), draw(dens)) for _ in range(dim))


@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        rational_vectors(d),
        st.lists(rational_vectors(d), min_size=1, max_size=d),
    )
))
def test_projection_idempotent_and_product_preserving(data):
    d, x, span = data
    y = project_onto_span(x, span)
    assert project_onto_span(y, span) == y
    for s in span:
        assert dot(s, y) == dot(s, x)
