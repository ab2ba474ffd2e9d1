from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bsp.errors import MalformedInputError, SingularBasisError, parsing
from bsp.linalg import (
    affine_dim,
    coord,
    coords,
    dual_basis,
    greedy_inverse,
    independent_rows,
    int_field,
    int_rows,
    rank,
    rat,
    solve,
    unit_vec,
    vec,
)


# Fraction vector helpers for test inputs and reference values; other test
# modules import them from here


def zero_vec(dim: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * dim


def dot(u, v) -> Fraction:
    assert len(u) == len(v)
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def scale(u, s) -> tuple[Fraction, ...]:
    return tuple(a * s for a in u)


def test_rank_identity():
    assert rank([vec((1, 0)), vec((0, 1))]) == 2


def test_rank_zero_matrix():
    assert rank([vec((0, 0, 0))] * 3) == 0


def test_rank_dependent_row():
    assert rank([vec((1, 0)), vec((0, 1)), vec((1, 1))]) == 2


def test_rank_permutation_and_transpose_invariance():
    rows = [vec((1, 2, 3)), vec((0, 1, 1)), vec((1, 3, 4))]
    assert rank(rows) == rank(rows[::-1])
    cols = [vec(r) for r in zip(*rows)]
    assert rank(rows) == rank(cols)


def test_solve_identity():
    res = solve((vec((1, 0)), vec((0, 1))), vec((1, 0)))
    assert res.solution == vec((1, 0))
    assert res.unique


def test_solve_underdetermined_flags():
    res = solve((vec((1, 1)),), vec((1,)))
    assert res.solution is not None
    assert not res.unique
    x, y = res.solution
    assert x + y == 1


def test_solve_inconsistent():
    res = solve((vec((1, 0)), vec((1, 0))), vec((0, 1)))
    assert res.solution is None


def test_dual_basis_standard():
    basis = [vec((1, 0)), vec((0, 1))]
    assert dual_basis(basis) == basis


def test_dual_basis_skew():
    duals = dual_basis([vec((1, 0)), vec((1, 1))])
    assert duals == [vec((1, -1)), vec((0, 1))]


def test_dual_basis_singular():
    with pytest.raises(SingularBasisError):
        dual_basis([vec((1, 0)), vec((2, 0))])


def test_rat_parsing_roundtrip():
    assert rat("1/2") == Fraction(1, 2)
    assert rat("-3") == Fraction(-3) and type(rat("-3")) is Fraction


# numerals in the forms Fraction reads (signs, whitespace, underscores,
# "p/q", decimals, exponents) and near misses of them
NUMERALS = st.from_regex(
    r"\A\s?[+-]?([0-9]{1,3}(_?[0-9]{1,2})?)?(\.[0-9]{0,2})?([eE][+-]?[0-9]{1,2})?"
    r"(/_?[0-9]{0,3})?\s?\Z"
)


@given(st.one_of(st.integers(), st.fractions(), NUMERALS, st.text(max_size=6)))
@example("0\x1f")
def test_coord_reads_what_fraction_reads(x):
    """coord agrees with Fraction on every input Fraction reads, as an int
    exactly for ints and integer strings, and fails wherever Fraction
    does."""
    try:
        want = Fraction(x)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MalformedInputError), parsing("coordinate"):
            coord(x)
        return
    got = coord(x)
    assert got == want
    rational = isinstance(x, Fraction) or isinstance(x, str) and any(c in x for c in "/.eE")
    assert type(got) is (Fraction if rational else int)
    assert rat(x) == want and type(rat(x)) is Fraction


@pytest.mark.parametrize("x", [True, False, 0.5, 1.0, float("nan"), None, b"1", [1]])
def test_coord_rejects_bools_floats_and_other_types(x):
    with pytest.raises(MalformedInputError), parsing("coordinate"):
        coord(x)
    with pytest.raises(MalformedInputError), parsing("coordinate"):
        rat(x)


@pytest.mark.parametrize("v", ["01", "", b"01", "1/2"])
def test_a_string_is_not_a_vector(v):
    for read in (coords, vec):
        with pytest.raises(MalformedInputError), parsing("vector"):
            read(v)


def test_a_mapping_is_not_a_vector():
    # iterated, the mapping would read as its keys, the point (0, 1)
    for read in (coords, vec):
        with pytest.raises(MalformedInputError), parsing("vector"):
            read({"0": "x", "1": "y"})


@pytest.mark.parametrize("x", [True, False, 1.0, "2", None])
def test_int_field_rejects_bools_and_other_types(x):
    with pytest.raises(MalformedInputError), parsing("field"):
        int_field(x)


def test_int_field_reads_ints():
    assert [int_field(x) for x in (0, 4, -1)] == [0, 4, -1]


def test_coords_keep_integral_input_as_ints():
    assert coords(["1", -2, " 3 ", "1/2", "0.5", Fraction(4)]) == (
        1, -2, 3, Fraction(1, 2), Fraction(1, 2), Fraction(4))
    assert [type(c) for c in coords(["1", -2, "4/2"])] == [int, int, Fraction]
    assert vec(["1", -2]) == (Fraction(1), Fraction(-2))


@st.composite
def rational_vectors(draw, dim):
    nums = st.integers(min_value=-6, max_value=6)
    dens = st.integers(min_value=1, max_value=4)
    return vec(Fraction(draw(nums), draw(dens)) for _ in range(dim))


@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(rational_vectors(d), min_size=d, max_size=d))
))
def test_dual_basis_involution(data):
    d, vs = data
    if rank(vs) < d:
        return
    duals = dual_basis(vs)
    for i, b in enumerate(vs):
        for j, bd in enumerate(duals):
            assert dot(b, bd) == (1 if i == j else 0)
    # dual of dual recovers the original basis exactly
    assert dual_basis(duals) == list(vs)


@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(rational_vectors(d), max_size=6))
))
def test_independent_rows_against_gauss_jordan(data):
    d, rows = data
    expected: list[int] = []
    for i, row in enumerate(rows):
        # row i is dependent iff some combination of the picks equals it
        cols = tuple(tuple(rows[k][j] for k in expected) for j in range(d))
        if solve(cols, row).solution is None:
            expected.append(i)
    assert independent_rows(rows) == expected
    assert independent_rows(rows, limit=1) == expected[:1]
    assert rank(rows) == len(expected)
    if rows:
        assert rank(list(zip(*rows))) == len(expected)


def test_independent_rows_integer_input():
    """Int rows, their Fraction, mixed and halved copies, and rows that
    are generators, each readable once, give the same picks."""
    rows = [(0, 0, 0), (1, -1, 0), (2, -2, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1)]
    fracs = [tuple(map(Fraction, r)) for r in rows]
    mixed = [tuple(Fraction(x) if j % 2 else x for j, x in enumerate(r)) for r in rows]
    halves = [tuple(Fraction(x, 2) for x in r) for r in rows]
    for variant in (rows, fracs, mixed, halves, [iter(r) for r in rows],
                    ((x for x in r) for r in mixed)):
        assert independent_rows(variant) == [1, 3, 5]
    assert rank([(1, 0), (0, 1)]) == 2


def test_independent_rows_stops_reading_at_the_cap():
    def rows():
        yield (Fraction(1, 2), Fraction(1, 3))
        yield (3, 2)  # the first row times 6
        yield (0, 1)
        raise AssertionError("read past the column count")

    assert independent_rows(rows()) == [0, 2]


def test_int_rows_shared_denominator():
    assert int_rows([]) == (1, [])
    assert int_rows([(1, -2), (0, 3)]) == (1, [(1, -2), (0, 3)])
    assert int_rows([(1, Fraction(1, 2)), (2, 0)]) == (2, [(2, 1), (4, 0)])
    rows = [vec(("1/2", "-1/3")), vec((2, "1/6")), vec((0, 0))]
    assert int_rows(rows) == (6, [(3, -2), (12, 1), (0, 0)])


@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(rational_vectors(d), min_size=1, max_size=5)
))
def test_int_rows_keep_products_and_order(rows):
    den, ints = int_rows(rows)
    assert den > 0
    for v, r in zip(rows, ints):
        assert vec(r) == tuple(c * den for c in v)
    for u, r in zip(rows, ints):
        for v, s in zip(rows, ints):
            assert sum(x * y for x, y in zip(r, s)) == dot(u, v) * den * den
            assert (u < v) == (r < s)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_det_and_cofactors_against_gauss_jordan(m):
    n = len(m)
    d = det(m)
    # the transposed cofactor matrix is the adjugate: M adj(M) = det(M) I
    cof = cofactor_matrix(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * cof[j][k] for k in range(n)) == (d if i == j else 0)
    assert (d == 0) == (rank(m) < n)
    if d:
        # det from the pivots and row swaps of a Fraction elimination
        rows = [vec(r) for r in m]
        prod = Fraction(1)
        for k in range(n):
            piv = next(i for i in range(k, n) if rows[i][k] != 0)
            if piv != k:
                rows[k], rows[piv] = rows[piv], rows[k]
                prod = -prod
            prod *= rows[k][k]
            for i in range(k + 1, n):
                f = rows[i][k] / rows[k][k]
                rows[i] = tuple(x - f * y for x, y in zip(rows[i], rows[k]))
        assert prod == d


def det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a small integer matrix: the
    oracle for :func:`bsp.linalg.greedy_inverse`."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cofactor_matrix(m: list[list[int]]) -> list[list[int]]:
    """Cofactors of a square integer matrix, one minor each; the transpose
    is its adjugate."""
    n = len(m)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            sign = -1 if (i + j) & 1 else 1
            cof[i][j] = sign * (det(minor) if minor else 1)
    return cof


def _products_are_den_delta(rows, picked, den, phi):
    """phi_i(row picked[j]) = den [i = j] for every functional phi_i."""
    for i, f in enumerate(phi):
        for j, p in enumerate(picked):
            assert sum(x * y for x, y in zip(f, rows[p])) == (den if i == j else 0)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=7),
        st.none() | st.integers(0, n),
    )
))
def test_greedy_inverse_picks_the_echelon_rows(data):
    rows, limit = data
    picked, den, phi = greedy_inverse(rows, limit)
    assert picked == independent_rows(rows, limit)
    assert den != 0 and len(phi) == (len(rows[0]) if rows else 0)
    _products_are_den_delta(rows, picked, den, phi)


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_greedy_inverse_matches_cofactor_oracle(m):
    picked, den, phi = greedy_inverse(m)
    assert picked == independent_rows(m)
    _products_are_den_delta(m, picked, den, phi)
    d = det(m)
    if d == 0:
        assert len(picked) < len(m)
        return
    assert den in (d, -d)
    # phi_i is den times column i of M^-1, and cofactor row i is det(M) times it
    assert [[d * x for x in f] for f in phi] == [[den * x for x in c] for c in cofactor_matrix(m)]


def test_greedy_inverse_edge_cases():
    assert greedy_inverse([]) == ([], 1, [])
    assert greedy_inverse([[-3]]) == ([0], -3, [[1]])
    # (0, 1) takes the place of e_1 and (1, 0) that of e_0: D = 1 = -det
    assert greedy_inverse([[0, 1], [1, 0]]) == ([0, 1], 1, [[0, 1], [1, 0]])
    assert greedy_inverse([[0]]) == ([], 1, [[1]])
    assert greedy_inverse([[1, 2], [2, 4]])[0] == [0]
    assert greedy_inverse([[1, 0, 1], [0, 1, 1], [1, 1, 2]])[0] == [0, 1]


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([vec((5, 5))]) == 0
    assert affine_dim([vec((0, 0)), vec((1, 1)), vec((2, 2))]) == 1
    assert affine_dim([unit_vec(3, 0), unit_vec(3, 1), unit_vec(3, 2)]) == 2
