from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsp.errors import SingularBasisError
from bsp.linalg import (
    affine_dim,
    dot,
    dual_basis,
    format_rat,
    independent_rows,
    project_onto_span,
    rank,
    rat,
    solve,
    unit_vec,
    vec,
)


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


def test_project_onto_axis():
    assert project_onto_span(vec((1, 1)), [vec((1, 0))]) == vec((1, 0))


def test_project_in_span_is_identity():
    x = vec((2, 3))
    assert project_onto_span(x, [vec((1, 0)), vec((1, 1))]) == x


def test_project_coordinate_plane():
    got = project_onto_span(vec((0, 1, 1)), [vec((1, 0, 0)), vec((0, 1, 0))])
    assert got == vec((0, 1, 0))


def test_rat_parsing_roundtrip():
    assert rat("1/2") == Fraction(1, 2)
    assert rat("-3") == Fraction(-3)
    assert format_rat(Fraction(1, 2)) == "1/2"
    assert format_rat(Fraction(4)) == "4"


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
    rows = [(0, 0, 0), (1, -1, 0), (2, -2, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1)]
    assert independent_rows(rows) == [1, 3, 5]
    assert rank([(1, 0), (0, 1)]) == 2


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([vec((5, 5))]) == 0
    assert affine_dim([vec((0, 0)), vec((1, 1)), vec((2, 2))]) == 1
    assert affine_dim([unit_vec(3, 0), unit_vec(3, 1), unit_vec(3, 2)]) == 2
