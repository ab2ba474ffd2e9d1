"""2-level polytopes: exact facet enumeration, slack matrices, bound
checks, cube/cross detection, and the vertex-facet extremal examples.

Facets come from the kernel's exact integer double description
(:func:`bsp._kernel_py.facet_scan`), whose work grows with the facets and
the intermediate cones rather than with the C(n, d) vertex subsets; the
brute-force scan over those subsets is the oracle it is tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import kernel
from .bounds import check_conjecture1
from .canon import canonical_key  # noqa: F401  (perfbench's tracer self-test looks it up here)
from .errors import (
    BadParameterError,
    MalformedSlackError,
    NotFullDimensionalError,
    NotTwoLevelError,
    SingularBasisError,
    parsing,
)
from .family import BspPair, ProductMatrix, VectorFamily, matrix_rank
from .linalg import (
    Row,
    Vec,
    coords,
    greedy_inverse,
    int_dot,
    int_field,
    int_rows,
    sub,
    unit_row,
    vec_over,
)


@dataclass(frozen=True)
class Polytope2L:
    """conv(vertices): the vertices are ``rows / den``, sorted integer rows
    over their least positive common denominator.  ``facets`` are the
    kernel's sorted (primitive normal, offset) integer pairs over ``den``:
    <normal, row> <= offset for every row, with equality on the facet."""

    d: int
    den: int
    rows: tuple[Row, ...]
    facets: tuple[tuple[Row, int], ...]
    two_level: bool
    # slacks[i][j] = offset - <normal, row j> of facet i
    slacks: tuple[Row, ...] = field(repr=False, compare=False)
    # bit j of facet_zeros[i] (of vertex_zeros[j]) is set when vertex j
    # lies on facet i
    facet_zeros: tuple[int, ...] = field(repr=False, compare=False)
    vertex_zeros: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(vec_over(r, self.den) for r in self.rows)

    @property
    def f0(self) -> int:
        return len(self.rows)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def f_vector_ends(self) -> tuple[int, int]:
        return (self.f0, self.n_facets)

    def slack_matrix(self) -> ProductMatrix:
        """Vertices x facets 0/1 slack grid (rows sorted, columns in facet
        order); only defined for 2-level polytopes."""
        if not self.two_level:
            raise NotTwoLevelError("slack matrix requires a 2-level polytope")
        bits = tuple("".join("1" if x else "0" for x in col) for col in zip(*self.slacks))
        return ProductMatrix(len(bits), len(self.facets), bits, matrix_rank(bits))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "vertices": [[str(c) for c in v] for v in self.vertices],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Polytope2L":
        with parsing("polytope"):
            d, verts = int_field(obj["d"]), obj["vertices"]
        return polytope_from_vertices(d, verts)


def polytope_from_vertices(d: int, vertices) -> Polytope2L:
    """The polytope conv(vertices), for points given as sequences of ints,
    Fractions, or integer, "p/q" or exact decimal strings, each read by
    :func:`linalg.coords`; anything else, a bool or a string in place of
    a point included, raises MalformedInputError.  Integral points stay
    int tuples throughout: they are deduplicated, sorted and scaled (over
    ``den`` = 1) without a Fraction.

    Every point must be a vertex, that is no other point lies on every
    facet it lies on (else the face cut out by those facets holds a
    segment through it); any other point raises BadParameterError, since
    it would inflate f0 in the bound checks.  Points that do not affinely
    span R^d raise NotFullDimensionalError."""
    with parsing("polytope"):
        points = {coords(v) for v in vertices}
    if d < 1:
        raise BadParameterError(f"polytopes need d >= 1, got {d}")
    if any(len(v) != d for v in points):
        raise BadParameterError("vertex of wrong dimension")
    den, rows = int_rows(sorted(points))
    try:
        facets = tuple(kernel.facet_scan(d, rows))
    except ValueError as exc:
        raise NotFullDimensionalError("vertex set is not full-dimensional") from exc
    slacks = tuple(tuple(c - int_dot(n, r) for r in rows) for n, c in facets)
    facet_zeros, vertex_zeros = _zero_sets(slacks)
    for i, z in enumerate(vertex_zeros):
        if any(y & z == z for j, y in enumerate(vertex_zeros) if j != i):
            point = ", ".join(str(Fraction(x, den)) for x in rows[i])
            raise BadParameterError(f"point [{point}] is not a vertex of the hull")
    two = all(len(set(row)) == 2 for row in slacks)
    return Polytope2L(d, den, tuple(rows), facets, two, slacks, facet_zeros, vertex_zeros)


def _zero_sets(slacks: tuple[Row, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The zero sets of the slacks, by facet (bit j: vertex j is on the
    facet) and by vertex (bit i: the vertex is on facet i)."""

    def zeros(rows) -> tuple[int, ...]:
        return tuple(sum(1 << j for j, x in enumerate(row) if not x) for row in rows)

    return zeros(slacks), zeros(zip(*slacks))


def extract_pair(p: Polytope2L) -> BspPair:
    """The binary-scalar-product pair of a 2-level polytope: vertices
    (shifted so 0 is one of them) against scaled facet normals, one per
    parallel facet class, plus the zero vector.

    Built from the integer slacks, which already decide the pair: after
    the shift facet i takes the values 0 at the origin and s_i / den on
    its other level, for s_i = slack at the origin - the other slack, so
    <vertex, normal * den / s_i> is 0 or 1.  Both families span R^d, as
    the polytope is full-dimensional."""
    if not p.two_level:
        raise NotTwoLevelError("pair extraction requires a 2-level polytope")
    r0 = p.rows[0]  # lex-least vertex becomes the origin
    steps = [row[0] - next(x for x in row if x != row[0]) for row in p.slacks]
    den_b = lcm(*steps)
    b = [(0,) * p.d] + [
        tuple(x * p.den * (den_b // s) for x in n) for (n, _), s in zip(p.facets, steps)
    ]
    return BspPair(p.d, VectorFamily.from_rows(p.d, p.den, [sub(r, r0) for r in p.rows]),
                   VectorFamily.from_rows(p.d, den_b, b))


@dataclass(frozen=True)
class PolytopeBoundReport:
    name: str
    f0: int
    facets: int
    product: int
    bound: int
    applicable: bool
    passed: bool
    equality: bool

    def to_json(self) -> dict:
        return {"pass" if k == "passed" else k: v for k, v in asdict(self).items()}


def _bound_report(name: str, p: Polytope2L, bound: int, applicable: bool) -> PolytopeBoundReport:
    prod = p.f0 * p.n_facets
    return PolytopeBoundReport(name, p.f0, p.n_facets, prod, bound, applicable,
                               not applicable or prod <= bound, prod == bound)


def check_thm1(p: Polytope2L) -> PolytopeBoundReport:
    """f0 * f_{d-1} <= d 2^{d+1} for 2-level polytopes."""
    return _bound_report("vertex-facet-bound", p, p.d << (p.d + 1), True)


def check_thm2(p: Polytope2L) -> PolytopeBoundReport:
    """f0 * f_{d-1} <= (d-1) 2^{d+1} + 8(d-1) for 2-level polytopes that
    are neither cubes nor cross-polytopes (affinely)."""
    d = p.d
    return _bound_report("non-special-bound", p, ((d - 1) << (d + 1)) + 8 * (d - 1),
                         d > 1 and detect_special(p) == "neither")


def detect_special(p: Polytope2L) -> str:
    """'cube' or 'cross' when the 0/1 slack matrix is a row and column
    permutation of the d-cube's or the d-cross-polytope's, else 'neither';
    see :func:`special_kind`.  Cube is tested first, so the square (both)
    is a cube."""
    if not p.two_level:
        raise NotTwoLevelError("special-shape detection requires 2-level input")
    return special_kind(p.d, p.vertex_zeros, p.facet_zeros)


def special_kind(d: int, rows: Sequence[int], cols: Sequence[int]) -> str:
    """'cube', 'cross' or 'neither' for the 0/1 matrix with these row
    bitsets (over the columns) and column bitsets (over the rows).  Taking
    the zeros or the ones of the matrix as the set bits gives the same
    verdict.

    A 0/1 matrix is a row and column permutation of the d-cube's slack
    matrix (vertex x against columns x_i and 1 - x_i) exactly when it has
    2^d pairwise distinct rows and its 2d columns split into d pairs that
    sum to the all-ones column.  The rows then read off one column per
    pair are 2^d distinct points of {0,1}^d, that is all of them.  The
    cross-polytope's slack matrix is the transpose of the cube's, so the
    same test on the transpose decides it.  Both tests are exact; the
    tests check them against the canonical key of :func:`reference_slack`.
    """
    if _cube_like(d, rows, cols):
        return "cube"
    if _cube_like(d, cols, rows):
        return "cross"
    return "neither"


def _cube_like(d: int, rows: Sequence[int], cols: Sequence[int]) -> bool:
    if len(rows) != 1 << d or len(cols) != 2 * d or len(set(rows)) != len(rows):
        return False
    full = (1 << len(rows)) - 1
    count = Counter(cols)
    return all(count[c] == count[full ^ c] for c in count)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

# the kinds with the least d each is defined for
_MIN_DIM = {"suspension-cube": 2, "cross-x-segment": 2, "cube": 1, "cross": 1, "simplex": 1,
            "prism": 2}
POLYTOPE_KINDS = tuple(_MIN_DIM)


def _check_kind(kind: str, d: int) -> None:
    if kind not in _MIN_DIM:
        raise BadParameterError(f"unknown polytope kind: {kind!r}")
    if d < _MIN_DIM[kind]:
        raise BadParameterError(f"{kind} needs d >= {_MIN_DIM[kind]}")


def construct_polytope(kind: str, d: int) -> Polytope2L:
    return polytope_from_vertices(d, _construction_vertices(kind, d))


def _construction_vertices(kind: str, d: int) -> list[Row]:
    _check_kind(kind, d)
    if kind == "cube":  # point m has x_i = bit i of m
        return [tuple((m >> i) & 1 for i in range(d)) for m in range(1 << d)]
    if kind == "cross":
        return [unit_row(d, i, s) for i in range(d) for s in (1, -1)]
    if kind == "simplex":
        return [(0,) * d] + [unit_row(d, i) for i in range(d)]
    if kind == "prism":
        return [s + (t,) for s in _construction_vertices("simplex", d - 1) for t in (0, 1)]
    if kind == "suspension-cube":
        out = [signs + (0,) for signs in itertools.product((-1, 1), repeat=d - 1)]
        return out + [unit_row(d, d - 1), unit_row(d, d - 1, -1)]
    # cross-x-segment
    return [
        unit_row(d - 1, i, si) + (sd,)
        for i in range(d - 1) for si in (-1, 1) for sd in (-1, 1)
    ]


def _construction_facets(kind: str, d: int) -> list[tuple[Row, int]]:
    """The facets <normal, x> <= offset of the construction, with primitive
    normals, in the column order of :func:`reference_slack`.  The
    suspension of the cube and the cross-polytope x segment are polar: the
    facets of each are <v, x> <= 1 over the vertices v of the other."""
    _check_kind(kind, d)
    if kind == "cube":  # x_i >= 0, then x_i <= 1
        return [(unit_row(d, i, s), (1 + s) // 2) for s in (-1, 1) for i in range(d)]
    if kind == "cross":  # <signs, x> <= 1, the signs in the cube's vertex order
        return [(tuple(2 * x - 1 for x in v), 1) for v in _construction_vertices("cube", d)]
    if kind == "simplex":
        return [(unit_row(d, i, -1), 0) for i in range(d)] + [((1,) * d, 1)]
    if kind == "prism":  # the base simplex's facets, then the bottom and the top
        base = [(n + (0,), c) for n, c in _construction_facets("simplex", d - 1)]
        return base + [(unit_row(d, d - 1, -1), 0), (unit_row(d, d - 1), 1)]
    if kind == "suspension-cube":
        return [(v, 1) for v in _construction_vertices("cross-x-segment", d)]
    # cross-x-segment: the two apexes of the suspension first
    apexes_last = _construction_vertices("suspension-cube", d)
    return [(v, 1) for v in apexes_last[-2:] + apexes_last[:-2]]


def expected_f_vector_ends(kind: str, d: int) -> tuple[int, int]:
    _check_kind(kind, d)
    if kind == "cube":
        return (1 << d, 2 * d)
    if kind == "cross":
        return (2 * d, 1 << d)
    if kind == "simplex":
        return (d + 1, d + 1)
    if kind == "prism":
        return (2 * d, d + 2)
    if kind == "suspension-cube":
        return (2 + (1 << (d - 1)), 4 * (d - 1))
    return (4 * (d - 1), 2 + (1 << (d - 1)))  # cross-x-segment


def reference_slack(kind: str, d: int) -> ProductMatrix:
    """The 0/1 slack matrix of a construction, with no facet scan: rows are
    its closed-form vertices (:func:`_construction_vertices`), columns its
    closed-form facets (:func:`_construction_facets`, which the tests check
    against the scan), and an entry is 1 where the vertex is off the facet.
    Raises BadParameterError on the (kind, d) that
    :func:`construct_polytope` rejects."""
    facets = _construction_facets(kind, d)
    bits = tuple(
        "".join("0" if int_dot(n, v) == c else "1" for n, c in facets)
        for v in _construction_vertices(kind, d)
    )
    return ProductMatrix(len(bits), len(bits[0]), bits, matrix_rank(bits))


# ---------------------------------------------------------------------------
# cross-polytope certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma3Certificate:
    passed: bool
    mapped: tuple[Vec, ...]


def verify_lemma3(basis: list[Vec]) -> Lemma3Certificate:
    """Certify that conv({0, a_1..a_{d-1}} + {s, s-a_1..s-a_{d-1}}) with
    s = v + sum(a_i) is affinely a cross-polytope, by applying the
    explicit linear map (a_i -> e_d + e_i, s -> 2 e_d) and the shift by
    -e_d, then comparing vertex sets with conv(+-e_i)."""
    d = len(basis)
    if d < 1 or any(len(b) != d for b in basis):
        raise SingularBasisError("need d vectors of length d")
    rows = int_rows(map(coords, basis))[1]
    a, s = rows[:-1], tuple(map(sum, zip(*rows)))  # s = v + sum(a_i)
    picked, den, phi = greedy_inverse(a + [s])
    if len(picked) < d:
        raise SingularBasisError("vectors are linearly dependent")

    def apply_map(x: Row) -> Vec:
        # x = sum(phi_j(x) w_j) / D over the sources w = (a, s), so D times
        # its shifted image is (phi_0(x), .., sum of those + 2 phi_{d-1}(x) - D)
        w = [int_dot(f, x) for f in phi]
        w[-1] = sum(w) + w[-1] - den
        return vec_over(w, den)

    points = [(0,) * d, *a, s, *(sub(s, ai) for ai in a)]
    mapped = sorted(map(apply_map, points))
    want = sorted(unit_row(d, i, sign) for i in range(d) for sign in (1, -1))
    return Lemma3Certificate(mapped == want, tuple(mapped))


# ---------------------------------------------------------------------------
# conjecture audit over slack matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlackAuditEntry:
    label: str
    d: int
    vertices: int
    b_size: int  # facet classes + 1, per the pair extraction
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        violations = [v.to_json() for v in self.violations]
        return {**asdict(self), "pass": self.passed, "violations": violations}


def slack_pair_sizes(slack: ProductMatrix) -> tuple[int, int]:
    """(|A|, |B|) sizes the pair extraction yields from a 0/1 slack:
    vertices against parallel facet classes plus the zero vector.
    Parallel facet pairs have complementary slack columns.  A polytope's
    slack matrix has no repeated row (vertex) or column (facet), so one
    that does raises MalformedSlackError."""
    if any(c not in "01" for row in slack.bits for c in row):
        raise MalformedSlackError("slack entries must be 0/1")
    if slack.m == 0 or slack.n == 0:
        raise MalformedSlackError("empty slack matrix")
    cols = {int(c, 2) for c in slack.column_bits()}
    if len(set(slack.bits)) != slack.m or len(cols) != slack.n:
        raise MalformedSlackError("slack matrix has repeated rows or columns")
    full = (1 << slack.m) - 1
    pairs = sum(full ^ c in cols for c in cols) // 2
    return (slack.m, slack.n - pairs + 1)


def audit_conjecture_on_slacks(
    slacks: list[tuple[str, ProductMatrix]], d: int | None = None
) -> list[SlackAuditEntry]:
    """The conjectured bound on the pair sizes of each labelled slack, at
    the slack's own dimension: a d-polytope's slack matrix has rank d + 1.
    MalformedSlackError on a slack of rank below 2, and, when ``d`` is
    given, on one of another dimension."""
    out = []
    for label, slack in slacks:
        m, b = slack_pair_sizes(slack)
        dim = slack.rank_d - 1
        if dim < 1:
            raise MalformedSlackError(f"{label}: a slack of rank {slack.rank_d} is no polytope's")
        if d is not None and dim != d:
            raise MalformedSlackError(
                f"{label}: slack of rank {slack.rank_d}, so d = {dim}, not {d}")
        out.append(SlackAuditEntry(label, dim, m, b, check_conjecture1([(m, b)], dim)))
    return out
