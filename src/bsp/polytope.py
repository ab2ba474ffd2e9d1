"""2-level polytopes: exact facet enumeration, slack matrices, bound
checks, cube/cross detection, and the vertex-facet extremal examples.

Facet enumeration is brute force over vertex d-subsets with exact side
tests (correctness over speed; every target here has at most ~64 vertices
in dimension <= 6).  A supporting hyperplane through d affinely
independent vertices is necessarily a facet, so the scan can only fail by
omission; the H-to-V round trip used in the tests rules that out on the
shipped constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index

from . import kernel
from .canon import canonical_key
from .errors import (
    BadParameterError,
    MalformedSlackError,
    NotFullDimensionalError,
    NotTwoLevelError,
    SingularBasisError,
    parsing,
)
from .family import BspPair, ProductMatrix, matrix_rank
from .linalg import (
    Vec,
    add,
    affine_dim,
    dot,
    neg,
    rank,
    scale,
    solve,
    sub,
    unit_vec,
    vec,
    zero_vec,
)

_KERNEL_COORD_LIMIT = 128  # beyond this, fall back to big-int python scan


@dataclass(frozen=True)
class Facet:
    normal: Vec  # primitive integer normal; polytope satisfies <n, x> <= offset
    offset: Fraction

    def value(self, v: Vec) -> Fraction:
        return dot(self.normal, v)


@dataclass(frozen=True)
class Polytope2L:
    d: int
    vertices: tuple[Vec, ...]  # sorted
    facets: tuple[Facet, ...]
    two_level: bool

    @property
    def f0(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def f_vector_ends(self) -> tuple[int, int]:
        return (self.f0, self.n_facets)

    def facet_values(self, f: Facet) -> set[Fraction]:
        return {f.value(v) for v in self.vertices}

    def slack_matrix(self) -> ProductMatrix:
        """Vertices x facets 0/1 slack grid (rows sorted, columns in facet
        order); only defined for 2-level polytopes."""
        if not self.two_level:
            raise NotTwoLevelError("slack matrix requires a 2-level polytope")
        bits = []
        cols = []
        for f in self.facets:
            values = self.facet_values(f)
            other = min(values)  # facet side attains the max = offset
            span = f.offset - other
            cols.append((f, other, span))
        for v in self.vertices:
            row = []
            for f, other, span in cols:
                s = (f.offset - f.value(v)) / span
                assert s in (0, 1)
                row.append("1" if s == 1 else "0")
            bits.append("".join(row))
        tb = tuple(bits)
        return ProductMatrix(len(bits), len(self.facets), tb, matrix_rank(tb))

    def to_json(self) -> dict:
        from .linalg import format_rat

        return {
            "d": self.d,
            "vertices": [[format_rat(c) for c in v] for v in self.vertices],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Polytope2L":
        with parsing("polytope"):
            d, verts = index(obj["d"]), [vec(v) for v in obj["vertices"]]
        return polytope_from_vertices(d, verts)


def facets(d: int, vertices: list[Vec]) -> list[Facet]:
    """All facet hyperplanes of conv(vertices), exhaustively."""
    if affine_dim(vertices) != d:
        raise NotFullDimensionalError("vertex set is not full-dimensional")
    denom = 1
    for v in vertices:
        for c in v:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    scaled = [tuple(int(c * denom) for c in v) for v in vertices]
    big = max(abs(x) for v in scaled for x in v)
    impl = kernel if big <= _KERNEL_COORD_LIMIT and d <= 6 else kernel.get_backend("python")
    raw = impl.facet_scan(d, scaled)
    return [Facet(vec(n), Fraction(c, denom)) for n, c in raw]


def polytope_from_vertices(d: int, vertices) -> Polytope2L:
    """The polytope conv(vertices).  Every point must be a vertex, that is
    its incident facet normals span R^d; any other point raises
    BadParameterError, since it would inflate f0 in the bound checks."""
    verts = sorted({vec(v) for v in vertices})
    if any(len(v) != d for v in verts):
        raise BadParameterError("vertex of wrong dimension")
    fs = facets(d, verts)
    values = [[f.value(v) for v in verts] for f in fs]
    for i, v in enumerate(verts):
        if rank([f.normal for f, row in zip(fs, values) if row[i] == f.offset]) < d:
            raise BadParameterError(
                f"point [{', '.join(str(c) for c in v)}] is not a vertex of the hull"
            )
    two = all(len(set(row)) == 2 for row in values)
    return Polytope2L(d, tuple(verts), tuple(fs), two)


def extract_pair(p: Polytope2L) -> BspPair:
    """The binary-scalar-product pair of a 2-level polytope: vertices
    (shifted so 0 is one of them) against scaled facet normals, one per
    parallel facet class, plus the zero vector."""
    if not p.two_level:
        raise NotTwoLevelError("pair extraction requires a 2-level polytope")
    v0 = p.vertices[0]  # lex-least vertex becomes the origin
    verts = [sub(v, v0) for v in p.vertices]
    b: set[Vec] = {zero_vec(p.d)}
    for f in p.facets:
        offset = f.offset - f.value(v0)
        values = {offset - (f.offset - f.value(v)) for v in p.vertices}
        # after the shift every facet's value set contains 0 (the origin is
        # a vertex, and 2-levelness puts it on one of the two hyperplanes)
        assert 0 in values, "shifted facet values must contain 0"
        s = next(x for x in values if x != 0)
        b.add(scale(f.normal, 1 / s))
    return BspPair.of(p.d, verts, b)


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
        return {
            "name": self.name,
            "f0": self.f0,
            "facets": self.facets,
            "product": self.product,
            "bound": self.bound,
            "applicable": self.applicable,
            "pass": self.passed,
            "equality": self.equality,
        }


def check_thm1(p: Polytope2L) -> PolytopeBoundReport:
    """f0 * f_{d-1} <= d 2^{d+1} for 2-level polytopes."""
    prod = p.f0 * p.n_facets
    bound = p.d << (p.d + 1)
    return PolytopeBoundReport(
        "vertex-facet-bound", p.f0, p.n_facets, prod, bound, True, prod <= bound,
        prod == bound,
    )


def check_thm2(p: Polytope2L) -> PolytopeBoundReport:
    """f0 * f_{d-1} <= (d-1) 2^{d+1} + 8(d-1) for 2-level polytopes that
    are neither cubes nor cross-polytopes (affinely)."""
    prod = p.f0 * p.n_facets
    d = p.d
    bound = ((d - 1) << (d + 1)) + 8 * (d - 1)
    applicable = d > 1 and detect_special(p) == "neither"
    return PolytopeBoundReport(
        "non-special-bound", p.f0, p.n_facets, prod, bound, applicable,
        (prod <= bound) if applicable else True, prod == bound,
    )


def detect_special(p: Polytope2L) -> str:
    """'cube' or 'cross' when the slack matrix is permutation-equivalent
    to the reference cube/cross slack for dimension d, else 'neither'.

    Slack-permutation equivalence is decided with the canonical key; the
    d <= 3 affine-map oracle in the tests backs the identification.
    """
    if not p.two_level:
        raise NotTwoLevelError("special-shape detection requires 2-level input")
    key = canonical_key(p.slack_matrix())
    if key == canonical_key(reference_slack("cube", p.d)):
        return "cube"
    if key == canonical_key(reference_slack("cross", p.d)):
        return "cross"
    return "neither"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

POLYTOPE_KINDS = ("suspension-cube", "cross-x-segment", "cube", "cross", "simplex", "prism")


def construct_polytope(kind: str, d: int) -> Polytope2L:
    return polytope_from_vertices(d, _construction_vertices(kind, d))


def _construction_vertices(kind: str, d: int) -> list[Vec]:
    if kind == "cube":
        if d < 1:
            raise BadParameterError("cube needs d >= 1")
        return [
            vec(bits) for bits in itertools.product((0, 1), repeat=d)
        ]
    if kind == "cross":
        if d < 1:
            raise BadParameterError("cross needs d >= 1")
        out = []
        for i in range(d):
            out.append(unit_vec(d, i))
            out.append(neg(unit_vec(d, i)))
        return out
    if kind == "simplex":
        if d < 1:
            raise BadParameterError("simplex needs d >= 1")
        return [zero_vec(d)] + [unit_vec(d, i) for i in range(d)]
    if kind == "prism":
        if d < 2:
            raise BadParameterError("prism needs d >= 2")
        base = [zero_vec(d - 1)] + [unit_vec(d - 1, i) for i in range(d - 1)]
        return [vec(tuple(s) + (t,)) for s in base for t in (0, 1)]
    if kind == "suspension-cube":
        if d < 2:
            raise BadParameterError("suspension-cube needs d >= 2")
        out = [
            vec(signs + (0,))
            for signs in itertools.product((-1, 1), repeat=d - 1)
        ]
        out.append(unit_vec(d, d - 1))
        out.append(neg(unit_vec(d, d - 1)))
        return out
    if kind == "cross-x-segment":
        if d < 2:
            raise BadParameterError("cross-x-segment needs d >= 2")
        out = []
        for i in range(d - 1):
            for si in (-1, 1):
                for sd in (-1, 1):
                    v = add(scale(unit_vec(d, i), Fraction(si)),
                            scale(unit_vec(d, d - 1), Fraction(sd)))
                    out.append(v)
        return out
    raise BadParameterError(f"unknown polytope kind: {kind!r}")


def expected_f_vector_ends(kind: str, d: int) -> tuple[int, int]:
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
    if kind == "cross-x-segment":
        return (4 * (d - 1), 2 + (1 << (d - 1)))
    raise BadParameterError(f"unknown polytope kind: {kind!r}")


def reference_slack(kind: str, d: int) -> ProductMatrix:
    """Closed-form slack matrices of the shipped constructions; these stay
    cheap at dimensions where the brute-force facet scan would not.  The
    tests cross-validate them against the facet pipeline at small d."""
    rows: list[str] = []
    if kind == "cube":
        for m in range(1 << d):
            x = [(m >> i) & 1 for i in range(d)]
            rows.append("".join(str(c) for c in x) + "".join(str(1 - c) for c in x))
    elif kind == "cross":
        for i in range(d):
            for s in (1, -1):
                row = []
                for mask in range(1 << d):
                    eps = 1 if (mask >> i) & 1 else -1
                    row.append(str((1 - s * eps) // 2))
                rows.append("".join(row))
    elif kind == "simplex":
        for v in [[0] * d] + [[1 if j == i else 0 for j in range(d)] for i in range(d)]:
            rows.append("".join(str(c) for c in v) + str(1 - sum(v)))
    elif kind == "prism":
        base = [[0] * (d - 1)] + [
            [1 if j == i else 0 for j in range(d - 1)] for i in range(d - 1)
        ]
        for s in base:
            for t in (0, 1):
                rows.append(
                    "".join(str(c) for c in s)
                    + str(1 - sum(s))
                    + str(t)
                    + str(1 - t)
                )
    elif kind == "suspension-cube":
        combos = list(itertools.product((-1, 1), repeat=d - 1))
        cols = [(i, s, t) for i in range(d - 1) for s in (-1, 1) for t in (-1, 1)]
        for v in combos:
            rows.append("".join(str((1 - s * v[i]) // 2) for (i, s, t) in cols))
        for apex in (1, -1):
            rows.append("".join(str((1 - t * apex) // 2) for (i, s, t) in cols))
    elif kind == "cross-x-segment":
        cols = [1, -1] + list(itertools.product((-1, 1), repeat=d - 1))
        for i in range(d - 1):
            for si in (-1, 1):
                for sd in (-1, 1):
                    row = []
                    for col in cols:
                        if col == 1 or col == -1:
                            row.append(str((1 - col * sd) // 2))
                        else:
                            row.append(str((1 - col[i] * si) // 2))
                    rows.append("".join(row))
    else:
        raise BadParameterError(f"unknown polytope kind: {kind!r}")
    bits = tuple(rows)
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
    if rank(list(basis)) != d:
        raise SingularBasisError("vectors are linearly dependent")
    a = [vec(b) for b in basis[:-1]]
    v = vec(basis[-1])
    s = v
    for ai in a:
        s = add(s, ai)
    sources = a + [s]
    ed = unit_vec(d, d - 1)
    targets = [add(ed, unit_vec(d, i)) for i in range(d - 1)] + [scale(ed, Fraction(2))]

    rows = tuple(vec(w[i] for w in sources) for i in range(d))  # W columns

    def apply_map(x: Vec) -> Vec:
        coeffs = solve(rows, x).solution
        assert coeffs is not None
        img = zero_vec(d)
        for lam, t in zip(coeffs, targets):
            img = add(img, scale(t, lam))
        return sub(img, ed)

    points = [zero_vec(d)] + a + [s] + [sub(s, ai) for ai in a]
    mapped = sorted(apply_map(x) for x in points)
    want = sorted(
        [unit_vec(d, i) for i in range(d)] + [neg(unit_vec(d, i)) for i in range(d)]
    )
    return Lemma3Certificate(mapped == want, tuple(mapped))


# ---------------------------------------------------------------------------
# conjecture audit over slack matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlackAuditEntry:
    label: str
    vertices: int
    b_size: int  # facet classes + 1, per the pair extraction
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "vertices": self.vertices,
            "b_size": self.b_size,
            "pass": self.passed,
            "violations": [v.to_json() for v in self.violations],
        }


def slack_pair_sizes(slack: ProductMatrix) -> tuple[int, int]:
    """(|A|, |B|) sizes the pair extraction yields from a 0/1 slack:
    vertices against parallel facet classes plus the zero vector.
    Parallel facet pairs have complementary slack columns."""
    if any(c not in "01" for row in slack.bits for c in row):
        raise MalformedSlackError("slack entries must be 0/1")
    if slack.m == 0 or slack.n == 0:
        raise MalformedSlackError("empty slack matrix")
    cols = slack.column_bits()
    paired = [False] * slack.n
    pairs = 0
    complement = {}
    for j, col in enumerate(cols):
        comp = "".join("1" if c == "0" else "0" for c in col)
        if comp in complement and not paired[complement[comp]]:
            k = complement[comp]
            paired[j] = paired[k] = True
            pairs += 1
        elif col not in complement:
            complement[col] = j
    classes = slack.n - pairs
    return (slack.m, classes + 1)


def audit_conjecture_on_slacks(
    slacks: list[tuple[str, ProductMatrix]], d: int
) -> list[SlackAuditEntry]:
    from .bounds import check_conjecture1

    out = []
    for label, slack in slacks:
        m, b = slack_pair_sizes(slack)
        violations = check_conjecture1([(m, b)], d)
        out.append(SlackAuditEntry(label, m, b, violations))
    return out


# ---------------------------------------------------------------------------
# H-to-V round trip (test oracle for the facet scan)
# ---------------------------------------------------------------------------


def vertices_from_facets(d: int, fs: list[Facet]) -> set[Vec]:
    """Brute-force vertex enumeration of the H-polytope: feasible unique
    solutions of d-subsets of facet equalities."""
    out: set[Vec] = set()
    for combo in itertools.combinations(fs, d):
        rows = tuple(f.normal for f in combo)
        rhs = vec(f.offset for f in combo)
        res = solve(rows, rhs)
        if res.solution is None or not res.unique:
            continue
        x = res.solution
        if all(f.value(x) <= f.offset for f in fs):
            out.add(x)
    return out
