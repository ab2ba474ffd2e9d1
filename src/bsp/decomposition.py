"""Projection decomposition of maximal pairs.

Given a maximal pair and a distinguished vector b_d of B, the family A
splits by the product with b_d into A0 and A1, B splits by the fiber
structure of the projection pi along b_d (B* = lonely fibers, B0/B1 = the
doubled fibers, classified by which side they are constant against), and
a list of exact counting inequalities ties all the pieces together.  The
audit evaluates every one of them on concrete pairs.

The normalization step mirrors the constructive argument establishing it:
translate A when the zero side is the smaller one, then flip the signs of
offending B members.  A normalized pair can carry products in {0, -1} on
the A1 side; only the A0 side is guaranteed to stay 0/1.

All of it reads one integer product matrix per pair.  The families store
integer rows (see :mod:`bsp.family`), A over its denominator da and B
over db; :class:`_Products` sorts them and takes every product once, as a
column of P over da * db per member of B, checked to be 0 or 1.

- Scoring a candidate b_d splits A by its column and takes the affine
  dimensions of the two sides; the tied candidates are those with the
  largest score, and these dimensions are the ones the audit reports.
- Translating A by a* = min(A1) subtracts row a* of P, and b_d -> -b_d
  negates its column.  A0 and A1 trade places, and since a translation
  keeps affine dimensions, their scored dimensions trade with them.
- Flipping the sign of a member of B negates its column.  Neither step
  changes a denominator.
- The post-hoc checks of the normalization and the test of which side a
  doubled fiber is constant on read the normalized P.

Only the fibers and the ranks of B0 and B1 read the rows of B: the key
<b_d, b_d> b - <b, b_d> b_d is a fixed positive multiple of pi(b), so
fiber grouping and the no-opposite-points check stay exact.  Every a in
A0 is orthogonal to b_d, so <a, pi(b)> = <a, b>: the projection tau of
pi(b) onto span(A0) is fixed by the column of b at the rows of A0.

- :func:`audit_pair` counts.  Per tied b_d it normalizes, splits B into
  B*/B0/B1 as index lists and reads every claim's sizes off them and the
  normalized P.  |tau(pi(B))| is the number of distinct columns of P on
  the rows of A0, since x -> (<a, x>)_{a in A0} is injective on
  span(A0).  The only echelons per choice are the ranks of B0 and B1; no
  family, inverse or tau vector is built.
- :func:`decompose` builds what the audit only counts: the
  :class:`NormalizedPair`, the member families and the tau vectors, which
  one walk of :func:`linalg.greedy_inverse` on the Gram matrix of a basis
  of A0 gives without a solve per fiber.  :func:`audit` evaluates the
  same claims on the sizes of those families, so the tests hold the two
  paths against each other and against a Fraction reference.

Fractions are built only for the b_d handed back and for error messages.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import BspError, NormalizationFailedError
from .family import BspPair, VectorFamily
from .linalg import (
    Row,
    Vec,
    affine_dim,
    coords,
    greedy_inverse,
    independent_rows,
    int_dot,
    neg,
    rank,
    sub,
    vec_over,
)


class DecompositionError(BspError):
    pass


class CounterexampleFound(BspError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class NormalizedPair:
    dim: int
    family_a: VectorFamily
    family_b: VectorFamily
    bd: Row  # b_d over family_b.den
    translated: bool
    flipped: int  # number of sign-flipped B members

    @property
    def b_d(self) -> Vec:
        return vec_over(self.bd, self.family_b.den)

    def sizes(self) -> tuple[int, int]:
        return (len(self.family_a), len(self.family_b))


@dataclass(frozen=True)
class Decomposition:
    pair: NormalizedPair
    a0: VectorFamily
    a1: VectorFamily
    b_star: VectorFamily
    b0: VectorFamily
    b1: VectorFamily
    u0_dim: int  # affine dimension of A0, which contains 0
    a1_dim: int  # affine dimension of A1
    pi_b: VectorFamily  # projection of B along b_d
    tau_pi_b: VectorFamily  # further projection onto span(A0)
    max_fiber: int  # largest preimage count of a projected point

    @property
    def dim(self) -> int:
        return self.pair.dim

    @property
    def b_d(self) -> Vec:
        return self.pair.b_d


def _split(col: list[int], unit: int) -> tuple[list[int], list[int]]:
    """The rows of A whose product in a column of P is 0, and those whose
    product is 1."""
    a0, a1 = [], []
    for i, x in enumerate(col):
        if x == 0:
            a0.append(i)
        elif x == unit:
            a1.append(i)
        else:
            raise DecompositionError(
                f"product {Fraction(x, unit)} with the distinguished vector"
            )
    return a0, a1


class _Choice(NamedTuple):
    """A candidate b_d: its column of P, the rows of A on either side and
    their affine dimensions."""

    col: int
    a0: list[int]
    a1: list[int]
    dim0: int
    dim1: int


class _Normalized(NamedTuple):
    col: int  # the column of b_d
    a_rows: list[Row]  # over da
    b_rows: list[Row]  # over db, the column order of cols
    cols: list[list[int]]  # cols[j][i] = <a_i, b_j> over da * db
    a0: list[int]
    a1: list[int]
    dims: tuple[int, int]  # affine dimensions of A0 and A1
    const: list[tuple[bool, bool]]  # column j constant on A0, on A1
    fibers: dict[Row, list[int]]  # fiber key -> columns
    translated: bool
    flipped: int  # number of sign-flipped B members


class _Products:
    """The sorted integer rows of a pair and their product matrix P, built
    once and shared by every b_d of the pair."""

    def __init__(self, p: BspPair):
        self.dim = p.dim
        self.da, self.db = p.family_a.den, p.family_b.den
        self.unit = unit = self.da * self.db
        self.a_rows = sorted(p.family_a.rows)
        self.b_rows = sorted(p.family_b.rows)
        self.cols = [[int_dot(a, b) for a in self.a_rows] for b in self.b_rows]
        bad = next((x for col in self.cols for x in col if x and x != unit), None)
        if bad is not None:
            raise DecompositionError(f"product {Fraction(bad, unit)} of A and B")

    def choice(self, b_d) -> _Choice:
        """The candidate of a member b_d of B, given as a vector."""
        try:
            j = self.b_rows.index(tuple(c * self.db for c in coords(b_d)))
        except ValueError:
            raise DecompositionError("b_d is not a member of B") from None
        return self._scored(j)

    def _scored(self, j: int) -> _Choice:
        a0, a1 = _split(self.cols[j], self.unit)
        a = self.a_rows
        return _Choice(j, a0, a1, affine_dim([a[i] for i in a0]), affine_dim([a[i] for i in a1]))

    def tied(self) -> list[_Choice]:
        """The nonzero members of B attaining the maximal value of
        max(dim A0, dim A1), lexicographically largest first."""
        scored = [self._scored(j) for j, b in enumerate(self.b_rows) if any(b)]
        if not scored:
            raise DecompositionError("B has no nonzero member")
        best = max(max(c.dim0, c.dim1) for c in scored)
        return [c for c in reversed(scored) if max(c.dim0, c.dim1) == best]

    def b_d(self, c: _Choice) -> Vec:
        return vec_over(self.b_rows[c.col], self.db)

    def normalize(self, c: _Choice) -> _Normalized:
        """Translate and flip along the candidate, then check the result
        post hoc; a failed check raises NormalizationFailedError."""
        unit, k = self.unit, c.col
        a_rows, b_rows, cols = self.a_rows, list(self.b_rows), list(self.cols)
        _, a0, a1, dim0, dim1 = c
        if not a1:
            raise DecompositionError("b_d is orthogonal to A")
        if not a0:
            raise DecompositionError("b_d has product 1 with every member of A")
        translated = len(a0) < len(a1)
        if translated:
            s = a1[0]  # a* = min(A1), the rows being sorted
            a_rows = [sub(a, a_rows[s]) for a in a_rows]
            cols = [[x - col[s] for x in col] for col in cols]
            cols[k] = [-x for x in cols[k]]
            b_rows[k] = neg(b_rows[k])
            a0, a1, dim0, dim1 = a1, a0, dim1, dim0

        # products of A0 must land in {0, 1}; members orthogonal to A0 are
        # oriented by A1 translated by its least member.  Each column is
        # checked post hoc as soon as its sign is settled.
        s = a1[0]
        binary, negative = {0, unit}, {0, -unit}
        flipped = 0
        const = []
        for j, col in enumerate(cols):
            s0 = {col[i] for i in a0}
            s1 = {col[i] for i in a1}
            if s0 == negative or (s0 == {0} and {x - col[s] for x in s1} == negative):
                cols[j] = [-x for x in col]
                b_rows[j] = neg(b_rows[j])
                s0, s1 = {-x for x in s0}, {-x for x in s1}
                flipped += 1
            if not s0 <= binary:
                s0 = {Fraction(x, unit) for x in s0}
                raise NormalizationFailedError(f"A0 products {s0} not in 0/1")
            sa = s0 | s1
            if not (sa <= binary or sa <= negative):
                sa = {Fraction(x, unit) for x in sa}
                raise NormalizationFailedError(f"products {sa} not one-signed")
            const.append((len(s0) == 1, len(s1) == 1))
        if _split(cols[k], unit) != (a0, a1):  # raises if not 0/1
            raise NormalizationFailedError("the split along b_d moved")
        if len(a0) < len(a1):
            raise NormalizationFailedError("|A0| < |A1| after normalization")
        bd = b_rows[k]
        kb = int_dot(bd, bd)
        fibers: dict[Row, list[int]] = {}
        for j, b in enumerate(b_rows):
            # <bd, bd> b - <b, bd> bd, a positive multiple of pi(b)
            t = int_dot(b, bd)
            fibers.setdefault(tuple(kb * x - t * y for x, y in zip(b, bd)), []).append(j)
        for y in fibers:
            if any(y) and neg(y) in fibers:
                raise NormalizationFailedError("projection contains opposite points")
        return _Normalized(k, a_rows, b_rows, cols, a0, a1, (dim0, dim1), const, fibers,
                           translated, flipped)

    def pair(self, n: _Normalized) -> NormalizedPair:
        d = self.dim
        fam_b = VectorFamily.from_rows(d, self.db, n.b_rows)
        g = self.db // fam_b.den
        return NormalizedPair(d, VectorFamily.from_rows(d, self.da, n.a_rows), fam_b,
                              tuple(x // g for x in n.b_rows[n.col]), n.translated, n.flipped)

    def split_b(self, n: _Normalized) -> tuple[list[int], list[int], list[int]]:
        """The columns of B*, B0 and B1: the members alone in their fiber,
        and those of a doubled fiber by the side of A they are constant
        on."""
        b_star, b0, b1 = [], [], []
        for members in n.fibers.values():
            if len(members) == 1:
                b_star.append(members[0])
                continue
            for j in members:
                const0, const1 = n.const[j]
                if const0 and const1:
                    # preference: 0 and b_d live in B1, the rest goes to B0
                    (b1 if j == n.col or not any(n.b_rows[j]) else b0).append(j)
                elif const1:
                    b1.append(j)
                elif const0:
                    b0.append(j)
                else:
                    raise DecompositionError(
                        f"{vec_over(n.b_rows[j], self.db)} is constant on neither side; "
                        "is the pair maximal?"
                    )
        return b_star, b0, b1

    def decompose(self, c: _Choice) -> Decomposition:
        """Normalize along the candidate and split the pair."""
        n = self.normalize(c)
        d, da, db = self.dim, self.da, self.db
        b_rows = n.b_rows
        bd = b_rows[n.col]
        b_star, b0, b1 = ([b_rows[j] for j in part] for part in self.split_b(n))

        # tau(pi(b)) = (U b)^T phi U / (D db) for the rows U of a basis of
        # A0 over da, their (symmetric) Gram matrix G = U U^T and the walk
        # phi = D G^-1 of greedy_inverse(G); U b is the column of b at the
        # basis rows
        a0 = [n.a_rows[i] for i in n.a0]
        picked = [n.a0[i] for i in independent_rows(a0)]
        basis = [n.a_rows[i] for i in picked]
        _, den_g, phi = greedy_inverse([[int_dot(u, v) for v in basis] for u in basis])
        phi_u = [[int_dot(row, u) for row in phi] for u in zip(*basis)]  # by columns
        tau_pi_b = {
            tuple(int_dot(r, w) for w in phi_u) if basis else (0,) * d
            for r in {tuple(col[i] for i in picked) for col in n.cols}
        }
        return Decomposition(
            pair=self.pair(n),
            a0=VectorFamily.from_rows(d, da, a0),
            a1=VectorFamily.from_rows(d, da, (n.a_rows[i] for i in n.a1)),
            b_star=VectorFamily.from_rows(d, db, b_star),
            b0=VectorFamily.from_rows(d, db, b0),
            b1=VectorFamily.from_rows(d, db, b1),
            u0_dim=n.dims[0],
            a1_dim=n.dims[1],
            pi_b=VectorFamily.from_rows(d, int_dot(bd, bd) * db, n.fibers),
            tau_pi_b=VectorFamily.from_rows(d, den_g * db, tau_pi_b),
            max_fiber=max(len(v) for v in n.fibers.values()),
        )

    def audit(self, c: _Choice) -> AuditReport:
        """The claims of the decomposition along the candidate, counted
        on the normalized P and the index lists of its parts."""
        n = self.normalize(c)
        b_star, b0, b1 = self.split_b(n)
        on_a0 = itemgetter(*n.a0)
        return _report(
            self.dim, len(n.a_rows), len(n.b_rows), len(n.a0), len(n.a1),
            len(b_star), len(b0), len(b1), len(n.fibers), len({on_a0(col) for col in n.cols}),
            max(len(v) for v in n.fibers.values()), *n.dims,
            rank([n.b_rows[j] for j in b0]), rank([n.b_rows[j] for j in b1]),
        )


def tied_bd_choices(p: BspPair) -> list[Vec]:
    """All nonzero b in B attaining the maximal value of
    max(dim A0, dim A1), best (lexicographically largest) first."""
    core = _Products(p)
    return [core.b_d(c) for c in core.tied()]


def choose_bd(p: BspPair) -> Vec:
    """A dimension-maximizing b_d; ties broken by lexicographic order."""
    return tied_bd_choices(p)[0]


def normalize(p: BspPair, b_d: Vec) -> NormalizedPair:
    """Translate/flip the pair so that (i) products with b_d are 0/1 with
    |A0| >= |A1|, (ii) products of A0 with everything are 0/1, and
    (iii) the projection of B along b_d has no opposite points.

    Each property is asserted post hoc; a failure raises
    NormalizationFailedError (a bug, not a valid outcome).
    """
    core = _Products(p)
    return core.pair(core.normalize(core.choice(b_d)))


def decompose(p: BspPair, b_d: Vec | None = None) -> Decomposition:
    """Normalize and split a maximal pair along b_d (chosen by
    :func:`choose_bd` when not given)."""
    core = _Products(p)
    return core.decompose(core.tied()[0] if b_d is None else core.choice(b_d))


@dataclass(frozen=True)
class AuditItem:
    name: str
    lhs: int
    rhs: int
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass(frozen=True)
class AuditReport:
    items: tuple[AuditItem, ...]

    @property
    def all_pass(self) -> bool:
        return all(i.passed for i in self.items)

    def to_json(self) -> list[dict]:
        return [i.to_json() for i in self.items]


def _report(d: int, na: int, nb: int, na0: int, na1: int, nbs: int, nb0: int, nb1: int,
            npi: int, ntau: int, max_fiber: int, u0_dim: int, a1_dim: int,
            dim_b0: int, dim_b1: int) -> AuditReport:
    """Every counting claim of a decomposition, evaluated exactly, from the
    sizes of A, B, A0, A1, B*, B0, B1, pi(B) and tau(pi(B)), the largest
    fiber, the affine dimensions of A0 and A1 and the ranks of B0 and
    B1."""
    dim_a0, dim_a1 = max(u0_dim, 0), max(a1_dim, 0)

    def leq(name: str, lhs: int, rhs: int) -> AuditItem:
        return AuditItem(name, lhs, rhs, lhs <= rhs)

    items = [
        leq("claim2-max-preimages", max_fiber, 2),
        AuditItem("partition-identity", nb, 2 * npi - nbs, nb == 2 * npi - nbs),
        leq("inequality0", na * nb, 2 * na0 * npi + na1 * (nb0 + nb1)),
        leq("claim3-projection-count", npi, (1 << (d - 1 - u0_dim)) * ntau),
        leq("claim5-side0", na0 * nb0, 1 << d),
        leq("claim5-side1", na1 * nb1, 1 << d),
        leq("eq8-side1", na1 * nb1, 1 << d),
        leq("eq8-side0-strengthened", na0 * (nb0 + 2), 1 << d),
        leq("inequality1", na * nb, ((u0_dim + 1) << d) + na0 * nb0 + na1 * nb1),
        leq("size-bound-a0", na0, 1 << dim_a0),
        leq("size-bound-a1", na1, 1 << dim_a1),
        leq("size-bound-b0", nb0, 1 << dim_b0),
        leq("size-bound-b1", nb1, 1 << dim_b1),
        leq("dim-sum-side0", dim_a0 + dim_b0, d),
        leq("dim-sum-side1", dim_a1 + dim_b1, d),
    ]
    return AuditReport(tuple(items))


def audit(dec: Decomposition) -> AuditReport:
    """Evaluate every counting claim of the decomposition exactly."""
    return _report(
        dec.dim, len(dec.pair.family_a), len(dec.pair.family_b), len(dec.a0), len(dec.a1),
        len(dec.b_star), len(dec.b0), len(dec.b1), len(dec.pi_b), len(dec.tau_pi_b),
        dec.max_fiber, dec.u0_dim, dec.a1_dim, rank(dec.b0.rows), rank(dec.b1.rows),
    )


def audit_pair(p: BspPair, all_tied: bool = True) -> list[tuple[Vec, AuditReport]]:
    """Audit the claims for the chosen b_d, or every tied choice, from
    counts on the product matrix (see :meth:`_Products.audit`)."""
    core = _Products(p)
    choices = core.tied()
    if not all_tied:
        choices = choices[:1]
    return [(core.b_d(c), core.audit(c)) for c in choices]


# ---------------------------------------------------------------------------
# slice lemma oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemsliceReport:
    d: int
    mode: str
    checked: int
    tight: int  # sets attaining |X| = 2^dim exactly

    def to_json(self) -> dict:
        return {"d": self.d, "mode": self.mode, "checked": self.checked, "tight": self.tight}


def _lemslice_ground(d: int) -> list[tuple[int, ...]]:
    pts = set(itertools.product((0, 1), repeat=d))
    pts |= set(itertools.product((0, -1), repeat=d))
    return sorted(pts)


def check_lemslice(
    d: int, mode: str = "exhaustive", seed: int = 0, trials: int = 100_000
) -> LemsliceReport:
    """No opposite-point-free subset of {0,1}^d + {0,-1}^d can beat 2^dim.

    Exhaustive over all subsets for d <= 3 (4,374 opposite-free ones at
    d = 3); seeded random subsets otherwise.  A violation raises
    CounterexampleFound (the result is a theorem, so that signals a
    harness bug).
    """
    ground = _lemslice_ground(d)
    # each point with its opposite; zero has none that counts
    pairs = [(v, neg(v) if any(v) else None) for v in ground]
    checked = 0
    tight = 0

    def handle(x: list[Vec]) -> None:
        nonlocal checked, tight
        checked += 1
        bound = 1 << max(affine_dim(x), 0)
        if len(x) > bound:
            raise CounterexampleFound(f"slice lemma fails for {x}", x)
        if len(x) == bound:
            tight += 1

    if mode == "exhaustive":
        if d > 3:
            raise ValueError("exhaustive mode is limited to d <= 3")
        n = len(ground)
        for mask in range(1 << n):
            x = [ground[i] for i in range(n) if (mask >> i) & 1]
            xs = set(x)
            if any(o in xs for v, o in pairs if v in xs):
                continue
            handle(x)
    elif mode == "random":
        rng = random.Random(seed)
        for _ in range(trials):
            x = []
            xs = set()
            for v, o in pairs:
                if rng.getrandbits(1):
                    if o in xs:
                        continue
                    x.append(v)
                    xs.add(v)
            handle(x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LemsliceReport(d, mode, checked, tight)
