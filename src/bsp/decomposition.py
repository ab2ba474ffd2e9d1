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

All of it runs on the integer rows the families store (see
:mod:`bsp.family`), A over its denominator da and B over db.
Translating A keeps its scale, and so does flipping the sign of a B
member.  The fiber key <b_d, b_d> b - <b, b_d> b_d is a fixed positive
multiple of pi(b), so fiber grouping and the no-opposite-points check
stay exact.  Every a in
A0 is orthogonal to b_d, so <a, pi(b)> = <a, b>: the projection tau of
pi(b) onto span(A0) depends only on the products of b with a basis of A0,
and one integer adjugate and determinant of that basis' Gram matrix per
decomposition give it without a solve per fiber.  Fractions are built
only for b_d and error messages.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BspError, NormalizationFailedError
from .family import BspPair, VectorFamily
from .linalg import (
    Row,
    Vec,
    affine_dim,
    det_adjugate,
    independent_rows,
    int_dot,
    neg,
    rank,
    vec,
    vec_over,
)


class DecompositionError(BspError):
    pass


class CounterexampleFound(BspError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _split_by_bd(a_rows: list[Row], bd: Row, unit: int) -> tuple[list[Row], list[Row]]:
    a0, a1 = [], []
    for a in a_rows:
        p = int_dot(a, bd)
        if p == 0:
            a0.append(a)
        elif p == unit:
            a1.append(a)
        else:
            raise DecompositionError(
                f"product {Fraction(p, unit)} with the distinguished vector"
            )
    return a0, a1


def _fiber_key(b: Row, bd: Row, kb: int) -> Row:
    # <bd, bd> b - <b, bd> bd, with kb = <bd, bd> > 0
    c = int_dot(b, bd)
    return tuple(kb * x - c * y for x, y in zip(b, bd))


def tied_bd_choices(p: BspPair) -> list[Vec]:
    """All nonzero b in B attaining the maximal value of
    max(dim A0, dim A1), best (lexicographically largest) first."""
    a_rows, db = list(p.family_a.rows), p.family_b.den
    scored = []
    for b in sorted(p.family_b.rows):
        if any(b):
            a0, a1 = _split_by_bd(a_rows, b, p.family_a.den * db)
            scored.append((max(affine_dim(a0), affine_dim(a1)), b))
    best = max(v for v, _ in scored)
    return [vec_over(b, db) for v, b in sorted(scored, reverse=True) if v == best]


def choose_bd(p: BspPair) -> Vec:
    """A dimension-maximizing b_d; ties broken by lexicographic order."""
    return tied_bd_choices(p)[0]


@dataclass(frozen=True)
class NormalizedPair:
    dim: int
    family_a: VectorFamily
    family_b: VectorFamily
    b_d: Vec
    translated: bool
    flipped: int  # number of sign-flipped B members

    def sizes(self) -> tuple[int, int]:
        return (len(self.family_a), len(self.family_b))


def normalize(p: BspPair, b_d: Vec) -> NormalizedPair:
    """Translate/flip the pair so that (i) products with b_d are 0/1 with
    |A0| >= |A1|, (ii) products of A0 with everything are 0/1, and
    (iii) the projection of B along b_d has no opposite points.

    Each property is asserted post hoc; a failure raises
    NormalizationFailedError (a bug, not a valid outcome).
    """
    return _normalize(p, b_d)[0]


def _normalize(p: BspPair, b_d: Vec):
    """:func:`normalize`, the integer rows of its A over da and of its B
    (sorted) over db, b_d over db, da and db."""
    if b_d not in p.family_b:
        raise DecompositionError("b_d is not a member of B")
    d = p.dim
    da, db = p.family_a.den, p.family_b.den
    a_rows = list(p.family_a.rows)
    bd = tuple(int(c * db) for c in vec(b_d))
    unit = da * db
    b_set = set(p.family_b.rows)

    a0, a1 = _split_by_bd(a_rows, bd, unit)
    translated = False
    if len(a0) < len(a1):
        a_star = min(a1)
        a_rows = [tuple(x - y for x, y in zip(a, a_star)) for a in a_rows]
        b_set.discard(bd)
        bd = neg(bd)
        b_set.add(bd)
        translated = True
        a0, a1 = _split_by_bd(a_rows, bd, unit)

    # products of A0 must land in {0, 1}; members orthogonal to A0 are
    # oriented by the translated A1 side
    a_star1 = min(a1)
    a1p = [tuple(x - y for x, y in zip(a, a_star1)) for a in a1]
    flipped = 0
    new_b = set()
    for b in b_set:
        s0 = {int_dot(a, b) for a in a0}
        if s0 == {0, -unit} or (s0 == {0} and {int_dot(a, b) for a in a1p} == {0, -unit}):
            b = neg(b)
            flipped += 1
        new_b.add(b)
    b_rows = sorted(new_b)

    _assert_normalized(a_rows, b_rows, bd, unit)
    n = NormalizedPair(d, VectorFamily.from_rows(d, da, a_rows),
                       VectorFamily.from_rows(d, db, b_rows),
                       vec_over(bd, db), translated, flipped)
    return n, a_rows, b_rows, bd, da, db


def _assert_normalized(a_rows: list[Row], b_rows: list[Row], bd: Row, unit: int) -> None:
    a0, a1 = _split_by_bd(a_rows, bd, unit)  # raises if not 0/1
    if len(a0) < len(a1):
        raise NormalizationFailedError("|A0| < |A1| after normalization")
    for b in b_rows:
        s0 = {int_dot(a, b) for a in a0}
        if not s0 <= {0, unit}:
            s0 = {Fraction(x, unit) for x in s0}
            raise NormalizationFailedError(f"A0 products {s0} not in 0/1")
        sa = s0 | {int_dot(a, b) for a in a1}
        if not (sa <= {0, unit} or sa <= {0, -unit}):
            sa = {Fraction(x, unit) for x in sa}
            raise NormalizationFailedError(f"products {sa} not one-signed")
    kb = int_dot(bd, bd)
    keys = {_fiber_key(b, bd, kb) for b in b_rows}
    for y in keys:
        if any(y) and neg(y) in keys:
            raise NormalizationFailedError("projection contains opposite points")


@dataclass(frozen=True)
class Decomposition:
    pair: NormalizedPair
    b_d: Vec
    a0: VectorFamily
    a1: VectorFamily
    b_star: VectorFamily
    b0: VectorFamily
    b1: VectorFamily
    u0_dim: int
    pi_b: VectorFamily  # projection of B along b_d
    tau_pi_b: VectorFamily  # further projection onto span(A0)
    max_fiber: int  # largest preimage count of a projected point

    @property
    def dim(self) -> int:
        return self.pair.dim


def decompose(p: BspPair, b_d: Vec | None = None) -> Decomposition:
    """Normalize and split a maximal pair along b_d (chosen by
    :func:`choose_bd` when not given)."""
    if b_d is None:
        b_d = choose_bd(p)
    n, a_rows, b_rows, bd, da, db = _normalize(p, b_d)
    d = n.dim
    a0, a1 = _split_by_bd(a_rows, bd, da * db)

    kb = int_dot(bd, bd)
    fibers: dict[Row, list[Row]] = {}
    for b in b_rows:
        fibers.setdefault(_fiber_key(b, bd, kb), []).append(b)
    max_fiber = max(len(v) for v in fibers.values())
    b_star = [v[0] for v in fibers.values() if len(v) == 1]
    rest = [b for v in fibers.values() if len(v) > 1 for b in v]

    zero = (0,) * d
    b0, b1 = [], []
    for b in rest:
        const0 = len({int_dot(a, b) for a in a0}) == 1
        const1 = len({int_dot(a, b) for a in a1}) == 1
        if const0 and const1:
            # preference: 0 and b_d live in B1, the rest goes to B0
            (b1 if b == zero or b == bd else b0).append(b)
        elif const1:
            b1.append(b)
        elif const0:
            b0.append(b)
        else:
            raise DecompositionError(
                f"{vec_over(b, db)} is constant on neither side; is the pair maximal?"
            )

    # tau(pi(b)) = U^T adj(G) U b / (det(G) db) for the rows U of a basis
    # of A0 over da and their Gram matrix G = U U^T
    basis = [a0[i] for i in independent_rows(a0)]
    det_g, adj = det_adjugate([[int_dot(u, v) for v in basis] for u in basis])
    tau_pi_b = []
    for r in {tuple(int_dot(u, b) for u in basis) for b in b_rows}:
        s = [int_dot(row, r) for row in adj]
        tau_pi_b.append(tuple(int_dot(s, col) for col in zip(*basis)) if basis else zero)
    return Decomposition(
        pair=n,
        b_d=n.b_d,
        a0=VectorFamily.from_rows(d, da, a0),
        a1=VectorFamily.from_rows(d, da, a1),
        b_star=VectorFamily.from_rows(d, db, b_star),
        b0=VectorFamily.from_rows(d, db, b0),
        b1=VectorFamily.from_rows(d, db, b1),
        u0_dim=affine_dim(a0),  # A0 contains 0, so affine = linear span dim
        pi_b=VectorFamily.from_rows(d, kb * db, fibers),
        tau_pi_b=VectorFamily.from_rows(d, det_g * db, tau_pi_b),
        max_fiber=max_fiber,
    )


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


def audit(dec: Decomposition) -> AuditReport:
    """Evaluate every counting claim of the decomposition exactly."""
    d = dec.dim
    na = len(dec.pair.family_a)
    nb = len(dec.pair.family_b)
    na0, na1 = len(dec.a0), len(dec.a1)
    nb0, nb1, nbs = len(dec.b0), len(dec.b1), len(dec.b_star)
    npi = len(dec.pi_b)
    ntau = len(dec.tau_pi_b)
    dim_a0 = affine_dim(list(dec.a0.rows))
    dim_a1 = affine_dim(list(dec.a1.rows))
    dim_b0 = rank(dec.b0.rows)
    dim_b1 = rank(dec.b1.rows)

    def leq(name: str, lhs: int, rhs: int) -> AuditItem:
        return AuditItem(name, lhs, rhs, lhs <= rhs)

    items = [
        leq("claim2-max-preimages", dec.max_fiber, 2),
        AuditItem("partition-identity", nb, 2 * npi - nbs, nb == 2 * npi - nbs),
        leq("inequality0", na * nb, 2 * na0 * npi + na1 * (nb0 + nb1)),
        leq("claim3-projection-count", npi, (1 << (d - 1 - dec.u0_dim)) * ntau),
        leq("claim5-side0", na0 * nb0, 1 << d),
        leq("claim5-side1", na1 * nb1, 1 << d),
        leq("eq8-side1", na1 * nb1, 1 << d),
        leq("eq8-side0-strengthened", na0 * (nb0 + 2), 1 << d),
        leq(
            "inequality1",
            na * nb,
            ((dec.u0_dim + 1) << d) + na0 * nb0 + na1 * nb1,
        ),
        leq("size-bound-a0", na0, 1 << max(dim_a0, 0)),
        leq("size-bound-a1", na1, 1 << max(dim_a1, 0)),
        leq("size-bound-b0", nb0, 1 << dim_b0),
        leq("size-bound-b1", nb1, 1 << dim_b1),
        leq("dim-sum-side0", max(dim_a0, 0) + dim_b0, d),
        leq("dim-sum-side1", max(dim_a1, 0) + dim_b1, d),
    ]
    return AuditReport(tuple(items))


def audit_pair(p: BspPair, all_tied: bool = True) -> list[tuple[Vec, AuditReport]]:
    """Decompose and audit for the chosen b_d, or every tied choice."""
    choices = tied_bd_choices(p) if all_tied else [choose_bd(p)]
    return [(b, audit(decompose(p, b))) for b in choices]


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

    Exhaustive over all subsets for d <= 2; seeded random subsets
    otherwise.  A violation raises CounterexampleFound (the result is a
    theorem, so that signals a harness bug).
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
        if d > 2:
            raise ValueError("exhaustive mode is limited to d <= 2")
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
