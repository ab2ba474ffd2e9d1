"""Projection decomposition of maximal pairs.

Given a maximal pair and a distinguished vector b_d of B, the family A
splits by the product with b_d into A0 and A1, B splits by the fiber
structure of the projection along b_d (B* = lonely fibers, B0/B1 = the
doubled fibers, classified by which side they are constant against), and
a list of exact counting inequalities ties all the pieces together.  The
audit evaluates every one of them on concrete pairs.

The normalization step mirrors the constructive argument establishing it:
translate A when the zero side is the smaller one, then flip the signs of
offending B members.  A normalized pair can carry products in {0, -1} on
the A1 side; only the A0 side is guaranteed to stay 0/1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BspError, NormalizationFailedError
from .family import BspPair, VectorFamily
from .linalg import (
    Vec,
    affine_dim,
    dot,
    neg,
    project_onto_span,
    rank,
    scale,
    sub,
    vec,
    zero_vec,
)


class DecompositionError(BspError):
    pass


class CounterexampleFound(BspError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def _split_by_bd(a_vectors, b_d: Vec):
    a0, a1 = [], []
    for a in a_vectors:
        p = dot(a, b_d)
        if p == 0:
            a0.append(a)
        elif p == 1:
            a1.append(a)
        else:
            raise DecompositionError(f"product {p} with the distinguished vector")
    return a0, a1


def _bd_value(p: BspPair, b: Vec) -> int:
    a0, a1 = _split_by_bd(p.family_a.vectors, b)
    return max(affine_dim(a0), affine_dim(a1))


def tied_bd_choices(p: BspPair) -> list[Vec]:
    """All nonzero b in B attaining the maximal value of
    max(dim A0, dim A1), best (lexicographically largest) first."""
    candidates = [b for b in p.family_b.sorted() if b != zero_vec(p.dim)]
    scored = [(_bd_value(p, b), b) for b in candidates]
    best = max(v for v, _ in scored)
    return [b for v, b in sorted(scored, reverse=True) if v == best]


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


def _project_along(x: Vec, b_d: Vec) -> Vec:
    # orthogonal projection onto the hyperplane b_d-perp
    coeff = dot(x, b_d) / dot(b_d, b_d)
    return sub(x, scale(b_d, coeff))


def normalize(p: BspPair, b_d: Vec) -> NormalizedPair:
    """Translate/flip the pair so that (i) products with b_d are 0/1 with
    |A0| >= |A1|, (ii) products of A0 with everything are 0/1, and
    (iii) the projection of B along b_d has no opposite points.

    Each property is asserted post hoc; a failure raises
    NormalizationFailedError (a bug, not a valid outcome).
    """
    b_d = vec(b_d)
    if b_d not in p.family_b.vectors:
        raise DecompositionError("b_d is not a member of B")
    d = p.dim
    a_set = set(p.family_a.vectors)
    b_set = set(p.family_b.vectors)

    a0, a1 = _split_by_bd(a_set, b_d)
    translated = False
    if len(a0) < len(a1):
        a_star = min(a1)
        a_set = {sub(a, a_star) for a in a_set}
        b_set.discard(b_d)
        b_d = neg(b_d)
        b_set.add(b_d)
        translated = True
        a0, a1 = _split_by_bd(a_set, b_d)

    def flip_where(predicate) -> int:
        nonlocal b_set
        flips = 0
        new_b = set()
        for b in b_set:
            if predicate(b):
                new_b.add(neg(b))
                flips += 1
            else:
                new_b.add(b)
        b_set = new_b
        return flips

    # products of A0 must land in {0, 1}
    flipped = flip_where(lambda b: {dot(a, b) for a in a0} == {0, -1})
    # members orthogonal to A0: orient by the translated A1 side
    a_star1 = min(a1)
    a1p = [sub(a, a_star1) for a in a1]
    flipped += flip_where(
        lambda b: {dot(a, b) for a in a0} == {0}
        and {dot(a, b) for a in a1p} == {0, -1}
    )

    out = NormalizedPair(
        d,
        VectorFamily.of(d, a_set),
        VectorFamily.of(d, b_set),
        b_d,
        translated,
        flipped,
    )
    _assert_normalized(out)
    return out


def _assert_normalized(n: NormalizedPair) -> None:
    a0, a1 = _split_by_bd(n.family_a.vectors, n.b_d)  # raises if not 0/1
    if len(a0) < len(a1):
        raise NormalizationFailedError("|A0| < |A1| after normalization")
    for b in n.family_b.vectors:
        s0 = {dot(a, b) for a in a0}
        if not s0 <= {0, 1}:
            raise NormalizationFailedError(f"A0 products {s0} not in 0/1")
        sa = {dot(a, b) for a in n.family_a.vectors}
        if not (sa <= {0, 1} or sa <= {0, -1}):
            raise NormalizationFailedError(f"products {sa} not one-signed")
    projected = [_project_along(b, n.b_d) for b in n.family_b.sorted()]
    pset = set(projected)
    for y in pset:
        if y != zero_vec(n.dim) and neg(y) in pset:
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
    n = normalize(p, b_d)
    d = n.dim
    a0, a1 = _split_by_bd(n.family_a.vectors, n.b_d)

    fibers: dict[Vec, list[Vec]] = {}
    for b in n.family_b.sorted():
        fibers.setdefault(_project_along(b, n.b_d), []).append(b)
    max_fiber = max(len(v) for v in fibers.values())
    b_star = [v[0] for v in fibers.values() if len(v) == 1]
    rest = [b for v in fibers.values() if len(v) > 1 for b in v]

    zero = zero_vec(d)
    b0, b1 = [], []
    for b in rest:
        const0 = len({dot(a, b) for a in a0}) == 1
        const1 = len({dot(a, b) for a in a1}) == 1
        if const0 and const1:
            # preference: 0 and b_d live in B1, the rest goes to B0
            (b1 if b in (zero, n.b_d) else b0).append(b)
        elif const1:
            b1.append(b)
        elif const0:
            b0.append(b)
        else:
            raise DecompositionError(
                f"{b} is constant on neither side; is the pair maximal?"
            )

    u0_dim = affine_dim(a0)  # A0 contains 0, so affine = linear span dim
    pi_b = sorted(fibers.keys())
    tau_pi_b = {project_onto_span(y, a0) for y in pi_b}
    return Decomposition(
        pair=n,
        b_d=n.b_d,
        a0=VectorFamily.of(d, a0),
        a1=VectorFamily.of(d, a1),
        b_star=VectorFamily.of(d, b_star),
        b0=VectorFamily.of(d, b0),
        b1=VectorFamily.of(d, b1),
        u0_dim=u0_dim,
        pi_b=VectorFamily.of(d, pi_b),
        tau_pi_b=VectorFamily.of(d, tau_pi_b),
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
    dim_a0 = affine_dim(dec.a0.sorted())
    dim_a1 = affine_dim(dec.a1.sorted())
    dim_b0 = rank(dec.b0.sorted())
    dim_b1 = rank(dec.b1.sorted())

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


def _check_x(x: list[Vec], d: int) -> bool:
    """|X| <= 2^dim(X) for an opposite-point-free X."""
    if not x:
        return True
    dim = affine_dim(x)
    return len(x) <= (1 << max(dim, 0))


def check_lemslice(
    d: int, mode: str = "exhaustive", seed: int = 0, trials: int = 100_000
) -> LemsliceReport:
    """No opposite-point-free subset of {0,1}^d + {0,-1}^d can beat 2^dim.

    Exhaustive over all subsets for d <= 2; seeded random subsets
    otherwise.  A violation raises CounterexampleFound (the result is a
    theorem, so that signals a harness bug).
    """
    ground = _lemslice_ground(d)
    zero = (0,) * d
    checked = 0
    tight = 0

    def handle(x: list[Vec]) -> None:
        nonlocal checked, tight
        checked += 1
        if not _check_x(x, d):
            raise CounterexampleFound(f"slice lemma fails for {x}", x)
        if x and len(x) == (1 << max(affine_dim(x), 0)):
            tight += 1

    if mode == "exhaustive":
        if d > 2:
            raise ValueError("exhaustive mode is limited to d <= 2")
        n = len(ground)
        for mask in range(1 << n):
            x = [ground[i] for i in range(n) if (mask >> i) & 1]
            xs = set(x)
            if any(v != zero and neg(v) in xs for v in x):
                continue
            handle(x)
    elif mode == "random":
        rng = random.Random(seed)
        for _ in range(trials):
            x = []
            xs = set()
            for v in ground:
                if rng.getrandbits(1):
                    if v != zero and neg(v) in xs:
                        continue
                    x.append(v)
                    xs.add(v)
            handle(x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return LemsliceReport(d, mode, checked, tight)
