"""The four benchmark workloads: seeded inputs, ops and output checks.

Every op calls public ``bsp`` functions through their module attributes,
so the tracer's wrappers see the calls.  ``check`` returns True only for a
correct output; the run loop counts anything else, or an exception, as a
failed op.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bsp import bounds, canon, constructions, decomposition, enumeration, kernel, lemmas
from bsp import polytope
from bsp.family import ProductMatrix, pair_from_product_matrix

DATA = Path(__file__).resolve().parent / "data"

# sha256 of enumerate_catalog(4).to_jsonl(), equal to the committed
# data/catalog_d4.jsonl
CATALOG_D4_SHA256 = "5f02d0532beacc4f0df0c6341460a2d5d29e5bcdd896787e8f81ad5247a4696b"
# maximal (|A|, |B|) pairs in dimension 4, as published
D4_MAXIMAL = {(5, 16), (6, 12), (7, 10), (8, 9), (9, 8), (10, 7), (12, 6), (16, 5)}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    workers: int = 1


class Workload:
    """Inputs are built in ``__init__`` (timed as set-up); ``prepare``
    computes the expected outputs the checks need (untimed)."""

    name = ""

    def first_op(self) -> Op:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def pass_ops(self, rng: random.Random, traced: bool) -> list[Op]:
        """One pass over the inputs, in a seeded order."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# enumerate-d4
# ---------------------------------------------------------------------------


def check_catalog_d4(cat) -> bool:
    data = cat.to_jsonl().encode("ascii")
    return (
        hashlib.sha256(data).hexdigest() == CATALOG_D4_SHA256
        and len(cat) == 16
        and set(enumeration.stats(cat).maximal_pairs) == D4_MAXIMAL
    )


class EnumerateD4(Workload):
    """The full d=4 catalog job, with 1 and with 2 workers.  Both outputs
    must hash to the recorded sha256, so they are byte-identical."""

    name = "enumerate-d4"

    def __init__(self, seed: int):
        pass  # the seed only orders the ops

    def _op(self, workers: int) -> Op:
        return Op(
            f"enumerate_catalog(4, workers={workers})",
            lambda: enumeration.enumerate_catalog(4, workers=workers),
            check_catalog_d4,
            workers,
        )

    def first_op(self) -> Op:
        return self._op(1)

    def pass_ops(self, rng, traced):
        if traced:  # spans are recorded in this process only
            return [self._op(1)]
        ops = [self._op(1), self._op(2)]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# classify-d5
# ---------------------------------------------------------------------------

D5_FULL_CUBE = (1 << 32) - 2  # every nonzero point of {0,1}^5


def product_matrix_of(d: int, closed: int) -> ProductMatrix:
    rows, n = kernel.pair_rows(d, closed)
    bits = tuple(format(r, f"0{n}b") for r in rows)
    return ProductMatrix(len(rows), n, bits, d)


def permuted(mat: ProductMatrix, rng: random.Random, transpose: bool) -> ProductMatrix:
    rp = list(range(mat.m))
    cp = list(range(mat.n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    bits = tuple("".join(mat.bits[i][j] for j in cp) for i in rp)
    out = ProductMatrix(mat.m, mat.n, bits, mat.rank_d)
    return out.transposed() if transpose else out


def lectic_draws(d: int, count: int, rng: random.Random) -> list[int]:
    """Spanning closed sets, each the Next-Closure successor of a random
    set, so classes turn up about as often as the lectic search meets
    them.  (The closure of a uniform random set is the whole cube in about
    three draws of four.)  Bit 0 is the zero point, which is never stored."""
    out = []
    while len(out) < count:
        a = kernel.next_closed(d, rng.getrandbits((1 << d) - 1) << 1)
        if a > 0 and kernel.closure_and_rank(d, a)[1] == d:
            out.append(a)
    return out


def load_lectic_d5() -> list[int]:
    lines = (DATA / "lectic_d5.txt").read_text("ascii").splitlines()
    return [int(x) for x in lines if x and not x.startswith("#")]


class ClassifyD5(Workload):
    """Exact canonical keys of d=5 product matrices.

    The originals are the same in every run: 1,000 lectic draws recorded
    in data/lectic_d5.txt, so that the mix of classes, and with it the
    tail, does not move with the seed.  The seed permutes rows and columns
    of two copies of each, one of them transposed; a copy must get its
    original's key.
    """

    name = "classify-d5"
    COPIES = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.originals = [product_matrix_of(5, a) for a in load_lectic_d5()]
        self.copies = [
            (i, permuted(mat, rng, transpose=c % 2 == 1))
            for i, mat in enumerate(self.originals)
            for c in range(self.COPIES)
        ]
        # the first op is the same in every run: the cube pair, whose key
        # costs 1.4 to 4 ms depending on the row and column order
        self.first_input = product_matrix_of(5, D5_FULL_CUBE)
        self.keys: dict[int, bytes] = {}
        self.sizes: set[tuple[int, int]] = set()

    def prepare(self):
        self.sizes = set(enumeration.figure1_reference())

    def key(self, i: int) -> bytes:
        """The original's key, computed when a check first needs it."""
        if i not in self.keys:
            mat = self.first_input if i < 0 else self.originals[i]
            self.keys[i] = canon.canonical_key(mat, include_transpose=True)
        return self.keys[i]

    def _op(self, label: str, mat: ProductMatrix, i: int) -> Op:
        return Op(
            f"canonical_key {label} {mat.m}x{mat.n}",
            lambda: canon.canonical_key(mat, include_transpose=True),
            lambda key: key == self.key(i) and (mat.m, mat.n) in self.sizes,
        )

    def first_op(self):
        return self._op("cube pair", permuted(self.first_input, random.Random(0), True), -1)

    def pass_ops(self, rng, traced):
        ops = [self._op(f"copy {j} of {i}", mat, i) for j, (i, mat) in enumerate(self.copies)]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def unit(d: int, i: int, s: int = 1) -> tuple[int, ...]:
    return tuple(s if j == i else 0 for j in range(d))


def kind_vertices(kind: str, d: int) -> list[tuple[int, ...]]:
    """Integer vertices of the shipped constructions, written out here so
    the inputs do not come from the code under test."""
    if kind == "cube":
        return list(itertools.product((0, 1), repeat=d))
    if kind == "cross":
        return [unit(d, i, s) for i in range(d) for s in (1, -1)]
    if kind == "simplex":
        return [(0,) * d] + [unit(d, i) for i in range(d)]
    if kind == "prism":
        base = [(0,) * (d - 1)] + [unit(d - 1, i) for i in range(d - 1)]
        return [b + (t,) for b in base for t in (0, 1)]
    if kind == "suspension-cube":
        out = [s + (0,) for s in itertools.product((-1, 1), repeat=d - 1)]
        return out + [unit(d, d - 1), unit(d, d - 1, -1)]
    if kind == "cross-x-segment":
        return [
            tuple(si * (j == i) + sd * (j == d - 1) for j in range(d))
            for i in range(d - 1) for si in (-1, 1) for sd in (-1, 1)
        ]
    raise ValueError(kind)


def transformed(verts, rng: random.Random) -> list[list[str]]:
    """A seeded unimodular image: permute coordinates, flip signs,
    translate by a vector in {-1,0,1}^d.  The face lattice, slack matrix
    and 2-levelness are unchanged."""
    d = len(verts[0])
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    shift = [rng.randint(-1, 1) for _ in range(d)]
    out = [[str(signs[j] * v[perm[j]] + shift[j]) for j in range(d)] for v in verts]
    rng.shuffle(out)
    return out


# detect_special verdicts that differ from the kind's name at d=3
SPECIAL_D3 = {"suspension-cube": "cross", "cross-x-segment": "cube"}


def expected_special(kind: str, d: int) -> str:
    if d == 3 and kind in SPECIAL_D3:
        return SPECIAL_D3[kind]
    return kind if kind in ("cube", "cross") else "neither"


class Polytopes(Workload):
    """What ``bsp polytope check`` runs, on each construction kind at
    d=3..5, given as a unimodular image of its vertices.

    The image is the same in every run (drawn from seed 0); the run's seed
    only orders the ops.  The scan's cost moves with the vertex order a
    transform produces, by up to 15% for one polytope, which a per-seed
    transform would add to the spread between runs.

    The cube at d=5 is left out: its brute-force scan of C(32,5) = 201,376
    vertex subsets takes about 19 s, longer than a run, so it could not be
    repeated to filter the machine's drift.  The d=5 suspension-cube
    (8,568 subsets) and cross-x-segment (4,368) carry the same scan.
    """

    name = "polytopes"
    DIMS = (3, 4, 5)
    SKIP = {("cube", 5)}

    def __init__(self, seed: int):
        rng = random.Random(0)
        self.inputs = [
            (kind, d, {"d": d, "vertices": transformed(kind_vertices(kind, d), rng)})
            for d in self.DIMS for kind in polytope.POLYTOPE_KINDS
            if (kind, d) not in self.SKIP
        ]
        self.expected: dict[tuple[str, int], tuple] = {}

    def prepare(self):
        for kind, d, _ in self.inputs:
            ref = polytope.reference_slack(kind, d)
            self.expected[(kind, d)] = (
                polytope.expected_f_vector_ends(kind, d),
                canon.canonical_key(ref),
                polytope.slack_pair_sizes(ref),
                expected_special(kind, d),
            )

    @staticmethod
    def check_cli(obj: dict):
        """The body of ``bsp polytope check`` for one file."""
        poly = polytope.Polytope2L.from_json(obj)
        if not poly.two_level:
            return poly, None
        t1 = polytope.check_thm1(poly)
        t2 = polytope.check_thm2(poly)
        pair = polytope.extract_pair(poly)
        return poly, (t1, t2, pair.sizes(), polytope.detect_special(poly))

    def _op(self, kind: str, d: int, obj: dict) -> Op:
        def check(out) -> bool:
            poly, verdict = out
            if verdict is None:
                return False
            t1, t2, sizes, special = verdict
            f_ends, slack_key, pair_sizes, want_special = self.expected[(kind, d)]
            return (
                poly.f_vector_ends() == f_ends
                and canon.canonical_key(poly.slack_matrix()) == slack_key
                and t1.passed and t2.passed
                and sizes == pair_sizes
                and special == want_special
            )

        return Op(f"polytope check {kind} d={d}", lambda: self.check_cli(obj), check)

    def first_op(self):
        # the same in every run, untransformed: the scan's cost moves with
        # the coordinates a transform produces
        verts = [[str(c) for c in v] for v in kind_vertices("suspension-cube", 5)]
        return self._op("suspension-cube", 5, {"d": 5, "vertices": verts})

    def pass_ops(self, rng, traced):
        ops = [self._op(*x) for x in self.inputs]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# verify-d4
# ---------------------------------------------------------------------------

# tied b_d choices audit_pair reports per d=4 class, in the catalog
# orientation and transposed; invariant under the choice of realization
AUDITS_D4 = {
    "352c31363a000000ff0f0f33335555": (5, 4),
    "362c31303a00000f1c4b756d92": (9, 5),
    "362c31323a00000f0f00ff333555": (6, 5),
    "362c31323a00003f0cf3333c3555": (6, 5),
    "372c31303a00000c3c0fccc33d55": (6, 6),
    "372c31303a00003c33330f03fd55": (9, 6),
    "372c31303a00007c2f34ce355565": (6, 6),
    "372c31303a00007c672ad55665e1": (9, 6),
    "372c393a0000e19311ed50af": (8, 6),
    "372c393a0000e1b329e550af": (8, 6),
    "372c393a0000e381f96d5ac9": (8, 6),
    "382c383a00030c0f313d5457": (7, 7),
    "382c383a00030d323c3f5457": (7, 7),
    "382c383a00031c1f2d566467": (7, 7),
    "382c393a000043c1f3319d54ab": (5, 7),
    "382c393a0003c665555331e0ff": (8, 7),
}
LEMMA1_CHECKED = {3: 2, 4: 13, 5: 73, 6: 386, 7: 1924, 8: 21, 9: 28, 10: 36}
LEMMA2_CHECKED = {2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
LEMSLICE_TRIALS = 200
EXAMPLE_DIMS = (3, 4, 5)


def load_catalog_d4():
    text = (DATA / "catalog_d4.jsonl").read_text("ascii")
    if hashlib.sha256(text.encode("ascii")).hexdigest() != CATALOG_D4_SHA256:
        raise ValueError("data/catalog_d4.jsonl does not match its recorded sha256")
    return enumeration.Catalog.from_jsonl(text)


class VerifyD4(Workload):
    """The exact-rational audits and oracles: decomposition audits of
    every d=4 class in both orientations, the explicit constructions with
    their bound checks, and the lemma oracles."""

    name = "verify-d4"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cat = load_catalog_d4()
        self.pairs = []  # (key hex, orientation, pair)
        for cls in cat.classes:
            pair = pair_from_product_matrix(permuted(cls.matrix, rng, False), 4)
            self.pairs.append((cls.key_hex(), 0, pair))
            self.pairs.append((cls.key_hex(), 1, pair.transposed()))
        self.lemslice_seeds = {d: rng.getrandbits(32) for d in (3, 4, 5)}

    def _audit(self, key: str, orient: int, pair) -> Op:
        def check(results) -> bool:
            return (len(results) == AUDITS_D4[key][orient]
                    and all(rep.all_pass for _, rep in results))

        return Op(f"audit_pair {key} {'AB'[orient]}",
                  lambda: decomposition.audit_pair(pair, all_tied=True), check)

    @staticmethod
    def _example(kind: str, d: int, k: int | None) -> Op:
        def run():
            p = constructions.construct_example(kind, d, k=k)
            p.validate()
            return (p.sizes(), bounds.check_thm3(p), bounds.check_thm4(p),
                    bounds.check_thm6_equality(p))

        def check(out) -> bool:
            sizes, t3, t4, eq = out
            return (sizes == constructions.expected_sizes(kind, d, k=k)
                    and t3.passed and t4.passed
                    and eq.is_equality_case == t4.equality)

        return Op(f"construct_example {kind} d={d} k={k}", run, check)

    def _lemslice(self, d: int) -> Op:
        seed = self.lemslice_seeds[d]
        return Op(
            f"check_lemslice d={d}",
            lambda: decomposition.check_lemslice(d, mode="random", seed=seed,
                                                 trials=LEMSLICE_TRIALS),
            lambda rep: rep.checked == LEMSLICE_TRIALS,  # a violation raises
        )

    @staticmethod
    def _lemma(fn_name: str, d: int, checked: int) -> Op:
        return Op(f"{fn_name} d={d}", lambda: getattr(lemmas, fn_name)(d),
                  lambda rep: rep.passed and rep.checked == checked)

    def first_op(self):
        return self._audit(*self.pairs[0])

    def pass_ops(self, rng, traced):
        ops = [self._audit(*x) for x in self.pairs]
        for d in EXAMPLE_DIMS:
            ops += [self._example(kind, d, None) for kind in ("cube-pair", "example3", "example4")]
            ops += [self._example("example5", d, k) for k in range(d + 1)]
        ops += [self._lemslice(d) for d in sorted(self.lemslice_seeds)]
        ops += [self._lemma("check_lemma1", d, n) for d, n in LEMMA1_CHECKED.items()]
        ops += [self._lemma("check_lemma2", d, n) for d, n in LEMMA2_CHECKED.items()]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (EnumerateD4, ClassifyD5, Polytopes, VerifyD4)}
