import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsp import kernel
from bsp.canon import canonical_from_key, canonical_key, has_key, rows_key, transpose
from bsp.family import ProductMatrix, close_pair, matrix_rank, product_matrix
from bsp.family import VectorFamily
from bsp.polytope import _MIN_DIM, POLYTOPE_KINDS, reference_slack


def mat_from_bits(bits):
    bits = tuple(bits)
    return ProductMatrix(len(bits), len(bits[0]) if bits else 0, bits, matrix_rank(bits))


def shuffled(mat, rng):
    rows = list(mat.bits)
    rng.shuffle(rows)
    perm = list(range(mat.n))
    rng.shuffle(perm)
    rows = ["".join(r[j] for j in perm) for r in rows]
    return mat_from_bits(rows)


def test_shuffle_invariance():
    rng = random.Random(3)
    mat = mat_from_bits(["0101", "0011", "0000", "1100"])
    key = canonical_key(mat)
    for _ in range(25):
        assert canonical_key(shuffled(mat, rng)) == key


def test_canonical_matrix_is_fixpoint():
    mat = mat_from_bits(["0101", "0011", "0000", "1100"])
    canon = canonical_from_key(canonical_key(mat), mat.rank_d)
    assert canonical_from_key(canonical_key(canon), canon.rank_d).bits == canon.bits
    # row multiset of ones-counts is permutation invariant
    assert sorted(r.count("1") for r in canon.bits) == sorted(
        r.count("1") for r in mat.bits
    )


def test_transpose_flag_d2_pairs():
    p34 = close_pair(VectorFamily.of(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))
    p43 = close_pair(VectorFamily.of(2, [(0, 0), (1, 0), (0, 1)]))
    m34, m43 = product_matrix(p34), product_matrix(p43)
    assert (m34.m, m34.n) == (3, 4)
    assert (m43.m, m43.n) == (4, 3)
    assert canonical_key(m34, include_transpose=True) == canonical_key(
        m43, include_transpose=True
    )
    assert canonical_key(m34) != canonical_key(m43)


def test_example3_vs_example4_distinct():
    from bsp.constructions import construct_example

    for d in (3, 4, 5):
        k3 = canonical_key(product_matrix(construct_example("example3", d)), True)
        k4 = canonical_key(product_matrix(construct_example("example4", d)), True)
        assert k3 != k4


def test_key_roundtrip():
    mat = mat_from_bits(["0101", "0011", "0000"])
    key = canonical_key(mat)
    back = canonical_from_key(key, 2)
    assert (back.m, back.n) == (3, 4)
    assert canonical_key(back) == key


@pytest.mark.parametrize("key, rank_d", [
    (b"2,2:\xff\xff", 2),  # a byte too many
    (b"2,2:", 2),  # no bytes
    (b"2,2:\x1f", 2),  # a padding bit set
    (b"-1,-1:\x00", 0),  # a negative shape
    (b"3,0:", 1),  # a shape that cannot hold the rank
])
def test_key_whose_bytes_do_not_hold_its_shape_is_refused(key, rank_d):
    with pytest.raises(ValueError):
        canonical_from_key(key, rank_d)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_random_shuffles_share_key(m, n, data):
    bits = [
        "".join(data.draw(st.sampled_from("01")) for _ in range(n)) for _ in range(m)
    ]
    mat = mat_from_bits(bits)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    assert canonical_key(shuffled(mat, rng)) == canonical_key(mat)
    assert canonical_key(shuffled(mat, rng), True) == canonical_key(mat, True)
    assert canonical_key(mat.transposed(), True) == canonical_key(mat, True)


def brute_force_canonical(bits, n, include_transpose):
    """(m, n, rows) of the key by its definition: the least row-major bit
    string over all row orders, each with its columns sorted ascending by
    their top-to-bottom tuple (the least column order for those rows)."""

    def least(rows, width):
        if not width:
            return tuple(rows)
        return min(
            tuple(map("".join, zip(*sorted(zip(*perm)))))
            for perm in itertools.permutations(rows)
        )

    m = len(bits)
    cols = tuple("".join(row[j] for row in bits) for j in range(n))
    if not include_transpose or m < n:
        return (m, n, least(bits, n))
    if m > n:
        return (n, m, least(cols, m))
    return (m, n, min(least(bits, n), least(cols, m)))


def oracle_cases():
    rng = random.Random(11)
    for _ in range(200):
        m, n = rng.randint(0, 6), rng.randint(0, 7)
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        yield tuple(
            "".join("1" if rng.random() < density else "0" for _ in range(n))
            for _ in range(m)
        ), n
    yield ("1",), 1
    yield ("0",), 1
    yield ("000", "000"), 3
    yield ("1111",) * 3, 4
    yield ("0110", "0110", "1001", "0110"), 4  # duplicate rows and columns
    yield (), 5
    yield ("",) * 4, 0


def test_key_matches_brute_force_definition():
    for bits, n in oracle_cases():
        mat = ProductMatrix(len(bits), n, bits, 0)
        for flag in (False, True):
            back = canonical_from_key(canonical_key(mat, flag), 0)
            assert (back.m, back.n, back.bits) == brute_force_canonical(bits, n, flag)


def symmetric_cases():
    """Matrices with m <= 6 and large automorphism groups, whose searches
    prove and reuse automorphisms: identities, circulants, a random block
    repeated on the diagonal, the edge-vertex incidences of small graphs,
    matrices with repeated rows, and the complements of all these."""
    rng = random.Random(41)
    cases = [tuple(format(1 << i, f"0{n}b") for i in range(n)) for n in range(1, 7)]
    for n in range(3, 7):
        for _ in range(3):
            row = format(rng.getrandbits(n), f"0{n}b")
            cases.append(tuple(row[s:] + row[:s] for s in range(n)))
    for b, c, k in ((1, 2, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 1, 3), (3, 3, 2)):
        block = [format(rng.getrandbits(c), f"0{c}b") for _ in range(b)]
        cases.append(
            tuple("0" * c * i + row + "0" * c * (k - 1 - i) for i in range(k) for row in block)
        )
    graphs = {  # vertices, edges
        "bowtie": (5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4))),
        "K4": (4, tuple(itertools.combinations(range(4), 2))),
        "C6": (6, tuple((i, (i + 1) % 6) for i in range(6))),
        "K23": (5, tuple((i, j) for i in range(2) for j in range(2, 5))),
        "C4 with a tail": (6, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5))),
    }
    for n, edges in graphs.values():
        cases.append(tuple("".join("1" if j in e else "0" for j in range(n)) for e in edges))
    cases += [("001", "010", "100") * 2, ("011", "110", "101", "011"), ("0011", "1100") * 3]
    flip = str.maketrans("01", "10")
    return cases + [tuple(row.translate(flip) for row in bits) for bits in cases]


def test_symmetric_keys_match_brute_force_definition():
    """The automorphisms a search stores prune only subtrees that hold
    no lesser trace: on highly symmetric matrices, every shuffled copy,
    and every shuffled copy of the transpose, gets the brute-force key
    under both flags."""
    rng = random.Random(43)
    for bits in symmetric_cases():
        for base in (mat_from_bits(bits), mat_from_bits(bits).transposed()):
            for flag in (False, True):
                want = brute_force_canonical(base.bits, base.n, flag)
                for copy in [base] + [shuffled(base, rng) for _ in range(8)]:
                    back = canonical_from_key(canonical_key(copy, flag), 0)
                    assert (back.m, back.n, back.bits) == want, (bits, flag)


def test_stored_automorphisms_cut_descents(monkeypatch):
    """The search descends into one child per orbit of the automorphisms
    it has proved, not into every sibling: counted as top-level calls of
    the descent while keying the 32 x 32 identity (496 when each skip
    proves its automorphism again) and the d=5 cube slack (41)."""
    from bsp import canon

    follows, calls = canon._follows, {"depth": 0, "top": 0}

    def counted(*args):
        calls["top"] += calls["depth"] == 0
        calls["depth"] += 1
        try:
            return follows(*args)
        finally:
            calls["depth"] -= 1

    monkeypatch.setattr(canon, "_follows", counted)
    n = 32
    key = rows_key([1 << i for i in range(n)], n)
    assert canonical_from_key(key, 0).bits == tuple(format(1 << i, f"0{n}b") for i in range(n))
    assert calls["top"] <= 31
    calls["top"] = 0
    mat = reference_slack("cube", 5)
    rows_key([int(r, 2) for r in mat.bits], mat.n)
    assert calls["top"] <= 5


def test_class_counts_match_oeis_a002724():
    """n x n 0/1 matrices up to row and column permutations: 2, 7, 36,
    317 classes for n = 1..4 (OEIS A002724).  Sorting the rows of any
    matrix gives one with non-decreasing rows, so those cover every class."""
    for n, expected in ((1, 2), (2, 7), (3, 36), (4, 317)):
        keys = {
            canonical_key(ProductMatrix(n, n, tuple(format(r, f"0{n}b") for r in rows), 0))
            for rows in itertools.combinations_with_replacement(range(1 << n), n)
        }
        assert len(keys) == expected


def lectic_d5_rows():
    """Kernel rows of the 1,000 recorded d=5 lectic draws the benchmark
    classifies."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "lectic_d5.txt"
    lines = data.read_text("ascii").splitlines()
    return [kernel.pair_rows(5, int(x)) for x in lines if x and not x.startswith("#")]


def test_lectic_d5_keys_match_golden_digest():
    """Keys of the 1,000 recorded d=5 lectic draws, pinned byte for
    byte."""
    keys = []
    for rows, n in lectic_d5_rows():
        mat = ProductMatrix(len(rows), n, tuple(format(r, f"0{n}b") for r in rows), 5)
        keys.append(canonical_key(mat, include_transpose=True))
    assert len(keys) == 1000 and len(set(keys)) == 157
    digest = hashlib.sha256(b"\n".join(k.hex().encode() for k in keys)).hexdigest()
    assert digest == "0b6dd1febe0c0f4a4d830d42b2d8072145007f11ff22e1f6b88b3e819aae54b5"


def test_rows_key_matches_canonical_key():
    """Keys taken straight from kernel rows are those of the matrix the
    rows spell, on the 1,000 d=5 draws and their shuffled copies, with
    and without the transpose flag, and with a shuffled transpose passed
    in as ``cols``."""
    rng, col_rng = random.Random(5), random.Random(6)
    for i, (rows, n) in enumerate(lectic_d5_rows()):
        mat = ProductMatrix(len(rows), n, tuple(format(r, f"0{n}b") for r in rows), 5)
        assert rows_key(rows, n, include_transpose=True) == canonical_key(
            mat, include_transpose=True
        )
        if i % 10 == 0:
            copy = shuffled(mat, rng)
            copy_rows = [int(r, 2) for r in copy.bits]
            for flag in (False, True):
                assert rows_key(copy_rows, n, flag) == canonical_key(copy, flag)
            cols = [int(r, 2) for r in shuffled(mat.transposed(), col_rng).bits]
            assert rows_key(copy_rows, n, True, cols) == canonical_key(copy, True)


def test_transpose_puts_column_bit_p_of_row_i_at_bit_i_of_entry_p():
    """The exact output, not only the matrix up to order: heuristic forms
    depend on the column order of what they are given, and orientation
    hands them this transpose."""
    rng = random.Random(31)
    for _ in range(300):
        m, n = rng.randint(0, 9), rng.randint(0, 9)
        rows = [rng.getrandbits(n) if n else 0 for _ in range(m)]
        want = [sum((row >> p & 1) << i for i, row in enumerate(rows)) for p in range(n)]
        assert transpose(rows, n) == want
        assert transpose(want, m) == rows


def switched(bits, rng):
    """A degree-preserving 2x2 switch: rows i, j and columns a, b with
    1 0 / 0 1 there become 0 1 / 1 0 (the bits unchanged when there is
    none).  Row and column degrees stay, the class often does not."""
    rows = [list(r) for r in bits]
    spots = [
        (i, j, a, b)
        for i, j in itertools.permutations(range(len(rows)), 2)
        for a, b in itertools.permutations(range(len(rows[0]) if rows else 0), 2)
        if rows[i][a] == rows[j][b] == "1" and rows[i][b] == rows[j][a] == "0"
    ]
    if spots:
        i, j, a, b = rng.choice(spots)
        rows[i][a], rows[i][b], rows[j][a], rows[j][b] = "0", "1", "1", "0"
    return tuple(map("".join, rows))


def test_has_key_certifies_exactly_the_brute_force_class():
    """A matrix follows a key's trace exactly when its brute-force
    canonical form is the key's: on small random matrices against
    shuffled copies, transposes and degree-preserving switches (same row
    and column degrees, often another class), with and without the
    transpose flag."""
    rng, col_rng = random.Random(23), random.Random(24)
    switches = {True: 0, False: 0}  # outcomes on same-degree copies
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 0.5, 0.7))
        bits = tuple(
            "".join("1" if rng.random() < density else "0" for _ in range(n)) for _ in range(m)
        )
        mat = ProductMatrix(m, n, bits, 0)
        copies = [shuffled(mat, rng).bits, mat.transposed().bits, switched(bits, rng)]
        copies += [switched(copies[0], rng), switched(switched(copies[0], rng), rng)]
        for flag in (False, True):
            key = canonical_key(mat, flag)
            want = brute_force_canonical(bits, n, flag)
            for i, copy in enumerate(copies):
                width = len(copy[0])
                held = has_key([int(r, 2) for r in copy], width, key, flag)
                assert held == (brute_force_canonical(copy, width, flag) == want)
                switches[held] += i >= 2
                if flag:  # the transpose passed in, in any row and column order
                    cols = ProductMatrix(len(copy), width, copy, 0).transposed()
                    cols = shuffled(cols, col_rng)
                    cols = [int(r, 2) for r in cols.bits]
                    assert has_key([int(r, 2) for r in copy], width, key, flag, cols) == held
    assert min(switches.values()) >= 100, switches


def test_has_key_certifies_copies_of_the_d5_draws():
    """Every shuffled copy of the 1,000 recorded d=5 draws, and every
    shuffled transpose, follows the original's key; these matrices are
    large and symmetric enough that the descent branches."""
    rng = random.Random(29)
    for rows, n in lectic_d5_rows():
        mat = ProductMatrix(len(rows), n, tuple(format(r, f"0{n}b") for r in rows), 5)
        key = rows_key(rows, n, include_transpose=True)
        for copy in (shuffled(mat, rng), shuffled(mat.transposed(), rng)):
            assert has_key([int(r, 2) for r in copy.bits], copy.n, key, include_transpose=True)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_reference_slacks_keep_their_key_and_certify_switches(d):
    """The slack matrices of the six shipped kinds, highly symmetric
    matrices whose searches branch most: shuffled copies of each and of
    its transpose keep their key under both flags and follow it, and a
    degree-preserving switch of a copy follows the key exactly when its
    own search gives that key."""
    rng = random.Random(37 + d)
    switches = {True: 0, False: 0}  # outcomes on same-degree copies
    for kind in POLYTOPE_KINDS:
        if d < _MIN_DIM[kind]:
            continue
        mat = reference_slack(kind, d)
        for flag in (False, True):
            keys = []
            for base in (mat, mat.transposed()):
                keys.append(key := canonical_key(base, flag))
                for _ in range(2):
                    copy = shuffled(base, rng)
                    rows = [int(r, 2) for r in copy.bits]
                    assert rows_key(rows, copy.n, flag) == key, (kind, flag)
                    assert has_key(rows, copy.n, key, flag), (kind, flag)
                    rows = [int(r, 2) for r in switched(copy.bits, rng)]
                    held = has_key(rows, copy.n, key, flag)
                    assert held == (rows_key(rows, copy.n, flag) == key), (kind, flag)
                    switches[held] += 1
            assert keys[0] == keys[1] or not flag, kind
    assert switches[False] > 0 or d == 1, switches


def explicit_pair_isomorphism(p1, p2, include_transpose=True):
    """Search for an invertible T with T A1 = A2 and T^-T B1 = B2.

    Exhaustive over images of a basis of A1 among points of A2; intended
    as a d <= 3 oracle for the canonical key.
    """
    import itertools

    from bsp.linalg import rank, solve, vec
    from test_linalg import dot

    def try_orientation(p, q):
        d = p.dim
        a1 = p.family_a.sorted()
        basis = []
        for v in a1:
            if rank(basis + [v]) > len(basis):
                basis.append(v)
        a2 = q.family_a.sorted()
        if p.sizes() != q.sizes():
            return False
        for images in itertools.permutations(a2, d):
            if rank(list(images)) < d:
                continue
            # T basis[i] = images[i]:  T = solve on columns
            cols = []
            ok = True
            for j in range(d):
                rhs = vec(images[i][j] for i in range(d))
                res = solve(tuple(basis), rhs)
                if res.solution is None:
                    ok = False
                    break
                cols.append(res.solution)
            if not ok:
                continue
            # rows of T

            def apply_t(v):
                return vec(dot(cols[j], v) for j in range(d))

            if {apply_t(v) for v in p.family_a.vectors} != q.family_a.vectors:
                continue
            # B moves by the inverse transpose: <T a, T^-T b> = <a, b> means
            # images of B are determined by products; check set equality via
            # solving <T a_i, y> = <a_i, b> on the image basis
            timgs = [apply_t(v) for v in basis]
            moved = set()
            for b in p.family_b.vectors:
                rhs = vec(dot(basis[i], b) for i in range(d))
                res = solve(tuple(timgs), rhs)
                assert res.solution is not None
                moved.add(res.solution)
            if moved == q.family_b.vectors:
                return True
        return False

    if try_orientation(p1, p2):
        return True
    return include_transpose and try_orientation(p1, p2.transposed())


def test_canonical_key_soundness_oracle_d_le_3():
    """Equal keys iff an explicit linear isomorphism exists (d <= 3)."""
    from bsp.enumeration import brute_force
    from bsp.family import pair_from_product_matrix

    pairs = []
    for d in (2, 3):
        cat = brute_force(d)
        for cls in cat.classes:
            pairs.append((d, cls.key, pair_from_product_matrix(cls.matrix, d)))
    rng = random.Random(5)
    for d, key, pair in pairs:
        # a rebased copy of the same pair must carry the same key and an
        # explicit transform
        twin = rebase(pair, rng)
        assert canonical_key(product_matrix(twin), True) == key
        assert explicit_pair_isomorphism(pair, twin)
    for (d1, k1, p1) in pairs:
        for (d2, k2, p2) in pairs:
            if d1 != d2 or k1 <= k2:
                continue
            assert not explicit_pair_isomorphism(p1, p2)


def rebase(pair, rng):
    """Rewrite the pair in a random unimodular change of coordinates."""
    import itertools

    from bsp.family import BspPair, VectorFamily
    from bsp.linalg import rank, solve, vec
    from test_linalg import dot

    d = pair.dim
    while True:
        t = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)]
        rows = [vec(r) for r in t]
        if rank(rows) == d:
            break
    a2 = [vec(dot(rows[i], v) for i in range(d)) for v in pair.family_a.vectors]
    # B transforms by the inverse transpose: solve <a', b'> = <a, b>
    basis = []
    for v in pair.family_a.sorted():
        if rank(basis + [v]) > len(basis):
            basis.append(v)
    timgs = [vec(dot(rows[i], v) for i in range(d)) for v in basis]
    b2 = []
    for b in pair.family_b.vectors:
        rhs = vec(dot(basis[i], b) for i in range(d))
        res = solve(tuple(timgs), rhs)
        b2.append(res.solution)
    return BspPair(d, VectorFamily.of(d, a2), VectorFamily.of(d, b2))
