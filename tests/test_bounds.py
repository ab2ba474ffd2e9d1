import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bsp.bounds import (
    check_conjecture1,
    check_thm3,
    check_thm4,
    check_thm6_equality,
)
from bsp.canon import canonical_key
from bsp.constructions import construct_example, expected_sizes
from bsp.errors import BadParameterError, NotCubePairError
from bsp.family import BspPair, VectorFamily, product_matrix, verify_binary_products
from bsp.linalg import unit_row
from test_decomposition import _catalog_pairs


def test_thm4_equality_cases():
    p = construct_example("cube-pair", 2)
    rep = check_thm4(p)
    assert (rep.product, rep.bound) == (12, 12)
    assert rep.passed and rep.equality
    d1 = construct_example("cube-pair", 1)
    rep1 = check_thm4(d1)
    assert rep1.product == rep1.bound == 4 and rep1.equality


def test_thm4_example3_strict():
    rep = check_thm4(construct_example("example3", 3))
    assert (rep.product, rep.bound) == (30, 32)
    assert rep.passed and not rep.equality


def test_thm3_applicability_and_equality():
    rep = check_thm3(construct_example("example3", 3))
    assert rep.applicable and rep.product == rep.bound == 30

    small = check_thm3(construct_example("cube-pair", 2))  # |B| = 3 < d+2
    assert not small.applicable

    e5 = check_thm3(construct_example("example5", 4, k=2))
    assert e5.applicable and (e5.product, e5.bound) == (72, 72)


def test_thm6_classification():
    cls = check_thm6_equality(construct_example("cube-pair", 2))
    assert cls.is_equality_case and cls.cube_side == "a"
    cls_t = check_thm6_equality(construct_example("example5", 2, k=2))
    assert cls_t.is_equality_case and cls_t.cube_side == "b"
    not_eq = check_thm6_equality(construct_example("example3", 3))
    assert not not_eq.is_equality_case
    one = check_thm6_equality(construct_example("cube-pair", 1))
    assert one.is_equality_case


def _key_verdict(p: BspPair):
    """The former Theorem 6 test: canonical keys of the product matrices
    of the pair and of the reference cube pair.  None when the pair is not
    of the equality size, else whether the keys agree."""
    d = p.dim
    if p.product() != (d + 1) << d:
        return None
    ref = product_matrix(construct_example("cube-pair", d))
    return canonical_key(product_matrix(p), True) == canonical_key(ref, True)


def _bit_verdict(p: BspPair):
    try:
        cls = check_thm6_equality(p)
    except NotCubePairError:
        return False
    return True if cls.is_equality_case else None


def _cube_pair_mutants(d: int):
    """Equality-size pairs (not valid ones) next to the cube pair
    {0,1}^d against {0, e_1, ..., e_d}: 2 e_d for e_d makes rows with
    x_d = 0 and 1 equal, and e_1 - e_2 - ... - e_d for 0 puts one 1 (at
    e_1) into the zero column."""
    a = construct_example("cube-pair", d).family_a
    b = [unit_row(d, i) for i in range(d)]
    doubled = b[:-1] + [unit_row(d, d - 1, 2), (0,) * d]
    one_bit = b + [tuple(1 if i == 0 else -1 for i in range(d))]
    for rows in (doubled, one_bit):
        yield BspPair(d, a, VectorFamily.from_rows(d, 1, rows))


def test_thm6_bitset_verdict_matches_canonical_key_oracle():
    pairs = [q for p in _catalog_pairs(4) for q in (p, p.transposed())]
    for d in range(1, 6):
        for k in range(d + 1):
            p = construct_example("example5", d, k=k)
            pairs += [p, p.transposed()]
        pairs.append(construct_example("cube-pair", d))
    verdicts = {}
    for p in pairs:
        got = _bit_verdict(p)
        assert got == _key_verdict(p), (p.dim, p.sizes())
        verdicts[got] = verdicts.get(got, 0) + 1
    assert verdicts == {None: 46, True: 41}
    for d in range(2, 6):
        for p in _cube_pair_mutants(d):
            for q in (p, p.transposed()):
                assert _bit_verdict(q) is _key_verdict(q) is False, (d, q.sizes())
                with pytest.raises(NotCubePairError, match="not isomorphic"):
                    check_thm6_equality(q)


def test_thm6_rejects_equality_size_without_a_cube_side():
    # 12 = (2+1) 2^2 with sizes (6, 2), so neither side has 2^2 members
    a = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    p = BspPair(2, VectorFamily.from_rows(2, 1, a), VectorFamily.from_rows(2, 1, [(1, 0), (0, 1)]))
    with pytest.raises(NotCubePairError, match="sizes"):
        check_thm6_equality(p)


def test_thm6_raises_under_python_O():
    """The check is an explicit raise, so it survives ``python -O``."""
    code = textwrap.dedent("""
        from bsp.bounds import check_thm6_equality
        from bsp.errors import NotCubePairError
        from bsp.family import BspPair, VectorFamily
        a = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        b = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2)]
        p = BspPair(3, VectorFamily.from_rows(3, 1, a), VectorFamily.from_rows(3, 1, b))
        try:
            check_thm6_equality(p)
        except NotCubePairError:
            print("raised")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "raised\n"), out.stderr


def test_construct_example_sizes_match_closed_forms():
    for d in range(2, 11):
        for kind in ("example3", "example4"):
            p = construct_example(kind, d)
            assert p.sizes() == expected_sizes(kind, d)
        for k in range(d + 1):
            p = construct_example("example5", d, k=k)
            assert p.sizes() == expected_sizes("example5", d, k=k)
        cp = construct_example("cube-pair", d)
        assert cp.sizes() == expected_sizes("cube-pair", d)


def test_constructed_pairs_are_valid():
    for d in (2, 3, 4, 5):
        for kind, k in (("example3", None), ("example4", None), ("example5", 2)):
            p = construct_example(kind, d, k=k)
            assert verify_binary_products(p.family_a, p.family_b) is None


def test_construct_example_bad_parameters():
    with pytest.raises(BadParameterError):
        construct_example("example5", 3, k=4)
    with pytest.raises(BadParameterError):
        construct_example("example5", 3)
    with pytest.raises(BadParameterError):
        construct_example("nonsense", 3)
    with pytest.raises(BadParameterError):
        construct_example("example3", 0)
    with pytest.raises(BadParameterError, match="example5 needs k"):
        expected_sizes("example5", 3)


def test_conjecture1_examples():
    # d=5, (10,17): the k=1 clause is tight at 170
    assert check_conjecture1([(10, 17)], 5) == []
    # d=4, (16,5): k=0 clause tight at 80
    assert check_conjecture1([(16, 5)], 4) == []
    assert check_conjecture1([], 4) == []
    # fabricated violation: (17,17) at d=4 violates the k=2 clause
    violations = check_conjecture1([(17, 17)], 4)
    assert violations and violations[0].product == 289


def test_conjecture1_thresholds_are_exact():
    # k=1 at d=5 requires min > 6, so at min = 6 only the k=0 clause can
    # fire; (6, 100) violates k=0 (bound 192) but must not report k=1
    violations = check_conjecture1([(6, 100)], 5)
    assert violations and all(v.k == 0 for v in violations)
    # at min = 7 the k=1 clause fires as well
    violations7 = check_conjecture1([(7, 100)], 5)
    assert {v.k for v in violations7} == {0, 1}


def test_conjecture1_on_example5_sizes():
    for d in range(1, 9):
        sizes = [expected_sizes("example5", d, k=k) for k in range(d + 1)]
        assert check_conjecture1(sizes, d) == []
