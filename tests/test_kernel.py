"""Cross-checks between the C kernel, the pure-Python twin, and the
generic Fraction implementation."""

import hashlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bsp
from bsp import enumeration, kernel
from bsp.family import a_max, closure, family_from_masks
from bsp.linalg import independent_rows
from test_enumeration import D4_SHA256
from test_linalg import cofactor_matrix, det
from test_polytope import brute_force_facets

SRC = Path(bsp.__file__).parent
kp = kernel.get_backend("python")


def _load_shim(directory: Path):
    """Import a copy of the ctypes shim placed in ``directory``, where it
    looks for the compiled library."""
    shutil.copy(SRC / "_kernel_c.py", directory)
    spec = importlib.util.spec_from_file_location("bsp._kernel_c", directory / "_kernel_c.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kc(tmp_path_factory):
    """The C kernel compiled from source into a temporary directory (never
    into the package) and loaded through the shim.  A compile error or
    warning fails the tests; only a missing compiler skips them."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("ckernel")
    subprocess.run(
        [cc, "-std=c99", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         str(SRC / "_ckernel.c"), "-o", str(out / "_ckernel.so")],
        check=True,
    )
    return _load_shim(out)


@pytest.fixture(params=["python", "c"])
def impl(request):
    return kp if request.param == "python" else request.getfixturevalue("kc")


def test_backend_names():
    assert kernel.get_backend() is kernel.get_backend(kernel.BACKEND)
    assert kernel.get_backend("python").BACKEND == "python"
    for name in ("py", "pure", "compiled", "active", "", "Python"):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernel.get_backend(name)


def test_bsp_kernel_environment_variable():
    """BSP_KERNEL=python selects the twin; a misspelt value raises instead
    of silently running the default backend."""
    code = "import bsp.kernel as k; print(k.BACKEND)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    for value, want in (("python", "python"), ("pyhton", None), ("pure", None)):
        out = subprocess.run([sys.executable, "-c", code], env=dict(env, BSP_KERNEL=value),
                             capture_output=True, text=True, timeout=60)
        if want:
            assert (out.returncode, out.stdout) == (0, want + "\n"), out.stderr
        else:
            assert out.returncode != 0
            assert f"unknown kernel backend: {value!r}" in out.stderr


def _random_set(rng, d):
    sset = 0
    for m in rng.sample(range(1, 1 << d), rng.randint(1, (1 << d) - 1)):
        sset |= 1 << m
    return sset


def _assert_agree(kc, d, sset):
    cc = kc.closure_and_rank(d, sset)
    assert cc == kp.closure_and_rank(d, sset)
    closed = cc[0]
    rows = kp.pair_rows(d, closed)
    assert kc.pair_rows(d, closed) == rows
    assert kc.next_closed(d, sset) == kp.next_closed(d, sset)
    assert kc.heuristic_form(*rows) == kp.heuristic_form(*rows)


def test_backends_agree_exhaustively_small_d(kc):
    for d in (1, 2, 3):
        for s in range(1 << ((1 << d) - 1)):
            _assert_agree(kc, d, s << 1)


def test_backends_agree_on_random_d4_d5(kc):
    rng = random.Random(2)
    for d in (4, 5):
        for _ in range(150):
            _assert_agree(kc, d, _random_set(rng, d))


@pytest.mark.parametrize("records", [512, 2])
def test_enum_branch_identical_across_backends(kc, monkeypatch, records):
    # a 2-record table makes the C side hand its forms over many times
    monkeypatch.setattr(kc, "_TABLE_RECORDS", records)
    for d, k in ((2, 0), (3, 2), (4, 4)):
        for p in range(1 << k):
            assert kc.enum_branch(d, k, p) == kp.enum_branch(d, k, p)


def test_catalogs_identical_across_backends(kc, monkeypatch):
    expected = {d: enumeration.enumerate_catalog(d).to_jsonl() for d in (1, 2, 3, 4)}
    for name in ("closure_and_rank", "pair_rows", "heuristic_form", "enum_branch"):
        monkeypatch.setattr(kernel, name, getattr(kc, name))
    for d, text in expected.items():
        assert enumeration.enumerate_catalog(d).to_jsonl() == text


def test_python_kernel_caches_cleared_when_full(monkeypatch):
    """With room for 2 entries, the caches of the pure-Python kernel are
    emptied on nearly every miss; nothing it returns may change."""
    expected = [kp.enum_branch(4, 4, p) for p in range(16)]
    got = {}

    def recording_enum_branch(d, top_count, p_index):
        got[p_index] = kp.enum_branch(d, top_count, p_index)
        return got[p_index]

    for cache in kp.CACHES.values():
        cache.clear()
    monkeypatch.setattr(kp, "_MAX_CACHED_BASES", 2)
    for name in ("closure_and_rank", "pair_rows", "heuristic_form"):
        monkeypatch.setattr(kernel, name, getattr(kp, name))
    monkeypatch.setattr(kernel, "enum_branch", recording_enum_branch)
    text = enumeration.enumerate_catalog(4, workers=1).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    assert [got[p] for p in range(16)] == expected
    assert max(len(cache) for cache in kp.CACHES.values()) <= 2


def _tables_from_scratch(d, key):
    """(rank, ok, one, pts) of the greedy basis with cache key ``key``,
    rebuilt from det(M) and the cofactors of M, the basis followed by the
    unit vectors that complete it (the module docstring of the twin), as
    the test oracles of :mod:`test_linalg` compute them."""
    basis = [y for y in range(1 << d) if (key >> 3 >> y) & 1]
    r = len(basis)
    rows = [[(y >> i) & 1 for i in range(d)] for y in basis]
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    rows += [units[i - r] for i in independent_rows(rows + units)[r:]]
    det_m, cof = det(rows), cofactor_matrix(rows)
    ok, one = [], []
    for y in range(1 << d):
        w = [sum(cof[i][j] for j in range(d) if (y >> j) & 1) for i in range(d)]
        t = [sum(w[i] for i in range(r) if (s >> i) & 1) for s in range(1 << r)]
        span = not any(w[r:])
        ok.append(sum(1 << s for s, x in enumerate(t) if span and x in (0, det_m)))
        one.append("".join("1" if span and x == det_m else "0" for x in t))
    pts = [sum(1 << y for y in range(1 << d) if (ok[y] >> s) & 1) for s in range(1 << r)]
    return r, ok, one, pts


@pytest.mark.parametrize("cap", [None, 2])
def test_python_basis_tables_match_adjugate_oracle(monkeypatch, cap):
    """Every table the twin builds while enumerating d=4 and closing
    seeded random sets at d=5 and d=6 equals the one rebuilt from scratch;
    with a cap of 2 entries, prefixes are evicted in the middle of a
    greedy-basis walk."""
    for cache in kp.CACHES.values():
        cache.clear()
    if cap:
        monkeypatch.setattr(kp, "_MAX_CACHED_BASES", cap)
    built = []
    remember = kp._remember

    def recording_remember(cache, key, value):
        if cache is kp._tables_cache:
            built.append(value)
        return remember(cache, key, value)

    monkeypatch.setattr(kp, "_remember", recording_remember)
    for name in ("closure_and_rank", "pair_rows", "heuristic_form", "enum_branch"):
        monkeypatch.setattr(kernel, name, getattr(kp, name))
    enumeration.enumerate_catalog(4, workers=1)
    rng = random.Random(31)
    for d in (5, 6):
        for _ in range(30):
            kp.pair_rows(d, kp.closure_and_rank(d, _random_set(rng, d))[0])
    with_pts = 0
    for tab in built:
        rank, ok, one, pts = _tables_from_scratch(tab.key & 7, tab.key)
        assert (tab.rank, tab.ok, tab.one) == (rank, ok, one), tab.key
        if tab.pts is not None:
            with_pts += 1
            assert list(tab.pts) == pts, tab.key
    assert len({t.key for t in built}) > 1491  # the d=4 catalog's tables and more
    assert with_pts >= len(built) // 2


def test_kernel_rejects_out_of_range_input(impl):
    """Both backends share one argument contract (``_kernel_py.check_*``)."""
    for mask in (-7, 1 << 16):
        for fn in (impl.closure_and_rank, impl.pair_rows, impl.next_closed):
            with pytest.raises(ValueError):
                fn(4, mask)
    for d in (0, 7):
        for fn in (impl.closure_and_rank, impl.pair_rows, impl.next_closed):
            with pytest.raises(ValueError):
                fn(d, 2)
        with pytest.raises(ValueError):
            impl.enum_branch(d, 0, 0)
    for d, top_count, p_index in ((4, 16, 0), (4, -1, 0), (4, 4, 16), (4, 4, -1), (2, 4, 0)):
        with pytest.raises(ValueError):
            impl.enum_branch(d, top_count, p_index)


def test_heuristic_form_rejects_out_of_range_rows(impl):
    for rows, n in (([4], 2), ([-1], 3), ([0] * 65, 3), ([1], 65), ([], -1)):
        with pytest.raises(ValueError):
            impl.heuristic_form(rows, n)


def test_edge_inputs_give_the_former_values(impl):
    """The empty set, d=1, and d=6 sets holding cube point 63 (the top bit
    of a 64-bit word), against the values of the former per-bit loops."""
    for d in range(1, 7):
        assert impl.closure_and_rank(d, 0) == (0, 0)
        assert impl.pair_rows(d, 0) == ([0], 1)
        assert impl.next_closed(d, 0) == 1 << ((1 << d) - 1)
    assert [impl.closure_and_rank(1, s) for s in range(4)] == [(0, 0), (0, 0), (2, 1), (2, 1)]
    assert impl.pair_rows(1, 2) == ([0, 1], 2)
    assert impl.next_closed(1, 2) == -1
    assert impl.enum_branch(1, 0, 0) == (2, 1, [(b"2,2:\x00\x01", 2)])
    assert impl.enum_branch(1, 1, 0) == (1, 0, [])
    top = 1 << 63
    for sset, rank, rows, nxt in (
        (top, 1, [0, 1], 1 << 62),
        (top | 2, 2, [0, 2, 1, 3], top >> 1 | 2),
        (top | 0b10110, 4, [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15],
         top >> 1 | 0b10110),
    ):
        assert impl.closure_and_rank(6, sset) == (sset, rank)
        assert impl.pair_rows(6, sset) == (rows, len(rows).bit_length())
        assert impl.next_closed(6, sset) == nxt
    cube = (1 << 64) - 2
    assert impl.closure_and_rank(6, cube | 1) == (cube, 6)
    # row i + 1 holds coordinate i of each point
    assert impl.pair_rows(6, cube) == ([0, 0x5555555555555555, 0x3333333333333333,
                                        0x0F0F0F0F0F0F0F0F, 0x00FF00FF00FF00FF,
                                        0x0000FFFF0000FFFF, 0x00000000FFFFFFFF], 64)
    assert impl.next_closed(6, cube) == -1
    assert impl.heuristic_form([], 0) == b"0,0:"
    assert impl.heuristic_form([0, 0], 0) == b"2,0:"
    assert impl.heuristic_form([], 5) == b"0,5:"
    wide = impl.heuristic_form([(1 << 64) - 1, 1], 64)
    assert wide == b"2,64:" + bytes.fromhex("00" * 7 + "01" + "ff" * 8)


def test_shim_without_loadable_library_raises_import_error(tmp_path):
    with pytest.raises(ImportError):
        _load_shim(tmp_path)
    (tmp_path / "_ckernel.so").write_bytes(b"not a shared library")
    with pytest.raises(ImportError):
        _load_shim(tmp_path)


def _enum_branch_reference(impl, d, top_count, p_index):
    """enum_branch rebuilt from the public kernel steps, one call each."""
    top_bits = sum(1 << (t + 1) for t in range(top_count))
    p_bits = sum(1 << (t + 1) for t in range(top_count) if (p_index >> t) & 1)
    a = p_bits
    if impl.closure_and_rank(d, a)[0] != a:
        a = impl.next_closed(d, a)
    visited = spanning = 0
    forms = {}
    while a >= 0 and (a & top_bits) == p_bits:
        visited += 1
        if impl.closure_and_rank(d, a)[1] == d:
            spanning += 1
            hb = impl.heuristic_form(*impl.pair_rows(d, a))
            forms[hb] = min(forms.get(hb, a), a)
        a = impl.next_closed(d, a)
    return visited, spanning, sorted(forms.items())


def test_enum_branch_matches_next_closed_walk(impl):
    for d, k in ((2, 0), (3, 2), (4, 4)):
        for p in range(1 << k):
            assert impl.enum_branch(d, k, p) == _enum_branch_reference(impl, d, k, p), (d, k, p)


@pytest.mark.parametrize("p_index", [255, 37])
def test_python_enum_branch_d5_cold_and_warm(kc, p_index):
    """A d=5 branch on the pure-Python kernel, from empty caches and then
    from the caches it filled, against the C kernel and the walk of
    public steps."""
    expected = kc.enum_branch(5, 8, p_index)
    for cache in kp.CACHES.values():
        cache.clear()
    assert kp.enum_branch(5, 8, p_index) == expected
    assert kp.enum_branch(5, 8, p_index) == expected
    assert _enum_branch_reference(kp, 5, 8, p_index) == expected


@pytest.mark.slow
def test_enum_branch_d5_identical_across_backends_on_every_branch(kc):
    """Both kernels on all 256 d=5 branches."""
    for p in range(256):
        assert kc.enum_branch(5, 8, p) == kp.enum_branch(5, 8, p), p


def _matches_fraction_closure(impl, d, masks) -> bool:
    """Check the kernel closure and product-matrix rows of a family of
    cube points against the generic rational closure and partner; False
    when the family does not span R^d (nothing to check)."""
    fam = family_from_masks(masks, d)
    if not fam.spans():
        return False
    sset = 0
    for m in masks:
        sset |= 1 << m
    closed, rank = impl.closure_and_rank(d, sset)
    assert rank == d
    got = family_from_masks([m for m in range(1, 1 << d) if (closed >> m) & 1], d)
    assert got == closure(fam)
    # partner family agrees too: a row holds a partner vector's products
    # with the columns, zero first, then the members in ascending mask
    # order; the members span R^d, so a row determines its vector
    rows, n = impl.pair_rows(d, closed)
    columns = [(0,) * d] + [tuple((m >> i) & 1 for i in range(d))
                            for m in range(1, 1 << d) if (closed >> m) & 1]
    assert n == len(columns)
    want = []
    for x in a_max(got).vectors:
        products = [sum(a * b for a, b in zip(x, c)) for c in columns]
        assert set(products) <= {0, 1}
        want.append(sum(int(p) << (n - 1 - j) for j, p in enumerate(products)))
    assert sorted(rows) == sorted(want)
    return True


def test_kernel_closure_matches_generic_fraction_closure(impl):
    """The bit-packed cube closure agrees with the generic rational one."""
    rng = random.Random(13)
    for d in (2, 3, 4):
        for _ in range(25):
            masks = rng.sample(range(1, 1 << d), rng.randint(1, (1 << d) - 1))
            _matches_fraction_closure(impl, d, masks)
    # d=5 from 5 to 12 points, so that closures of many sizes come up,
    # not mostly the whole cube
    rng = random.Random(14)
    checked = 0
    sizes = set()
    while checked < 12:
        masks = rng.sample(range(1, 32), rng.randint(5, 12))
        if _matches_fraction_closure(impl, 5, masks):
            checked += 1
            sizes.add(impl.closure_and_rank(5, sum(1 << m for m in masks))[0].bit_count())
    assert len(sizes) >= 5


def test_closure_is_extensive_and_idempotent_bitwise(impl):
    rng = random.Random(29)
    for d in (3, 4, 5):
        for _ in range(40):
            sset = _random_set(rng, d)
            closed, _ = impl.closure_and_rank(d, sset)
            assert closed & sset == sset
            again, _ = impl.closure_and_rank(d, closed)
            assert again == closed


def test_facet_scan_square(impl):
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    facets = impl.facet_scan(2, verts)
    assert len(facets) == 4
    assert ((0, 1), 1) in facets and ((0, -1), 0) in facets


@pytest.mark.parametrize("dim, coords", [
    (2, range(-3, 4)), (3, range(-3, 4)), (4, range(-3, 4)),
    # coordinates whose cofactors overflowed int64 in the former C scan
    (6, (-53, 53)), (6, (-128, 128)),
], ids=["d2", "d3", "d4", "d6-53", "d6-128"])
def test_facet_scan_backends_agree(kc, dim, coords):
    rng = random.Random(4)
    for _ in range(10):
        pts = sorted({tuple(rng.choice(coords) for _ in range(dim)) for _ in range(dim + 4)})
        expected = brute_force_facets(dim, pts)
        assert kp.facet_scan(dim, pts) == expected
        assert kc.facet_scan(dim, pts) == expected


def test_backends_agree_at_d6_spot_checks(kc):
    rng = random.Random(8)
    for _ in range(10):
        sset = 0
        for m in rng.sample(range(1, 64), rng.randint(6, 40)):
            sset |= 1 << m
        cc = kc.closure_and_rank(6, sset)
        assert cc == kp.closure_and_rank(6, sset)
        closed = cc[0]
        assert kc.pair_rows(6, closed) == kp.pair_rows(6, closed)
