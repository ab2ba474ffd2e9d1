import functools
import json
import os
import platform
import random
import warnings

import pytest

from bsp import kernel
from bsp.canon import canonical_key
from bsp.cli import main
from bsp.enumeration import enumerate_catalog
from bsp.family import ProductMatrix


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_and_stats_match_d4_list(tmp_path, capsys):
    cat = tmp_path / "cat4.jsonl"
    code, _, _ = run(["enumerate", "-d", "4", "--out", str(cat)], capsys)
    assert code == 0
    maximal = tmp_path / "max.csv"
    code, out, _ = run(
        ["stats", str(cat), "--maximal-csv", str(maximal)], capsys
    )
    assert code == 0
    got = {
        tuple(map(int, line.split(",")))
        for line in maximal.read_text().splitlines()[1:]
    }
    assert got == {(5, 16), (6, 12), (7, 10), (8, 9), (9, 8), (10, 7), (12, 6), (16, 5)}
    summary = json.loads(out)
    assert summary["max_product"] == 80


def test_example_pipe_to_verify(tmp_path, capsys, monkeypatch):
    code, out, _ = run(["example", "--kind", "example3", "-d", "5"], capsys)
    assert code == 0
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(out)
    code, out2, _ = run(["verify-pair", str(pair_file)], capsys)
    assert code == 0
    report = json.loads(out2)
    assert report["valid"] and report["product"] == 170


def test_verify_pair_violation_exit_2(tmp_path, capsys):
    bad = {
        "d": 2,
        "a": {"d": 2, "vectors": [["2", "0"], ["1", "0"], ["0", "1"]]},
        "b": {"d": 2, "vectors": [["1", "0"], ["0", "1"]]},
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, out, _ = run(["verify-pair", str(f)], capsys)
    assert code == 2
    report = json.loads(out)
    assert not report["valid"]
    assert report["witness"][2] == "2"


@pytest.mark.parametrize("inner_d", [False, True])
def test_verify_pair_reports_the_witness_of_the_pair_it_read(tmp_path, capsys, inner_d):
    """The families need no "d" of their own, and the reason prints the
    vectors as lists of numbers."""
    pair = {"d": 2, "a": {"vectors": [[0, 0], [1, 0], [0, 1]]},
            "b": {"vectors": [[0, 0], [1, 0], [0, 2]]}}
    if inner_d:
        pair["a"]["d"] = pair["b"]["d"] = 2
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(pair))
    code, out, _ = run(["verify-pair", str(f)], capsys)
    assert code == 2
    assert json.loads(out) == {"valid": False, "reason": "product 2 at ([0, 1], [0, 2])",
                               "witness": [["0", "1"], ["0", "2"], "2"]}


def test_verify_pair_fractions_roundtrip(tmp_path, capsys):
    code, out, _ = run(["example", "--kind", "example4", "-d", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert any("/" in c for v in obj["b"]["vectors"] for c in v)  # halves
    f = tmp_path / "e4.json"
    f.write_text(out)
    code, out2, _ = run(["verify-pair", str(f)], capsys)
    assert code == 0


def test_polytope_check_and_example(tmp_path, capsys):
    code, out, _ = run(["polytope", "example", "--kind", "cross-x-segment", "-d", "4"], capsys)
    assert code == 0
    f = tmp_path / "p.json"
    f.write_text(out)
    code, out2, _ = run(["polytope", "check", str(f)], capsys)
    assert code == 0
    rep = json.loads(out2)["polytopes"][0]
    assert rep["two_level"] and rep["f0"] == 12 and rep["facets"] == 10
    assert rep["special"] == "neither"


@pytest.mark.parametrize("kind", ["cube", "cross"])
def test_polytope_check_decides_special_once(tmp_path, capsys, monkeypatch, kind):
    """The slack zero sets behind the special-shape verdict are computed
    once per polytope and shared by the report and the bound check, and
    the check runs no canonical search."""
    import bsp.canon
    import bsp.polytope

    calls, keys = [], []
    zero_sets, key = bsp.polytope._zero_sets, bsp.canon._key
    monkeypatch.setattr(bsp.polytope, "_zero_sets", lambda s: calls.append(s) or zero_sets(s))
    monkeypatch.setattr(bsp.canon, "_key", lambda *a: keys.append(a) or key(*a))
    f = tmp_path / "p.json"
    run(["polytope", "example", "--kind", kind, "-d", "4", "--out", str(f)], capsys)
    calls.clear()
    code, out, _ = run(["polytope", "check", str(f), str(f)], capsys)
    reports = json.loads(out)["polytopes"]
    assert code == 0 and [r["special"] for r in reports] == [kind, kind]
    assert len(calls) == 2 and not keys


def test_polytope_check_non_two_level_exit2(tmp_path, capsys):
    f = tmp_path / "pent.json"
    f.write_text(json.dumps({
        "d": 2,
        "vertices": [["0", "0"], ["2", "0"], ["3", "2"], ["1", "4"], ["-1", "2"]],
    }))
    code, out, _ = run(["polytope", "check", str(f)], capsys)
    assert code == 2
    assert not json.loads(out)["polytopes"][0]["two_level"]


def test_polytope_check_non_vertex_point_exit_1(tmp_path, capsys):
    f = tmp_path / "rect.json"
    f.write_text(json.dumps({
        "d": 2,
        "vertices": [["0", "0"], ["1", "0"], ["2", "0"], ["0", "1"], ["1", "1"], ["2", "1"]],
    }))
    code, out, err = run(["polytope", "check", str(f)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "BadParameterError"


CATALOG_LINE_NO_MATRIX = '{"d":2,"size_a":3,"size_b":3,"key":"00"}\n'


@functools.cache
def _catalog_d3() -> str:
    return enumerate_catalog(3).to_jsonl()


def _with_random_class(jsonl: str) -> str:
    """The catalog and a random 9x20 0/1 matrix under key 00."""
    rng = random.Random(0)
    bits = ["".join(rng.choice("01") for _ in range(20)) for _ in range(9)]
    return jsonl + json.dumps({"d": 3, "size_a": 9, "size_b": 20, "matrix": bits,
                               "key": "00"}) + "\n"


def _with_first_class_again(key: str | None):
    """The catalog and its first class again, under ``key`` or its own."""
    def tamper(jsonl: str) -> str:
        first = json.loads(jsonl.splitlines()[0])
        return jsonl + json.dumps(dict(first, key=key or first["key"])) + "\n"
    return tamper


def _with_last_class_changed(change):
    """The catalog and its last class with its rows changed by ``change``,
    under the key of the changed matrix (whose rank is still d)."""
    def tamper(jsonl: str) -> str:
        last = json.loads(jsonl.splitlines()[-1])
        bits = change(last["matrix"])
        mat = ProductMatrix(len(bits), len(bits[0]), tuple(bits), last["d"])
        key = canonical_key(mat, include_transpose=True).hex()
        return jsonl + json.dumps(dict(last, size_a=len(bits), matrix=bits, key=key)) + "\n"
    return tamper


TAMPERED_CATALOGS = {"random-class": _with_random_class,
                     "other-key": _with_first_class_again("ff" * 12),
                     "repeated-key": _with_first_class_again(None),
                     "repeated-rows": _with_last_class_changed(lambda rows: rows + rows[1:3]),
                     "no-zero-row": _with_last_class_changed(
                         lambda rows: [r for r in rows if "1" in r])}
CATALOG_COMMANDS = {"conjecture": ["conjecture", "--catalog"], "stats": ["stats"],
                    "audit": ["audit"]}
# the 1 x 1 zero matrix with its own key: a d=0 catalog line, which stats and
# conjecture once passed and audit failed with a ValueError
D0_CATALOG = json.dumps({"d": 0, "size_a": 1, "size_b": 1, "matrix": ["0"], "key": canonical_key(
    ProductMatrix(1, 1, ("0",), 0), include_transpose=True).hex()}) + "\n"
# a valid pair file but for the vectors of A
PAIR_WITH_A = '{"d": 2, "a": {"d": 2, "vectors": %s}, "b": {"d": 2, "vectors": [[0, 0], [1, 0], [0, 1]]}}'


@pytest.mark.parametrize("argv, text, error", [
    (["polytope", "check"], '{"d": 2}', "MalformedInputError"),
    (["polytope", "check"], '{"d": 2, "vertices": [[0.5, 0]]}', "MalformedInputError"),
    (["polytope", "check"], '{"d": 0, "vertices": [[]]}', "BadParameterError"),
    (["polytope", "check"], '{"d": 2, "vertices": []}', "NotFullDimensionalError"),
    (["verify-pair"], '{"d": 2, "b": {"d": 2, "vectors": [["1", "0"], ["0", "1"]]}}',
     "MalformedInputError"),
    (["conjecture", "-d", "2", "--slack"], '{"rows": 1, "cols": 1}', "MalformedInputError"),
    (["conjecture", "--catalog"], CATALOG_LINE_NO_MATRIX, "MalformedInputError"),
    (["stats"], CATALOG_LINE_NO_MATRIX, "MalformedInputError"),
    (["stats"], "{not json\n", "MalformedInputError"),
    (["audit"], CATALOG_LINE_NO_MATRIX, "MalformedInputError"),
    (["audit"], '{"d":2,"size_a":5,"size_b":2,"matrix":["01","10"],"key":"00"}\n',
     "MalformedInputError"),
    (["enumerate", "-d", "2", "--checkpoint"], '{"d": 2}', "CheckpointCorruptError"),
    (["stats", "CATALOG", "--reference"], "size_a,size_b\n2;2\n", "MalformedInputError"),
    (["polytope", "check"], '{"d": 2, "vertices": ["00", "10", "01"]}', "MalformedInputError"),
    (["polytope", "check"], '{"d": 1, "vertices": "01"}', "MalformedInputError"),
    (["verify-pair"], PAIR_WITH_A % '["00", "10", "01"]', "MalformedInputError"),
    (["polytope", "check"], '{"d": 2, "vertices": [[false, false], [true, false], [false, true]]}',
     "MalformedInputError"),
    (["verify-pair"], PAIR_WITH_A % '[[false, false], [true, false], [false, true]]',
     "MalformedInputError"),
    (["polytope", "check"], '{"d": 1, "vertices": [{"0": "x"}, {"1": "y"}]}',
     "MalformedInputError"),
    (["polytope", "check"], '{"d": true, "vertices": [[0], [1]]}', "MalformedInputError"),
    (["verify-pair"], PAIR_WITH_A % '[[0, 0], [1, 0, 0], [0, 1]]', "MalformedInputError"),
    *[(argv, tamper, "MalformedInputError")
      for argv in CATALOG_COMMANDS.values() for tamper in TAMPERED_CATALOGS.values()],
    # d below 1: the d=0 pair once verified valid (exit 0), the d=-1 one
    # failed to span (exit 2)
    (["verify-pair"], '{"d": 0, "a": {"d": 0, "vectors": [[]]}, "b": {"d": 0, "vectors": [[]]}}',
     "MalformedInputError"),
    (["verify-pair"], '{"d": -1, "a": {"d": -1, "vectors": []}, "b": {"d": -1, "vectors": []}}',
     "MalformedInputError"),
    *[(argv, D0_CATALOG, "MalformedInputError") for argv in CATALOG_COMMANDS.values()],
], ids=["polytope-missing", "polytope-float", "polytope-d0", "polytope-empty",
        "verify-pair", "conjecture-slack",
        "conjecture-catalog", "stats", "stats-not-json", "audit", "audit-shape", "enumerate-checkpoint",
        "stats-reference", "polytope-string-vertices", "polytope-string-vertex-list",
        "verify-pair-string-vectors", "polytope-bool", "verify-pair-bool",
        "polytope-mapping-vertices", "polytope-bool-d", "verify-pair-wrong-length",
        *[f"{cmd}-{name}" for cmd in CATALOG_COMMANDS for name in TAMPERED_CATALOGS],
        "verify-pair-d0", "verify-pair-d-1", *[f"{cmd}-d0" for cmd in CATALOG_COMMANDS]])
def test_malformed_input_file_is_exit_1(tmp_path, capsys, argv, text, error):
    if "CATALOG" in argv:
        cat = tmp_path / "cat2.jsonl"
        run(["enumerate", "-d", "2", "--out", str(cat)], capsys)
        argv = [str(cat) if a == "CATALOG" else a for a in argv]
    if callable(text):  # a tampered copy of the d=3 catalog
        text = text(_catalog_d3())
    f = tmp_path / "input.json"
    f.write_text(text)
    code, out, err = run(argv + [str(f)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == error


def test_audit_command(tmp_path, capsys):
    cat = tmp_path / "cat3.jsonl"
    run(["enumerate", "-d", "3", "--out", str(cat)], capsys)
    csv = tmp_path / "audit.csv"
    code, out, _ = run(["audit", str(cat), "--csv", str(csv)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and len(rep["entries"]) == 3
    lines = csv.read_text().splitlines()
    assert lines[0] == "key,size_a,size_b,bd_choices,pass"
    assert len(lines) == 4


def test_lemmas_command(capsys):
    code, out, _ = run(["lemmas", "--all", "--d", "6", "--seed", "1", "--trials", "500"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and len(rep["reports"]) == 5


def test_lemmas_lemslice_is_exhaustive_up_to_d3(capsys):
    code, out, _ = run(["lemmas", "--lemslice", "--d", "3"], capsys)
    assert code == 0
    assert json.loads(out)["reports"] == [
        {"d": 3, "mode": "exhaustive", "checked": 4374, "tight": 331}]
    code, out, _ = run(["lemmas", "--lemslice", "--d", "4", "--trials", "50"], capsys)
    assert code == 0 and json.loads(out)["reports"][0]["mode"] == "random"


def test_lemmas_usage_error(capsys):
    code, _, err = run(["lemmas"], capsys)
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--lemslice", "--trials", "0"], ["--lemslice", "--trials", "-5"],
    ["--lemslice", "--d", "0"], ["--lemslice", "--d", "-1"],
    # oracles whose first case lies above --d report checked == 0
    ["--binom", "--d", "2"], ["--lemma1", "--d", "2"], ["--inequality2", "--d", "1"],
    ["--all", "--d", "2"],
])
def test_lemmas_refuses_to_check_nothing(capsys, flags):
    code, out, err = run(["lemmas", *flags], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "BadParameterError"


@pytest.mark.parametrize("argv", [["polytope", "check"], ["conjecture", "-d", "4", "--slack"]])
def test_paths_with_no_json_file_are_refused(tmp_path, capsys, argv):
    """A directory with no .json file would check nothing and still pass."""
    (tmp_path / "notes.txt").write_text("not a polytope", encoding="ascii")
    code, out, err = run([*argv, str(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "BadParameterError"


def test_conjecture_catalog_and_slack(tmp_path, capsys):
    cat = tmp_path / "cat4.jsonl"
    run(["enumerate", "-d", "4", "--out", str(cat)], capsys)
    code, out, _ = run(["conjecture", "--catalog", str(cat)], capsys)
    assert code == 0 and json.loads(out)["pass"]

    from bsp.polytope import reference_slack

    sdir = tmp_path / "slacks"
    sdir.mkdir()
    for kind in ("cube", "suspension-cube"):
        (sdir / f"{kind}.json").write_text(
            json.dumps(reference_slack(kind, 6).to_json())
        )
    code, out, _ = run(["conjecture", "--slack", str(sdir), "-d", "6"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and len(rep["slacks"]) == 2


def test_conjecture_slack_takes_each_dimension_from_the_rank(tmp_path, capsys):
    from bsp.polytope import reference_slack

    sdir = tmp_path / "slacks"
    sdir.mkdir()
    for kind, d in (("cube", 4), ("suspension-cube", 6)):
        (sdir / f"{kind}-{d}.json").write_text(json.dumps(reference_slack(kind, d).to_json()))
    code, out, _ = run(["conjecture", "--slack", str(sdir)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    assert {os.path.basename(e["label"]): e["d"] for e in rep["slacks"]} == {
        "cube-4.json": 4, "suspension-cube-6.json": 6}
    cube = str(sdir / "cube-4.json")
    assert run(["conjecture", "--slack", cube, "-d", "4"], capsys)[0] == 0
    # -d is a cross-check: -1 once checked no k, 2 once found a k=0 violation
    for dim in ("-1", "2", "6"):
        code, out, err = run(["conjecture", "--slack", cube, "-d", dim], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "MalformedSlackError"
    (tmp_path / "rank1.json").write_text('{"rows": 1, "cols": 1, "bits": ["1"]}')
    code, out, err = run(["conjecture", "--slack", str(tmp_path / "rank1.json")], capsys)
    assert code == 1 and out == ""
    assert json.loads(err.strip().splitlines()[-1])["error"] == "MalformedSlackError"


def test_io_error_is_exit_1(capsys):
    code, _, err = run(["stats", "/nonexistent/cat.jsonl"], capsys)
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == "io"


def test_stats_reference_mismatch_exit2(tmp_path, capsys):
    cat = tmp_path / "cat2.jsonl"
    run(["enumerate", "-d", "2", "--out", str(cat)], capsys)
    ref = tmp_path / "ref.csv"
    ref.write_text("size_a,size_b\n2,2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(["stats", str(cat), "--reference", str(ref)], capsys)
    assert code == 2
    assert not json.loads(out)["reference"]["equal"]
    # the reference file is closed, not left to the garbage collector
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_svg_artifacts_deterministic(tmp_path, capsys):
    cat = tmp_path / "cat3.jsonl"
    run(["enumerate", "-d", "3", "--out", str(cat)], capsys)
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["stats", str(cat), "--svg", str(s1), "--min-product-svg", str(s2)], capsys)
    again1, again2 = tmp_path / "a2.svg", tmp_path / "b2.svg"
    run(["stats", str(cat), "--svg", str(again1), "--min-product-svg", str(again2)], capsys)
    assert s1.read_bytes() == again1.read_bytes()
    assert s2.read_bytes() == again2.read_bytes()


def test_json_artifacts_reparse(tmp_path, capsys):
    # round-trip: every emitted JSON artifact parses back to equal values
    code, out, _ = run(["example", "--kind", "example5", "-d", "4", "-k", "2"], capsys)
    from bsp.family import BspPair

    pair = BspPair.from_json(json.loads(out))
    assert json.loads(out) == pair.to_json()


def test_usage_error_is_exit_1_not_2(capsys):
    assert main(["totally-bogus-command"]) == 1
    assert main(["enumerate"]) == 1  # missing required -d
    assert main(["enumerate", "-d", "2", "--workers", "0"]) == 1
    assert main(["--help"]) == 0


def test_info_reports_backend_and_c_kernel(capsys, monkeypatch):
    code, out, _ = run(["info"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["backend"] == kernel.BACKEND
    assert info["python"] == platform.python_version()
    assert isinstance(info["cpus"], int) and 1 <= info["cpus"] <= os.cpu_count()
    caches = info["python_kernel_caches"]
    assert sorted(caches) == ["forms", "patterns", "selectors", "tables"]
    assert all(isinstance(n, int) and n >= 0 for n in caches.values())
    if kernel.BACKEND == "c":
        assert info["c_kernel"] == {"loads": True}

    real = kernel.get_backend
    for error in ("the C kernel is not built", None):
        def get_backend(name=None, error=error):
            if name == "c" and error:
                raise ImportError(error)
            return real("python" if name == "c" else name)

        monkeypatch.setattr(kernel, "get_backend", get_backend)
        code, out, _ = run(["info"], capsys)
        assert code == 0
        want = {"loads": False, "error": error} if error else {"loads": True}
        assert json.loads(out)["c_kernel"] == want
