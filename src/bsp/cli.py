"""Command-line surface.

Exit codes: 0 = all checks passed, 2 = a verification failed (with the
report still written), 1 = usage or IO error.  Errors are reported as a
JSON object on stderr; machine-readable artifacts go to --out or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from . import kernel
from .bounds import check_conjecture1, check_thm3, check_thm4
from .constructions import KINDS as EXAMPLE_KINDS
from .constructions import construct_example
from .decomposition import audit_pair, check_lemslice
from .enumeration import (
    Catalog,
    enumerate_catalog,
    parse_reference_csv,
    stats,
    verify_against_reference,
)
from .errors import BspError
from .family import BspPair, ProductMatrix, pair_from_product_matrix, verify_binary_products
from .lemmas import check_binom_bound, check_inequality2, check_lemma1, check_lemma2
from .polytope import (
    POLYTOPE_KINDS,
    Polytope2L,
    audit_conjecture_on_slacks,
    check_thm1,
    check_thm2,
    construct_polytope,
    detect_special,
    extract_pair,
)
from .svg import min_product_svg, size_scatter_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def cmd_enumerate(args) -> int:
    cat = enumerate_catalog(
        args.dim,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    if args.out:
        cat.save(args.out)
    else:
        sys.stdout.write(cat.to_jsonl())
    print(f"d={args.dim}: {len(cat)} classes", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    cat = Catalog.load(args.catalog)
    s = stats(cat)
    summary = {
        "d": s.d,
        "classes": len(cat),
        "achievable_count": len(s.achievable),
        "maximal_pairs": [list(p) for p in s.maximal_pairs],
        "max_product": s.max_product,
        "kernel": kernel.BACKEND,
    }
    status = EXIT_OK
    if args.csv:
        _write(args.csv, s.to_csv())
    if args.maximal_csv:
        lines = ["size_a,size_b"] + [f"{m},{n}" for m, n in s.maximal_pairs]
        _write(args.maximal_csv, "\n".join(lines) + "\n")
    if args.svg:
        _write(args.svg, size_scatter_svg(s.fig_size_points(), s.d))
    if args.min_product_svg:
        _write(args.min_product_svg, min_product_svg(s.fig_min_product_points(), s.d))
    if args.reference:
        with open(args.reference, encoding="ascii") as fh:
            reference = parse_reference_csv(fh.read())
        diff = verify_against_reference(s, reference)
        summary["reference"] = {
            "equal": diff.equal,
            "missing": [list(p) for p in diff.missing],
            "extra": [list(p) for p in diff.extra],
        }
        if not diff.equal:
            status = EXIT_VERIFY
    _emit(summary, args.out)
    return status


def cmd_verify_pair(args) -> int:
    pair = BspPair.parse_json(_read_json(args.pair))
    try:
        pair.validate()
    except (BspError, ValueError) as exc:
        report = {"valid": False, "reason": str(exc)}
        witness = verify_binary_products(pair.family_a, pair.family_b)
        if witness is not None:
            report["witness"] = [[str(c) for c in witness.a], [str(c) for c in witness.b],
                                 str(witness.value)]
        _emit(report, args.out)
        return EXIT_VERIFY
    t4 = check_thm4(pair)
    t3 = check_thm3(pair)
    report = {
        "valid": True,
        "size_a": len(pair.family_a),
        "size_b": len(pair.family_b),
        "product": pair.product(),
        "checks": [t4.to_json(), t3.to_json()],
    }
    _emit(report, args.out)
    return EXIT_OK if t4.passed and t3.passed else EXIT_VERIFY


def cmd_example(args) -> int:
    pair = construct_example(args.kind, args.dim, k=args.k)
    _emit(pair.to_json(), args.out)
    return EXIT_OK


def _json_files(paths: list[str]) -> list[str]:
    """The paths, each directory replaced by its .json files in name order."""
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".json")
            )
        else:
            files.append(p)
    return files


def cmd_polytope_check(args) -> int:
    status = EXIT_OK
    reports = []
    polytopes = [(f, Polytope2L.from_json(_read_json(f))) for f in _json_files(args.files)]
    for label, poly in polytopes:
        entry = {
            "file": label,
            "d": poly.d,
            "f0": poly.f0,
            "facets": poly.n_facets,
            "two_level": poly.two_level,
        }
        if poly.two_level:
            t1 = check_thm1(poly)
            t2 = check_thm2(poly)
            pair = extract_pair(poly)
            entry["special"] = detect_special(poly)
            entry["checks"] = [t1.to_json(), t2.to_json()]
            entry["pair_sizes"] = list(pair.sizes())
            if not (t1.passed and t2.passed):
                status = EXIT_VERIFY
        else:
            status = EXIT_VERIFY
        reports.append(entry)
    _emit({"polytopes": reports}, args.out)
    return status


def cmd_polytope_example(args) -> int:
    poly = construct_polytope(args.kind, args.dim)
    _emit(poly.to_json(), args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    cat = Catalog.load(args.catalog)
    entries = []
    rows = ["key,size_a,size_b,bd_choices,pass"]
    status = EXIT_OK
    for cls in cat.classes:
        pair = pair_from_product_matrix(cls.matrix, cat.d)
        results = audit_pair(pair, all_tied=True)
        ok = all(rep.all_pass for _, rep in results)
        if not ok:
            status = EXIT_VERIFY
        entries.append(
            {
                "key": cls.key_hex(),
                "size_a": cls.size_a,
                "size_b": cls.size_b,
                "bd_choices": len(results),
                "pass": ok,
                "claims": [
                    {"b_d": [str(c) for c in bd], "items": rep.to_json()}
                    for bd, rep in results
                ],
            }
        )
        rows.append(
            f"{cls.key_hex()},{cls.size_a},{cls.size_b},{len(results)},{int(ok)}"
        )
    if args.csv:
        _write(args.csv, "\n".join(rows) + "\n")
    _emit({"d": cat.d, "entries": entries, "pass": status == EXIT_OK}, args.out)
    return status


def cmd_lemmas(args) -> int:
    reports = []
    if args.all or args.inequality2:
        reports.append(check_inequality2(args.dmax).to_json())
    if args.all or args.binom:
        reports.append(check_binom_bound(args.dmax).to_json())
    if args.all or args.lemma1:
        reports.append(check_lemma1(min(args.dmax, 13)).to_json())
    if args.all or args.lemma2:
        reports.append(check_lemma2(min(args.dmax, 6)).to_json())
    if args.all or args.lemslice:
        d = min(args.dmax, 5)
        mode = "exhaustive" if d <= 3 else "random"
        reports.append(
            check_lemslice(d, mode=mode, seed=args.seed, trials=args.trials).to_json()
        )
    if not reports:
        print("nothing selected; use --all or a specific oracle flag", file=sys.stderr)
        return EXIT_USAGE
    ok = all(r.get("pass", True) for r in reports)
    _emit({"reports": reports, "pass": ok}, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_conjecture(args) -> int:
    status = EXIT_OK
    payload = {}
    if args.catalog:
        cat = Catalog.load(args.catalog)
        s = stats(cat)
        violations = check_conjecture1(sorted(s.achievable), cat.d)
        payload["catalog"] = {
            "d": cat.d,
            "sizes_checked": len(s.achievable),
            "violations": [v.to_json() for v in violations],
        }
        if violations:
            status = EXIT_VERIFY
    if args.slack:
        slacks = [(f, ProductMatrix.from_json(_read_json(f))) for f in _json_files(args.slack)]
        entries = audit_conjecture_on_slacks(slacks, args.dim)
        payload["slacks"] = [e.to_json() for e in entries]
        if any(not e.passed for e in entries):
            status = EXIT_VERIFY
    if not payload:
        print("need --catalog or --slack", file=sys.stderr)
        return EXIT_USAGE
    payload["pass"] = status == EXIT_OK
    _emit(payload, args.out)
    return status


def cmd_info(args) -> int:
    try:
        kernel.get_backend("c")
        c_kernel = {"loads": True}
    except ImportError as exc:
        c_kernel = {"loads": False, "error": str(exc)}
    caches = kernel.get_backend("python").CACHES
    _emit({
        "backend": kernel.BACKEND,
        "c_kernel": c_kernel,
        "python": platform.python_version(),
        # entries held by the pure-Python kernel's caches in this process
        "python_kernel_caches": {name: len(cache) for name, cache in caches.items()},
    }, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsp",
        description="Binary scalar product families and 2-level polytopes, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate maximal pairs for a dimension")
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("--out", help="catalog JSONL path (default stdout)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default 1; at most one per branch)")
    p.add_argument("--checkpoint", help="checkpoint JSON path (resume if present)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("stats", help="size statistics of a catalog")
    p.add_argument("catalog")
    p.add_argument("--out")
    p.add_argument("--csv", help="achievable sizes CSV")
    p.add_argument("--maximal-csv", help="product-order maximal pairs CSV")
    p.add_argument("--svg", help="size scatter SVG")
    p.add_argument("--min-product-svg", help="min-size versus product SVG")
    p.add_argument("--reference", help="reference CSV of achievable sizes")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify-pair", help="validate a pair JSON file ('-' = stdin)")
    p.add_argument("pair")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_pair)

    p = sub.add_parser("example", help="construct a named example pair")
    p.add_argument("--kind", choices=EXAMPLE_KINDS, required=True)
    p.add_argument("-d", "--dim", type=int, required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("polytope", help="2-level polytope tools")
    psub = p.add_subparsers(dest="poly_command", required=True)
    pc = psub.add_parser("check", help="check vertex-list JSON files")
    pc.add_argument("files", nargs="+")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_polytope_check)
    pe = psub.add_parser("example", help="construct a named polytope")
    pe.add_argument("--kind", choices=POLYTOPE_KINDS, required=True)
    pe.add_argument("-d", "--dim", type=int, required=True)
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_polytope_example)

    p = sub.add_parser("audit", help="decomposition claims over a catalog")
    p.add_argument("catalog")
    p.add_argument("--csv", help="one row per catalog entry")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("lemmas", help="combinatorial lemma oracles")
    p.add_argument("--all", action="store_true")
    p.add_argument("--d", dest="dmax", type=int, default=10)
    p.add_argument("--inequality2", action="store_true")
    p.add_argument("--binom", action="store_true")
    p.add_argument("--lemma1", action="store_true")
    p.add_argument("--lemma2", action="store_true")
    p.add_argument("--lemslice", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("conjecture", help="generalized bound audit")
    p.add_argument("--catalog")
    p.add_argument("--slack", nargs="*", help="slack matrix JSON files or directories")
    p.add_argument("-d", "--dim", type=int, default=None,
                   help="dimension for slack audits")
    p.add_argument("--out")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("info", help="kernel backend, C kernel status and Python version")
    p.add_argument("--out")
    p.set_defaults(func=cmd_info)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract
        # reserves 2 for verification failures
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command == "conjecture" and args.slack and args.dim is None:
        print(json.dumps({"error": "usage", "message": "--slack requires -d"}),
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except BspError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_USAGE
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(json.dumps({"error": "value", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
