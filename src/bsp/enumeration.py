"""Isomorph-free exhaustive generation of maximal pairs.

Coordinates are fixed so that a basis of A is the standard basis; B then
ranges over spanning subsets of {0,1}^d containing 0, and the maximal
pairs are exactly the fixpoints of the closure operator b_max . a_max on
that finite lattice.  Fixpoints are enumerated in lectic order
(Next-Closure); the run is split into independent branches by the
membership pattern on the lectically most significant cube points, which
gives worker parallelism and branch-level checkpointing for free.
Classes are deduplicated by the canonical key of the product matrix, with
transpose.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from importlib import resources
from operator import index

from . import kernel
from .canon import canonical_from_key, canonical_key
from .errors import BadParameterError, CheckpointCorruptError, parsing
from .family import ProductMatrix

MAX_DIM = 6  # kernel bitsets are 64-bit wide


@dataclass(frozen=True)
class CatalogClass:
    size_a: int
    size_b: int
    matrix: ProductMatrix  # canonical representative
    key: bytes

    def key_hex(self) -> str:
        return self.key.hex()


@dataclass(frozen=True)
class Catalog:
    d: int
    classes: tuple[CatalogClass, ...]  # sorted by key
    complete: bool

    def __len__(self) -> int:
        return len(self.classes)

    def size_pairs(self) -> set[tuple[int, int]]:
        """Class size pairs, symmetrized under transpose."""
        out: set[tuple[int, int]] = set()
        for c in self.classes:
            out.add((c.size_a, c.size_b))
            out.add((c.size_b, c.size_a))
        return out

    def key_set(self) -> set[bytes]:
        return {c.key for c in self.classes}

    def to_jsonl(self) -> str:
        lines = []
        for c in self.classes:
            lines.append(
                json.dumps(
                    {
                        "d": self.d,
                        "size_a": c.size_a,
                        "size_b": c.size_b,
                        "matrix": list(c.matrix.bits),
                        "key": c.key_hex(),
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "Catalog":
        classes = []
        d = None
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            with parsing("catalog line"):
                line_d, key = index(obj["d"]), bytes.fromhex(obj["key"])
                shape = {"rows": obj["size_a"], "cols": obj["size_b"], "bits": obj["matrix"]}
            mat = ProductMatrix.from_json(shape)
            d = line_d if d is None else d
            if line_d != d:
                raise ValueError("mixed dimensions in catalog")
            classes.append(CatalogClass(mat.m, mat.n, mat, key))
        if d is None:
            raise ValueError("empty catalog")
        classes.sort(key=lambda c: c.key)
        return cls(d, tuple(classes), complete=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "Catalog":
        with open(path, encoding="ascii") as fh:
            return cls.from_jsonl(fh.read())


def resolve_workers(workers: int | None) -> int:
    env = os.environ.get("BSP_WORKERS")
    if env:
        return max(1, int(env))
    if workers is None:
        return 1
    return max(1, workers)


def branch_split(d: int) -> int:
    """Number of most-significant ground elements fixed per branch."""
    return max(0, min(4 * (d - 3), (1 << d) - 1 - 8))


def _run_branch(args: tuple[int, int, int, str | None]):
    d, top_count, p_index, backend = args
    impl = kernel.get_backend(backend)
    visited, spanning, items = impl.enum_branch(d, top_count, p_index)
    return p_index, visited, spanning, items


def _classify(args: tuple[int, bytes, int, str | None]):
    d, _hform, mask, backend = args
    impl = kernel.get_backend(backend)
    rows, n = impl.pair_rows(d, mask)
    bits = tuple(format(r, f"0{n}b") for r in rows)
    # enum_branch only yields spanning closed sets, so the rank is d
    mat = ProductMatrix(len(rows), n, bits, d)
    key = canonical_key(mat, include_transpose=True)
    return key, mask


def _checkpoint_write(path: str, d: int, top_count: int, done: set[int],
                      partial: dict[bytes, int]) -> None:
    payload = {
        "d": d,
        "top_count": top_count,
        "done_branches": sorted(done),
        "partial_keys": [[hb.hex(), mask] for hb, mask in sorted(partial.items())],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _checkpoint_read(path: str, d: int, top_count: int) -> tuple[set[int], dict[bytes, int]]:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
        if payload["d"] != d or payload["top_count"] != top_count:
            raise CheckpointCorruptError(
                f"checkpoint is for d={payload.get('d')}, top={payload.get('top_count')}"
            )
        done = set(payload["done_branches"])
        partial = {bytes.fromhex(h): int(m) for h, m in payload["partial_keys"]}
        if not all(0 <= b < (1 << top_count) for b in done):
            raise CheckpointCorruptError("branch index out of range")
        return done, partial
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorruptError(str(exc)) from exc


def enumerate_catalog(
    d: int,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    backend: str | None = None,
    progress=None,
) -> Catalog:
    """Catalog of all closed spanning pairs in dimension d, one class per
    isomorphism type (up to transpose).  Deterministic: the result is
    independent of the worker count and of the kernel backend."""
    if not 1 <= d <= MAX_DIM:
        raise BadParameterError(f"d must be in [1, {MAX_DIM}]")
    nworkers = resolve_workers(workers)
    top_count = branch_split(d)
    branches = list(range(1 << top_count))

    done: set[int] = set()
    merged: dict[bytes, int] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        done, merged = _checkpoint_read(checkpoint_path, d, top_count)
    todo = [b for b in branches if b not in done]

    def merge(items) -> None:
        for hb, mask in items:
            prev = merged.get(hb)
            if prev is None or mask < prev:
                merged[hb] = mask

    args = [(d, top_count, p, backend) for p in todo]
    if nworkers > 1 and len(todo) > 1:
        with multiprocessing.Pool(nworkers) as pool:
            for p_index, visited, spanning, items in pool.imap_unordered(
                _run_branch, args
            ):
                merge(items)
                done.add(p_index)
                if checkpoint_path:
                    _checkpoint_write(checkpoint_path, d, top_count, done, merged)
                if progress:
                    progress(f"branch {len(done)}/{len(branches)} done "
                             f"({visited} closed, {spanning} spanning)")
    else:
        for a in args:
            p_index, visited, spanning, items = _run_branch(a)
            merge(items)
            done.add(p_index)
            if checkpoint_path:
                _checkpoint_write(checkpoint_path, d, top_count, done, merged)
            if progress:
                progress(f"branch {len(done)}/{len(branches)} done "
                         f"({visited} closed, {spanning} spanning)")

    classes: dict[bytes, int] = {}
    cargs = [(d, hb, mask, backend) for hb, mask in sorted(merged.items())]
    if nworkers > 1 and len(cargs) > 1000:
        with multiprocessing.Pool(nworkers) as pool:
            results = pool.map(_classify, cargs, chunksize=256)
    else:
        results = [_classify(a) for a in cargs]
    for key, mask in results:
        prev = classes.get(key)
        if prev is None or mask < prev:
            classes[key] = mask

    out = []
    for key in sorted(classes):
        mat = canonical_from_key(key)
        out.append(CatalogClass(mat.m, mat.n, mat, key))
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return Catalog(d, tuple(out), complete=True)


def brute_force(d: int, backend: str = "python") -> Catalog:
    """Independent oracle for d <= 3: iterate over every subset of the
    cube containing 0, keep spanning closure fixpoints, canonicalize.

    Runs on the pure-Python kernel by default so that comparing it with
    :func:`enumerate_catalog` cross-checks both the search strategy and
    the compiled backend.
    """
    if not 1 <= d <= 3:
        raise BadParameterError("brute force is meant for d <= 3")
    impl = kernel.get_backend(backend)
    classes: dict[bytes, int] = {}
    for bits in range(1 << ((1 << d) - 1)):
        sset = bits << 1
        closed, rank = impl.closure_and_rank(d, sset)
        if closed != sset or rank != d:
            continue
        rows, n = impl.pair_rows(d, sset)
        rbits = tuple(format(r, f"0{n}b") for r in rows)
        mat = ProductMatrix(len(rows), n, rbits, d)
        key = canonical_key(mat, include_transpose=True)
        prev = classes.get(key)
        if prev is None or sset < prev:
            classes[key] = sset
    out = []
    for key in sorted(classes):
        mat = canonical_from_key(key)
        out.append(CatalogClass(mat.m, mat.n, mat, key))
    return Catalog(d, tuple(out), complete=True)


# ---------------------------------------------------------------------------
# size statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeStats:
    d: int
    achievable: frozenset[tuple[int, int]]
    maximal_pairs: tuple[tuple[int, int], ...]
    max_product: int

    def fig_size_points(self) -> list[tuple[int, int]]:
        """Sorted achievable (|A|, |B|) pairs (size-versus-size scatter)."""
        return sorted(self.achievable)

    def fig_min_product_points(self) -> list[tuple[int, int]]:
        """Sorted (min size, product) projections of the achievable set."""
        return sorted({(min(m, n), m * n) for m, n in self.achievable})

    def to_csv(self) -> str:
        lines = ["size_a,size_b"]
        lines += [f"{m},{n}" for m, n in self.fig_size_points()]
        return "\n".join(lines) + "\n"


def stats(catalog: Catalog) -> SizeStats:
    """Achievable sizes are the downward closure of the class size pairs:
    a spanning subfamily can always keep a basis and drop the rest, and
    every spanning pair extends to a closed one."""
    d = catalog.d
    pairs = catalog.size_pairs()
    achievable: set[tuple[int, int]] = set()
    for m, n in pairs:
        achievable.update(
            (a, b) for a in range(d, m + 1) for b in range(d, n + 1)
        )
    maximal = tuple(
        sorted(
            p
            for p in pairs
            if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)
        )
    )
    max_product = max((m * n for m, n in pairs), default=0)
    return SizeStats(d, frozenset(achievable), maximal, max_product)


@dataclass(frozen=True)
class DiffReport:
    missing: tuple[tuple[int, int], ...]  # in reference, not computed
    extra: tuple[tuple[int, int], ...]  # computed, not in reference

    @property
    def equal(self) -> bool:
        return not self.missing and not self.extra


def verify_against_reference(s: SizeStats, reference: list[tuple[int, int]]) -> DiffReport:
    ref = {(int(a), int(b)) for a, b in reference}
    got = set(s.achievable)
    return DiffReport(
        missing=tuple(sorted(ref - got)),
        extra=tuple(sorted(got - ref)),
    )


def load_reference_csv(path_or_text: str, from_text: bool = False) -> list[tuple[int, int]]:
    text = path_or_text if from_text else open(path_or_text, encoding="ascii").read()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("size_a"):
            continue
        a, b = line.split(",")
        out.append((int(a), int(b)))
    return out


def figure1_reference() -> list[tuple[int, int]]:
    """The d=5 achievable-size reference table shipped with the package."""
    text = resources.files("bsp.data").joinpath("figure1_d5.csv").read_text("ascii")
    return load_reference_csv(text, from_text=True)
