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

import contextlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from importlib import resources
from time import monotonic

from . import kernel
from .canon import canonical_from_key, canonical_key, rows_key
from .errors import BadParameterError, CheckpointCorruptError, MalformedInputError, parsing
from .family import ProductMatrix
from .linalg import int_field

MAX_DIM = kernel.MAX_DIM


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
        """The catalog in ``text``.  Raises MalformedInputError, before any
        verdict is drawn from it, unless every line has the catalog's d,
        a matrix of rank d with distinct rows, distinct columns, a zero
        row and a zero column (both families hold 0 and span, so a
        product matrix has all four) and that matrix's canonical key up
        to transpose, and no key repeats."""
        classes = {}
        d = None
        for line in text.splitlines():
            if not line.strip():
                continue
            with parsing("catalog line"):
                obj = json.loads(line)
                line_d, key = int_field(obj["d"]), bytes.fromhex(obj["key"])
                shape = {"rows": obj["size_a"], "cols": obj["size_b"], "bits": obj["matrix"]}
            mat = ProductMatrix.from_json(shape)
            d = line_d if d is None else d
            if line_d != d:
                raise MalformedInputError(f"catalog line: d = {line_d} after d = {d}")
            if mat.rank_d != d:
                raise MalformedInputError(f"catalog line: matrix rank {mat.rank_d} != d = {d}")
            for name, bits in (("row", mat.bits), ("column", mat.column_bits())):
                if len(set(bits)) != len(bits):
                    raise MalformedInputError(f"catalog line: a {name} of the matrix repeats")
                if all("1" in x for x in bits):
                    raise MalformedInputError(f"catalog line: the matrix has no zero {name}")
            if canonical_key(mat, include_transpose=True) != key:
                raise MalformedInputError(f"catalog line: key {key.hex()} is not its matrix's")
            if key in classes:
                raise MalformedInputError(f"catalog line: key {key.hex()} repeats")
            classes[key] = CatalogClass(mat.m, mat.n, mat, key)
        if d is None:
            raise MalformedInputError("empty catalog")
        return cls(d, tuple(classes[k] for k in sorted(classes)), complete=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "Catalog":
        with open(path, encoding="ascii") as fh:
            return cls.from_jsonl(fh.read())


def branch_split(d: int) -> int:
    """Number of most-significant ground elements fixed per branch."""
    return max(0, min(4 * (d - 3), (1 << d) - 1 - 8))


def _run_branch(args: tuple[int, int, int]):
    d, top_count, p_index = args
    return (p_index, *kernel.enum_branch(d, top_count, p_index))


def _classify(args: tuple[int, int]) -> bytes:
    """Canonical key, up to transpose, of the product matrix of a closed
    spanning set."""
    d, mask = args
    return rows_key(*kernel.pair_rows(d, mask), include_transpose=True)


def _catalog(d: int, keys) -> Catalog:
    classes = []
    for key in sorted(keys):
        mat = canonical_from_key(key, d)
        classes.append(CatalogClass(mat.m, mat.n, mat, key))
    return Catalog(d, tuple(classes), complete=True)


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
        if int_field(payload["d"]) != d or int_field(payload["top_count"]) != top_count:
            raise CheckpointCorruptError(
                f"checkpoint is for d={payload.get('d')}, top={payload.get('top_count')}"
            )
        done = set(map(int_field, payload["done_branches"]))
        partial = {bytes.fromhex(h): int_field(m) for h, m in payload["partial_keys"]}
        if not all(0 <= b < (1 << top_count) for b in done):
            raise CheckpointCorruptError("branch index out of range")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorruptError(str(exc)) from exc
    for hb, mask in partial.items():
        # range first: the C kernel rejects a mask out of range with ValueError
        if not (0 < mask < 1 << (1 << d)
                and kernel.closure_and_rank(d, mask) == (mask, d)
                and kernel.heuristic_form(*kernel.pair_rows(d, mask)) == hb):
            raise CheckpointCorruptError(
                f"mask {mask} is not a closed spanning set with form {hb.hex()}"
            )
    return done, partial


def enumerate_catalog(
    d: int,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    progress=None,
) -> Catalog:
    """Catalog of all closed spanning pairs in dimension d, one class per
    isomorphism type (up to transpose).  Deterministic: the result is
    independent of the worker count and of the kernel backend.

    ``workers`` (default 1) caps the worker processes; no more are started
    than there are branches left to run.  ``progress`` receives one line
    per finished branch, with the elapsed seconds and an ETA from the mean
    time per branch finished in this call."""
    if not 1 <= d <= MAX_DIM:
        raise BadParameterError(f"d must be in [1, {MAX_DIM}]")
    if workers is not None and workers < 1:
        raise BadParameterError(f"workers must be at least 1, got {workers}")
    top_count = branch_split(d)
    nbranches = 1 << top_count

    done: set[int] = set()
    merged: dict[bytes, int] = {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        done, merged = _checkpoint_read(checkpoint_path, d, top_count)
    args = [(d, top_count, p) for p in range(nbranches) if p not in done]

    nworkers = min(workers or 1, len(args))
    parallel = nworkers > 1
    start, resumed = monotonic(), len(done)
    with multiprocessing.Pool(nworkers) if parallel else contextlib.nullcontext() as pool:
        run = pool.imap_unordered if parallel else map
        for p_index, visited, spanning, items in run(_run_branch, args):
            for hb, mask in items:
                prev = merged.get(hb)
                if prev is None or mask < prev:
                    merged[hb] = mask
            done.add(p_index)
            if checkpoint_path:
                _checkpoint_write(checkpoint_path, d, top_count, done, merged)
            if progress:
                elapsed = monotonic() - start
                eta = elapsed / (len(done) - resumed) * (nbranches - len(done))
                progress(f"branch {len(done)}/{nbranches} done "
                         f"({visited} closed, {spanning} spanning), "
                         f"{elapsed:.1f} s elapsed, ETA {eta:.1f} s")

        forms = [(d, mask) for mask in merged.values()]
        if parallel and len(forms) > 1000:
            keys = set(pool.map(_classify, forms, chunksize=256))
        else:
            keys = set(map(_classify, forms))

    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return _catalog(d, keys)


def brute_force(d: int) -> Catalog:
    """Independent oracle for d <= 3: iterate over every subset of the
    cube containing 0, keep spanning closure fixpoints, canonicalize.

    Runs on the pure-Python kernel so that comparing it with
    :func:`enumerate_catalog` cross-checks both the search strategy and
    the compiled backend.
    """
    if not 1 <= d <= 3:
        raise BadParameterError("brute force is meant for d <= 3")
    impl = kernel.get_backend("python")
    keys = set()
    for bits in range(1 << ((1 << d) - 1)):
        sset = bits << 1
        if impl.closure_and_rank(d, sset) == (sset, d):
            keys.add(rows_key(*impl.pair_rows(d, sset), include_transpose=True))
    return _catalog(d, keys)


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


def parse_reference_csv(text: str) -> list[tuple[int, int]]:
    """The (size_a, size_b) rows of a reference CSV of achievable sizes."""
    out = []
    with parsing("reference csv"):
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
    return parse_reference_csv(text)
