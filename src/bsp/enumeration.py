"""Isomorph-free exhaustive generation of maximal pairs.

Coordinates are fixed so that a basis of A is the standard basis; B then
ranges over spanning subsets of {0,1}^d containing 0, and the maximal
pairs are exactly the fixpoints of the closure operator b_max . a_max on
that finite lattice.  The run is split into independent branches by the
membership pattern on the lectically most significant cube points, which
gives worker parallelism and branch-level checkpointing for free.  Both
kernels walk the fixpoints of a branch as the same Close-by-One tree
(FCbO, described in :mod:`bsp._kernel_py`).
A branch returns each spanning closed set as the heuristic form of its
product matrix.  The forms are merged, and each is replaced by the form of
its orientation with fewer rows, so transposed copies meet.  The forms
left are grouped by an invariant of transpose-equivalence: the shape and
the row and column degree multisets.  Within a group a form is keyed, up
to transpose, by an exact search only when no key already found in the
group certifies it (:func:`bsp.canon.has_key`): one search per class.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from time import monotonic

from . import kernel
from .canon import canonical_from_key, canonical_key, has_key, rows_key, transpose
from .errors import (
    BadParameterError,
    CheckpointCorruptError,
    MalformedInputError,
    WorkerDiedError,
    parsing,
)
from .family import ProductMatrix
from .linalg import int_field

MAX_DIM = kernel.MAX_DIM


@dataclass(frozen=True)
class CatalogClass:
    matrix: ProductMatrix  # canonical representative
    key: bytes

    @property
    def size_a(self) -> int:
        return self.matrix.m

    @property
    def size_b(self) -> int:
        return self.matrix.n

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
            classes[key] = CatalogClass(mat, key)
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


def _oriented(form: bytes) -> bytes:
    """The heuristic form of the matrix that ``form`` holds, taken in the
    orientation with fewer rows; of a square matrix, the smaller of the
    form and its transpose's form.  The result holds the same matrix up to
    permutations and transpose, so it has the same key, and transposed
    copies of one matrix meet.

    Kept rather than leaving transposed copies to ``has_key`` with the
    transpose flag, which certifies them directly: on the 25,502 merged
    d=5 forms (2 shared cores, Python 3.11, CPU, median of 3) this takes
    0.46 s of a classification that takes 1.23 s with it and 1.78 s
    without it, when all 25,502 forms rather than 11,845 reach the
    certificates and searches; at d=4, 2.6 ms of 7.4 ms against 9.2 ms."""
    rows, n = kernel.form_rows(form)
    if len(rows) < n:
        return form
    flipped = kernel.heuristic_form(transpose(rows, n), len(rows))
    return flipped if len(rows) > n else min(form, flipped)


def _invariant(form: bytes) -> tuple:
    """Shape and row and column degree multisets of the matrix an
    oriented form holds, the two multisets unordered when it is square so
    that its transpose agrees: forms that differ here have different
    keys."""
    rows, n = kernel.form_rows(form)
    degrees = [tuple(sorted(x.bit_count() for x in xs)) for xs in (rows, transpose(rows, n))]
    return (len(rows), n, *(sorted(degrees) if len(rows) == n else degrees))


def _classify(forms: list[bytes]) -> list[bytes]:
    """Canonical keys, up to transpose, of the matrices that one group of
    forms holds, one per class: a form is searched only when no key found
    before certifies it, so every search finds a new class."""
    keys: list[bytes] = []
    for form in forms:
        rows, n = kernel.form_rows(form)
        if not any(has_key(rows, n, key, include_transpose=True) for key in keys):
            keys.append(rows_key(rows, n, include_transpose=True))
    return keys


def _catalog(d: int, keys) -> Catalog:
    classes = []
    for key in sorted(keys):
        mat = canonical_from_key(key, d)
        classes.append(CatalogClass(mat, key))
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


def _worker(fn, tasks, span, conn) -> None:
    """A child's loop: take the task at the front of ``span`` (the shared
    ``[front, back)`` range of tasks not yet taken) and send ``(True,
    fn(task))``, until the range is empty; then send None.  A task that
    raises sends ``(False, exc)`` and ends the loop."""
    with conn:
        while True:
            with span.get_lock():
                i = span[0]
                if i >= span[1]:
                    break
                span[0] = i + 1
            try:
                out = (True, fn(tasks[i]))
            except Exception as exc:
                conn.send((False, exc))
                return
            conn.send(out)
        conn.send(None)


def _run_all(fn, tasks: list, nworkers: int):
    """Yield ``fn(task)`` for every task, in no fixed order, from
    ``min(nworkers, len(tasks))`` workers: this process and one child
    process per other worker.  The children take tasks from the front of
    the list, this process from the back, where the cheap branches are;
    after each task of its own it yields whatever results the children
    have sent, without waiting for more.  With one worker the tasks run
    here, in order.

    A task that raises in a child raises the same exception here.  A child
    that ends without sending the results of the tasks it took (killed, or
    out of memory) raises WorkerDiedError rather than leaving the caller
    waiting.  However the generator ends, every child is ended and joined
    and every pipe closed.

    Children start by the default method.  Fork, the default on Linux
    before Python 3.14, starts a child with this process's kernel caches
    warm, which is what lets a second worker pay at d=4; under spawn or
    forkserver each child imports bsp afresh and receives ``fn``, the
    tasks, the shared range and its pipe pickled."""
    nworkers = min(nworkers, len(tasks))
    if nworkers <= 1:
        yield from map(fn, tasks)
        return
    import multiprocessing  # here, so that commands that start no child skip its imports
    from multiprocessing.connection import wait

    span = multiprocessing.Array("q", [0, len(tasks)])
    pipes: list = []  # the read end of each child's pipe
    children: dict = {}  # read end -> its started child
    try:
        for _ in range(nworkers - 1):
            recv_end, send_end = multiprocessing.Pipe(duplex=False)
            pipes.append(recv_end)
            _widen(recv_end)
            child = multiprocessing.Process(target=_worker, args=(fn, tasks, span, send_end),
                                            daemon=True)
            with send_end:  # then the child holds the only write end: its death is EOF here
                child.start()
            children[recv_end] = child
        running = list(children)
        while True:
            with span.get_lock():
                i = span[1] - 1
                if i < span[0]:
                    break
                span[1] = i
            yield fn(tasks[i])
            for conn in wait(running, 0):
                yield from _received(conn, children[conn], running)
        while running:
            for conn in wait(running):
                yield from _received(conn, children[conn], running)
    finally:
        for child in children.values():
            child.terminate()
        for child in children.values():
            child.join()
            child.close()
        for conn in pipes:
            conn.close()


def _widen(conn) -> None:
    """Let a child's pipe hold 1 MiB where the system allows it (Linux).
    A d=5 branch's result pickles to about 220 KB (the median), more than
    the default 64 KiB, and a child whose result does not fit waits until
    this process has finished its own task and reads the pipe: at d=5
    with 2 workers and the C kernel, that kept the child waiting for 1.8 s
    of a 7.8 s branch phase, against 0.4 s with 1 MiB."""
    try:
        from fcntl import F_SETPIPE_SZ, fcntl
        fcntl(conn.fileno(), F_SETPIPE_SZ, 1 << 20)
    except (ImportError, OSError):
        pass  # the default size: a child may wait longer, the results are the same


def _received(conn, child, running: list):
    """The one result waiting on a child's pipe, as a list; an empty list
    once the child has sent its last one, when it leaves ``running``."""
    try:
        msg = conn.recv()
    except EOFError:
        child.join()
        raise WorkerDiedError(f"worker process {child.pid} ended with exit code "
                              f"{child.exitcode} before finishing its tasks") from None
    if msg is None:
        running.remove(conn)
        return []
    ok, value = msg
    if not ok:
        raise value
    return [value]


def enumerate_catalog(
    d: int,
    workers: int | None = None,
    checkpoint_path: str | None = None,
    progress=None,
) -> Catalog:
    """Catalog of all closed spanning pairs in dimension d, one class per
    isomorphism type (up to transpose).  Deterministic: the result is
    independent of the worker count and of the kernel backend.

    ``workers`` (default 1) is the number of processes that walk branches
    and classify forms, this one included: ``workers - 1`` child processes
    start, and none beyond one per branch still to run.  A child that dies
    (killed, or out of memory) raises WorkerDiedError instead of leaving
    the run waiting; the checkpoint keeps every branch merged before.
    ``progress`` receives one line per finished branch, with the elapsed
    seconds and an ETA from the mean time per branch finished in this
    call, then one line with the forms merged, the forms after
    orientation, the exact searches, the forms certified without one, the
    classes and the seconds classification took."""
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
    start, resumed = monotonic(), len(done)
    for p_index, visited, spanning, items in _run_all(_run_branch, args, nworkers):
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

    classify_start = monotonic()
    forms = {_oriented(hb) for hb in merged}
    groups: dict[tuple, list[bytes]] = {}
    for form in sorted(forms):
        groups.setdefault(_invariant(form), []).append(form)
    keys: set[bytes] = set()
    searched = 0
    for found in _run_all(_classify, list(groups.values()), nworkers):
        keys.update(found)
        searched += len(found)
    if progress:
        progress(f"classified {len(merged)} forms, {len(forms)} after orientation: "
                 f"{searched} searched, {len(forms) - searched} certified, "
                 f"{len(keys)} classes, {monotonic() - classify_start:.2f} s")

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
