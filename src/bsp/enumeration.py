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
product matrix, and a child process sends on only the forms it has not
sent before.  The calling process merges the forms as branch results
arrive, its own included, and keys each form the moment it first sees
it, decoding it once and transposing it at most once.  The form is
replaced by the form of its orientation with fewer rows, so transposed
copies meet, and grouped by an invariant of transpose-equivalence: the
shape and the row and column degree multisets.  Within a group a form
is keyed, up to transpose, by an exact search only when no key already
found in the group certifies it (:func:`bsp.canon.has_key`): one search
per class.
With several workers this keying overlaps the children's walk.  The
checkpoint logs the keys of the classes each branch added; a key
validates itself (:func:`_checked_class`, the check each catalog line
passes), so a resume needs no form.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
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
from .family import (
    ProductMatrix,
    is_closed_pair,
    matrix_rank,
    pair_from_product_matrix,
)
from .linalg import dim_field, int_field

MAX_DIM = kernel.MAX_DIM


def _write_whole(path: str, text: str) -> None:
    """Put ``text`` in place at ``path`` whole: written to ``path +
    ".tmp"``, then renamed over ``path``, so a kill or a failed write
    leaves the old file, or none, never a cut one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
    os.replace(tmp, path)


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


def _checked_class(mat: ProductMatrix, key: bytes, d: int) -> CatalogClass:
    """The class of a closed pair in dimension ``d`` that ``mat``, under
    ``key``, stands for, the one check that a catalog line and a logged
    checkpoint key pass.  Raises ValueError unless 1 <= d <= MAX_DIM
    (checked first, as the closed-pair test takes 2^d subset sums per
    side), ``mat`` has rank d, a pair realizes it with one member per row
    and per column (so its rows are distinct, and so are its columns),
    that pair is closed (so both sides hold 0, and the matrix has a zero
    row and a zero column), and ``key`` is the matrix's canonical key up
    to transpose.  Calls no kernel function."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"d = {d} is outside [1, {MAX_DIM}]")
    if mat.rank_d != d:
        raise ValueError(f"matrix rank {mat.rank_d} != d = {d}")
    pair = pair_from_product_matrix(mat, d)
    if pair.sizes() != (mat.m, mat.n):
        raise ValueError("a row or a column of the matrix repeats")
    if not is_closed_pair(pair):
        raise ValueError(f"the matrix is not a closed pair's at d = {d}")
    if canonical_key(mat, include_transpose=True) != key:
        raise ValueError(f"key {key.hex()} is not its matrix's")
    return CatalogClass(mat, key)


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
        verdict is drawn from it, unless every line has the catalog's d
        and passes :func:`_checked_class`, the check a checkpoint's keys
        pass, and no key repeats."""
        classes = {}
        d = None
        for line in text.splitlines():
            if not line.strip():
                continue
            with parsing("catalog line"):
                obj = json.loads(line)
                line_d, key = dim_field(obj["d"]), bytes.fromhex(obj["key"])
                shape = {"rows": obj["size_a"], "cols": obj["size_b"], "bits": obj["matrix"]}
            mat = ProductMatrix.from_json(shape)
            d = line_d if d is None else d
            if line_d != d:
                raise MalformedInputError(f"catalog line: d = {line_d} after d = {d}")
            if key in classes:
                raise MalformedInputError(f"catalog line: key {key.hex()} repeats")
            with parsing("catalog line"):
                classes[key] = _checked_class(mat, key, d)
        if d is None:
            raise MalformedInputError("empty catalog")
        return cls(d, tuple(classes[k] for k in sorted(classes)), complete=True)

    def save(self, path: str) -> None:
        _write_whole(path, self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "Catalog":
        with open(path, encoding="ascii") as fh:
            return cls.from_jsonl(fh.read())


def branch_split(d: int) -> int:
    """Number of most-significant ground elements fixed per branch."""
    return max(0, min(4 * (d - 3), (1 << d) - 1 - 8))


@dataclass
class _Walk:
    """The branch walk of one run, as each worker process holds it.
    ``home`` is the process that made it, the caller of the run, and
    ``sent`` holds each form a child process has sent in the run."""

    d: int
    top_count: int
    home: int = field(default_factory=os.getpid)
    sent: set[bytes] = field(default_factory=set)

    def run_branch(self, p_index: int):
        """The branch's index and counters, and the forms of the branch;
        in a child process, only those it has not sent before, which keeps
        its pipe short.  The caller's own results need no such filter, as
        :meth:`_Keyer.add` drops a form it has seen, so the caller holds
        each merged form once.  What a process sends arrives in the order
        it was sent, so each result, merged in turn, leaves the merged
        forms complete for the branches merged so far."""
        visited, spanning, items = kernel.enum_branch(self.d, self.top_count, p_index)
        if os.getpid() == self.home:
            return p_index, visited, spanning, [hb for hb, _ in items]
        sent, fresh = self.sent, []
        for hb, _ in items:
            if hb not in sent:
                sent.add(hb)
                fresh.append(hb)
        return p_index, visited, spanning, fresh


def _oriented(form: bytes) -> tuple[bytes, list[int], int, list[int] | None]:
    """The heuristic form of the matrix that ``form`` holds, taken in the
    orientation with fewer rows; of a square matrix, the smaller of the
    form and its transpose's form.  The result holds the same matrix up to
    permutations and transpose, so it has the same key, and transposed
    copies of one matrix meet.  Returned with the rows and column count of
    that matrix, up to row and column order, and the rows of its
    transpose, or None when it has fewer rows than columns and so was not
    transposed: the form is decoded once and transposed at most once.  The
    rows handed to ``heuristic_form`` are :func:`bsp.canon.transpose`'s,
    whose column order the form depends on.

    Kept rather than leaving transposed copies to ``has_key`` with the
    transpose flag, which certifies them directly: on the 25,502 merged
    d=5 forms (2 shared cores, Python 3.11, CPU, medians of 3 in each of
    3 runs) this takes 0.49-0.51 s, its transposes included, of a keying
    that takes 0.96-1.00 s with it and 1.18-1.24 s without it, when all
    25,502 forms rather than 11,845 reach the certificates and searches.
    At d=4 the two ways tie: 6.3-9.0 ms with it, 6.6-6.7 ms without."""
    rows, n = kernel.form_rows(form)
    m = len(rows)
    if m < n:
        return form, rows, n, None
    cols = transpose(rows, n)
    flipped = kernel.heuristic_form(cols, m)
    if m > n or flipped < form:
        return flipped, cols, m, rows
    return form, rows, n, cols


def _invariant(rows: list[int], cols: list[int]) -> tuple:
    """Shape and row and column degree multisets of the matrix with these
    rows and these rows of its transpose, the two multisets unordered when
    it is square so that its transpose agrees: forms that differ here have
    different keys."""
    degrees = [tuple(sorted(x.bit_count() for x in xs)) for xs in (rows, cols)]
    return (len(rows), len(cols), *(sorted(degrees) if len(rows) == len(cols) else degrees))


class _Keyer:
    """Canonical keys, up to transpose, of the matrices that the forms
    passed to :meth:`add` hold, one per class, and the keys passed to
    :meth:`add_class`.  A form is oriented and grouped by
    :func:`_invariant`, and searched only when no key found in its group
    certifies it, so every search finds a new class, and the keys found do
    not depend on the order the forms come in."""

    def __init__(self) -> None:
        self.groups: dict[tuple, list[bytes]] = {}  # invariant -> keys found
        self.seen: set[bytes] = set()  # every form added
        self.oriented: set[bytes] = set()  # every oriented form added
        self.searches = 0

    def add(self, forms) -> list[bytes]:
        """The keys of the classes that ``forms`` hold and that no form
        added before held.  A form added before costs one set lookup."""
        seen, added = self.seen, []
        for form in forms:
            if form not in seen:
                seen.add(form)
                key = self._add_new(form)
                if key:
                    added.append(key)
        return added

    def _add_new(self, form: bytes) -> bytes | None:
        """The key of the class of ``form``, a form not added before, when
        that class is new, else None."""
        form, rows, n, cols = _oriented(form)
        if form in self.oriented:
            return None
        self.oriented.add(form)
        if cols is None:
            cols = transpose(rows, n)
        keys = self.groups.setdefault(_invariant(rows, cols), [])
        if any(has_key(rows, n, key, include_transpose=True, cols=cols) for key in keys):
            return None
        self.searches += 1
        keys.append(rows_key(rows, n, include_transpose=True, cols=cols))
        return keys[-1]

    def add_class(self, c: CatalogClass) -> None:
        """Take a class found before as found.  Its canonical matrix is in
        the orientation :func:`_oriented` picks, with fewer rows, so it
        falls in the group of the forms of its class."""
        rows = [int(r, 2) for r in c.matrix.bits]
        self.groups.setdefault(_invariant(rows, transpose(rows, c.matrix.n)), []).append(c.key)

    def keys(self) -> list[bytes]:
        return [key for keys in self.groups.values() for key in keys]


def _catalog(d: int, keys) -> Catalog:
    classes = []
    for key in sorted(keys):
        mat = canonical_from_key(key, d)
        classes.append(CatalogClass(mat, key))
    return Catalog(d, tuple(classes), complete=True)


def _checkpoint_create(path: str, d: int, top_count: int) -> None:
    """Start the checkpoint log of a run at ``path`` with its header line,
    put in place whole."""
    _write_whole(path, json.dumps({"d": d, "top_count": top_count}) + "\n")


def _checkpoint_append(path: str, p_index: int, keys: list[bytes]) -> None:
    """Log one finished branch as one line, in one write: the keys of the
    classes that merging it added.  A kill during the write leaves a last
    line with no newline, which a resume drops."""
    line = json.dumps({"branch": p_index, "keys": [key.hex() for key in keys]},
                      separators=(",", ":")) + "\n"
    data = line.encode("ascii")
    with open(path, "ab", buffering=0) as fh:
        if fh.write(data) != len(data):
            raise OSError(f"{path}: short write, the checkpoint's last line is torn")


def _checkpoint_fields(line: str, names: tuple[str, ...]) -> list:
    """The values of one log line, a JSON object with exactly ``names``."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or obj.keys() != set(names):
        raise CheckpointCorruptError(f"checkpoint line is not an object of {names}: {line[:80]}")
    return [obj[name] for name in names]


def _checkpoint_resume(path: str, d: int, top_count: int) -> tuple[set[int], list[CatalogClass]]:
    """The branches done and the classes found, as the log at ``path``
    records them, each logged key validated by :func:`_checked_class` on
    the matrix it decodes to (at most one per class, so a d=5 log holds at
    most 213).  A last line with no newline, torn by a kill, is dropped
    and cut off the file, so its branch runs again; a missing or foreign
    header, any other bad line, a branch out of range or logged twice, a
    key logged twice or a key that does not validate raises
    CheckpointCorruptError and leaves the file as it was."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        end = data.rfind(b"\n") + 1
        if not end:
            raise CheckpointCorruptError("checkpoint has no complete header line")
        header, *lines = data[:end].decode("ascii").split("\n")[:-1]
        got_d, got_top = _checkpoint_fields(header, ("d", "top_count"))
        if int_field(got_d) != d or int_field(got_top) != top_count:
            raise CheckpointCorruptError(f"checkpoint is for d={got_d}, top={got_top}")
        done: set[int] = set()
        classes: dict[bytes, CatalogClass] = {}
        for line in lines:
            p_index, keys = _checkpoint_fields(line, ("branch", "keys"))
            p_index = int_field(p_index)
            if not 0 <= p_index < 1 << top_count or p_index in done:
                raise CheckpointCorruptError(f"branch {p_index} is out of range or logged twice")
            done.add(p_index)
            for key_hex in keys:
                key = bytes.fromhex(key_hex)
                if key in classes:
                    raise CheckpointCorruptError(f"key {key_hex} is logged twice")
                # the key packs every entry of a shape that can hold rank d >= 1,
                # so the matrix it decodes has no more entries than the key has bits
                dec = canonical_from_key(key, d)
                mat = ProductMatrix(dec.m, dec.n, dec.bits, matrix_rank(dec.bits))
                classes[key] = _checked_class(mat, key, d)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorruptError(str(exc)) from exc
    if end < len(data):
        os.truncate(path, end)
    return done, list(classes.values())


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
    A child whose result does not fit waits until this process has
    finished its own task and reads the pipe.  At d=5 with 2 workers and
    the C kernel, the results a child sends pickle to 29 bytes in the
    median but up to 218 KB, since each process sends each form once and
    its first branches hold most of them; when every result held all the
    forms of its branch (220 KB in the median), the default 64 KiB kept
    the child waiting for 1.8 s of a 7.8 s branch phase, against 0.4 s
    with 1 MiB."""
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
    independent of the worker count, of the kernel backend and of the
    order in which branch results arrive.

    ``workers`` (default 1) is the number of processes that walk branches,
    this one included: ``workers - 1`` child processes start, and none
    beyond one per branch still to run.  This process keys the forms of
    each branch result as it arrives, between branches of its own.  A
    child that dies (killed, or out of memory) raises WorkerDiedError
    instead of leaving the run waiting; the checkpoint keeps every branch
    merged before.  ``checkpoint_path`` is a log of finished branches,
    one JSON line each after a header line with the keys of the classes
    that branch added, resumed when it exists and removed when the run
    completes; a resume takes the logged keys as found, after each
    validates itself, and keys no form again.  ``progress`` receives one
    line per finished branch, with the elapsed seconds and an ETA from the
    mean time per branch finished in this call, then one line with the
    forms merged in this call, the forms after orientation, the exact
    searches, the forms certified without one, the classes and the
    seconds this process spent keying forms and taking logged keys."""
    if not 1 <= d <= MAX_DIM:
        raise BadParameterError(f"d must be in [1, {MAX_DIM}]")
    if workers is not None and workers < 1:
        raise BadParameterError(f"workers must be at least 1, got {workers}")
    top_count = branch_split(d)
    nbranches = 1 << top_count

    done: set[int] = set()
    logged: list[CatalogClass] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        done, logged = _checkpoint_resume(checkpoint_path, d, top_count)
    elif checkpoint_path:
        _checkpoint_create(checkpoint_path, d, top_count)
    todo = [p for p in range(nbranches) if p not in done]

    keyer = _Keyer()
    clock = monotonic()
    for c in logged:
        keyer.add_class(c)
    start = monotonic()
    keying, resumed = start - clock, len(done)
    for p_index, visited, spanning, forms in _run_all(_Walk(d, top_count).run_branch, todo,
                                                      workers or 1):
        clock = monotonic()
        added = keyer.add(forms)
        now = monotonic()
        keying += now - clock
        done.add(p_index)
        if checkpoint_path:
            _checkpoint_append(checkpoint_path, p_index, added)
        if progress:
            elapsed = now - start
            eta = elapsed / (len(done) - resumed) * (nbranches - len(done))
            progress(f"branch {len(done)}/{nbranches} done "
                     f"({visited} closed, {spanning} spanning), "
                     f"{elapsed:.1f} s elapsed, ETA {eta:.1f} s")

    keys = keyer.keys()
    if progress:
        oriented, searches = len(keyer.oriented), keyer.searches
        progress(f"classified {len(keyer.seen)} forms, {oriented} after orientation: "
                 f"{searches} searched, {oriented - searches} certified, "
                 f"{len(keys)} classes, {keying:.2f} s keying")

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
        return size_csv(self.fig_size_points())


def size_csv(pairs) -> str:
    """The ``size_a,size_b`` CSV of (|A|, |B|) pairs, one row each in the
    order given, which :func:`parse_reference_csv` reads back."""
    return "size_a,size_b\n" + "".join(f"{m},{n}\n" for m, n in pairs)


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
