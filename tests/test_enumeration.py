import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import bsp
from bsp.canon import canonical_from_key, canonical_key, has_key, rows_key
from bsp.enumeration import (
    Catalog,
    branch_split,
    brute_force,
    enumerate_catalog,
    figure1_reference,
    stats,
    verify_against_reference,
)
from bsp import canon, enumeration, kernel
from bsp.cli import main
from bsp.errors import BadParameterError, CheckpointCorruptError, WorkerDiedError
from bsp.kernel import enum_branch
from bsp.family import (
    BspPair,
    closure,
    is_closed_pair,
    pair_from_product_matrix,
    product_matrix,
    verify_binary_products,
)

D4_MAXIMAL = {(5, 16), (6, 12), (7, 10), (8, 9), (9, 8), (10, 7), (12, 6), (16, 5)}
D4_SHA256 = "5f02d0532beacc4f0df0c6341460a2d5d29e5bcdd896787e8f81ad5247a4696b"


def test_enumerate_d1():
    cat = enumerate_catalog(1)
    assert len(cat) == 1
    assert cat.classes[0].size_a * cat.classes[0].size_b == 4


def test_enumerate_d2():
    cat = enumerate_catalog(2)
    assert len(cat) == 1
    st = stats(cat)
    assert st.max_product == 12
    assert {(3, 4), (4, 3)} <= st.achievable


def test_oracle_equivalence_d123():
    for d in (1, 2, 3):
        assert enumerate_catalog(d).key_set() == brute_force(d).key_set()


def test_enumerate_d4_maximal_pairs():
    cat = enumerate_catalog(4)
    st = stats(cat)
    assert set(st.maximal_pairs) == D4_MAXIMAL
    assert st.max_product == 80  # (d+1) 2^d
    digest = hashlib.sha256(cat.to_jsonl().encode()).hexdigest()
    assert digest == D4_SHA256


def test_next_closure_counts_d4():
    """The d=4 search visits the same lattice whatever the closure code:
    8,059 closed sets, 6,963 of them spanning, 1,545 heuristic forms
    over the 16 branches and 196 after merging them."""
    top = branch_split(4)
    results = [enum_branch(4, top, p) for p in range(1 << top)]
    assert len(results) == 16
    assert sum(visited for visited, _, _ in results) == 8059
    assert sum(spanning for _, spanning, _ in results) == 6963
    assert sum(len(items) for _, _, items in results) == 1545
    assert len({hb for _, _, items in results for hb, _ in items}) == 196


def test_catalog_entries_are_closed_spanning_pairs():
    for d in (2, 3):
        cat = enumerate_catalog(d)
        for cls in cat.classes:
            assert cls.matrix.rank_d == d
            pair = pair_from_product_matrix(cls.matrix, d)
            assert verify_binary_products(pair.family_a, pair.family_b) is None
            assert is_closed_pair(pair)
            # representative re-canonicalizes to its key
            assert canonical_key(cls.matrix, include_transpose=True) == cls.key


def test_examples_appear_in_catalogs_after_closure():
    from bsp.constructions import construct_example
    from bsp.family import a_max, b_max

    for d in (2, 3, 4):
        keys = enumerate_catalog(d).key_set()
        kinds = [("cube-pair", None), ("example3", None), ("example4", None)] + [
            ("example5", k) for k in range(d + 1)
        ]
        for kind, k in kinds:
            pair = construct_example(kind, d, k=k)
            a = a_max(pair.family_b)
            closed = type(pair)(d, a, b_max(a))
            key = canonical_key(product_matrix(closed), include_transpose=True)
            assert key in keys, (kind, k, d)


def test_jsonl_roundtrip(tmp_path):
    for d in (1, 2, 4):  # every written catalog passes the load checks
        cat = enumerate_catalog(d)
        assert Catalog.from_jsonl(cat.to_jsonl()) == cat
    cat = enumerate_catalog(3)
    path = tmp_path / "cat3.jsonl"
    cat.save(str(path))
    again = Catalog.load(str(path))
    assert again == cat
    # artifact is deterministic
    cat.save(str(tmp_path / "cat3b.jsonl"))
    assert (tmp_path / "cat3.jsonl").read_bytes() == (tmp_path / "cat3b.jsonl").read_bytes()


def test_worker_count_does_not_change_output():
    c1 = enumerate_catalog(3, workers=1)
    c2 = enumerate_catalog(3, workers=3)
    assert c1.to_jsonl() == c2.to_jsonl()


def _partial_checkpoint(path, d, branches):
    """Write the checkpoint log of a run that has finished ``branches``,
    in that order, each line with the keys of the classes that merging the
    branch added, as a run logs them."""
    top = branch_split(d)
    keyer = enumeration._Keyer()
    enumeration._checkpoint_create(path, d, top)
    for p in branches:
        added = keyer.add(hb for hb, _ in enum_branch(d, top, p)[2])
        enumeration._checkpoint_append(path, p, added)


def _logged_branches(path):
    """The branches of the checkpoint log at ``path``, in logged order."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    assert json.loads(lines[0]).keys() == {"d", "top_count"}
    return [json.loads(line)["branch"] for line in lines[1:]]


def test_worker_pool_is_bounded_by_pending_branches(tmp_path, monkeypatch):
    """A run has one phase, the branch walk, which starts min(workers,
    branches left) - 1 children, the calling process being one of the
    workers: none with one worker, and none at d=3, whose one branch
    leaves one worker.  Forms are keyed as results arrive, with no phase
    of their own."""
    started, phases = [], []
    real_start, real_run_all = multiprocessing.Process.start, enumeration._run_all

    def counting_start(self):
        started.append(self)
        real_start(self)

    def counting_run_all(fn, tasks, nworkers):
        before = len(started)
        yield from real_run_all(fn, tasks, nworkers)
        phases.append((fn.__name__, len(tasks), len(started) - before))

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    monkeypatch.setattr(enumeration, "_run_all", counting_run_all)
    text = enumerate_catalog(4, workers=100000).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    ck = str(tmp_path / "ck.json")
    _partial_checkpoint(ck, 4, range(3))
    assert enumerate_catalog(4, workers=100000, checkpoint_path=ck).to_jsonl() == text
    assert enumerate_catalog(4, workers=2).to_jsonl() == text
    for workers in (None, 1):
        assert enumerate_catalog(4, workers=workers).to_jsonl() == text
    enumerate_catalog(3, workers=3)  # one branch: no child
    assert phases == [
        ("run_branch", 16, 15), ("run_branch", 13, 12), ("run_branch", 16, 1),
        ("run_branch", 16, 0), ("run_branch", 16, 0), ("run_branch", 1, 0),
    ]
    for workers in (0, -3):
        with pytest.raises(BadParameterError, match="workers"):
            enumerate_catalog(3, workers=workers)
    assert len(started) == 15 + 12 + 1
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a block that runs longer than ``seconds``."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _in_children(monkeypatch, tmp_path, act):
    """Make ``kernel.enum_branch`` call ``act(p_index)`` first in the
    children this process forks, and hold this process's first branch
    until a child has taken one."""
    parent, real, taken = os.getpid(), kernel.enum_branch, tmp_path / "taken"

    def enum_branch(d, top_count, p_index):
        if os.getpid() != parent:
            taken.touch()
            act(p_index)
        while not taken.exists():
            time.sleep(0.001)
        return real(d, top_count, p_index)

    monkeypatch.setattr(kernel, "enum_branch", enum_branch)


needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="children see this process's monkeypatch only when forked")


@needs_fork
def test_dead_worker_raises_and_the_checkpoint_keeps_what_was_merged(tmp_path, monkeypatch,
                                                                     capsys):
    """A child that SIGKILLs itself on its first branch, as the
    out-of-memory killer would, raises WorkerDiedError the next time this
    process reads the pipes, and leaves no child behind; the checkpoint
    holds every branch that was reported, and resumes to the catalog's
    bytes.  ``bsp enumerate`` reports it as a JSON error with exit 1."""
    _in_children(monkeypatch, tmp_path, lambda p: os.kill(os.getpid(), signal.SIGKILL))
    ck, lines = str(tmp_path / "ck.json"), []
    with _deadline(60), pytest.raises(WorkerDiedError, match=f"exit code {-signal.SIGKILL}"):
        enumerate_catalog(4, workers=2, checkpoint_path=ck, progress=lines.append)
    assert multiprocessing.active_children() == []
    done = _logged_branches(ck)
    assert len(done) == len(set(done)) == len(lines) >= 1 and 0 not in done

    (tmp_path / "taken").unlink()
    with _deadline(60):
        code = main(["enumerate", "-d", "4", "--workers", "2", "--out", str(tmp_path / "c.jsonl")])
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (code, error["error"]) == (1, "WorkerDiedError")
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    text = enumerate_catalog(4, workers=2, checkpoint_path=ck).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256


@needs_fork
def test_worker_exceptions_propagate_and_no_child_outlives_the_call(tmp_path, monkeypatch):
    """A branch that raises in a child raises its type and message here; a
    branch that raises here ends the children.  Either way, as on return,
    no child is left."""
    def fail(p_index):
        raise ValueError(f"branch {p_index} failed in a child")

    _in_children(monkeypatch, tmp_path, fail)
    with _deadline(60), pytest.raises(ValueError, match=r"^branch 0 failed in a child$"):
        enumerate_catalog(4, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.undo()

    real = kernel.enum_branch

    def fail_here(d, top_count, p_index):
        if p_index == 15:
            raise KeyError("raised in the calling process")
        return real(d, top_count, p_index)

    monkeypatch.setattr(kernel, "enum_branch", fail_here)
    with _deadline(60), pytest.raises(KeyError, match="raised in the calling process"):
        enumerate_catalog(4, workers=3)
    assert multiprocessing.active_children() == []


def test_spawned_children_give_the_same_bytes():
    """Under the spawn start method (the default on macOS and Windows) the
    children re-import bsp and receive the task function, the tasks, the
    shared range and their pipe by pickling."""
    code = textwrap.dedent("""
        import hashlib, multiprocessing
        from bsp.enumeration import enumerate_catalog

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            text = enumerate_catalog(4, workers=2).to_jsonl()
            print(hashlib.sha256(text.encode()).hexdigest(), multiprocessing.active_children())
    """)
    out = subprocess.run([sys.executable, "-c", code], env=_source_env(), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [D4_SHA256, "[]"]


def _assert_d4_keys_each_form_once(monkeypatch):
    """Run d=4 at one worker, counting searches and certificates; the
    catalog's bytes, 16 searches and 75 certificates must come out."""
    searched, certified = [], []

    def counting_rows_key(rows, n, include_transpose=False, cols=None):
        searched.append(n)
        return rows_key(rows, n, include_transpose, cols)

    def counting_has_key(rows, n, key, include_transpose=False, cols=None):
        held = has_key(rows, n, key, include_transpose, cols)
        certified.append(held)
        return held

    def no_pair_rows(d, mask):
        raise AssertionError("classification rebuilt a product matrix")

    monkeypatch.setattr(enumeration, "rows_key", counting_rows_key)
    monkeypatch.setattr(enumeration, "has_key", counting_has_key)
    monkeypatch.setattr(enumeration.kernel, "pair_rows", no_pair_rows)
    text = enumerate_catalog(4, workers=1).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    assert (len(searched), len(certified), sum(certified)) == (16, 75, 75)


def test_keying_decodes_each_form_once_and_transposes_it_at_most_once(monkeypatch):
    """Keying the 196 d=4 forms decodes each form once (kernel.form_rows)
    and transposes it at most once: orientation, the invariant and the
    certificates and searches share that transpose and make none of their
    own.  The keys are the catalog's, from 16 searches."""
    top = branch_split(4)
    forms = dict.fromkeys(hb for p in range(1 << top) for hb, _ in enum_branch(4, top, p)[2])
    assert len(forms) == 196
    decoded, transposed = [], []
    real_form_rows, real_transpose = kernel.form_rows, canon.transpose

    def counting_form_rows(form):
        decoded.append(form)
        return real_form_rows(form)

    def counting_transpose(rows, n):
        transposed.append(n)
        return real_transpose(rows, n)

    monkeypatch.setattr(kernel, "form_rows", counting_form_rows)
    monkeypatch.setattr(canon, "transpose", counting_transpose)
    monkeypatch.setattr(enumeration, "transpose", counting_transpose)
    keyer = enumeration._Keyer()
    for form in forms:
        decoded.clear()
        transposed.clear()
        keyer.add([form])
        assert decoded == [form] and len(transposed) <= 1, form
    text = enumeration._catalog(4, keyer.keys()).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    assert keyer.searches == 16


def test_classification_keys_each_form_once_up_to_transpose(monkeypatch):
    """The 196 merged d=4 forms hold 91 matrices up to permutations and
    transpose as the heuristic form sees them, and 16 classes: 16 exact
    searches, the other 75 forms each certified by the first key of a
    class found before that it is tried on, and no product matrix rebuilt
    from its set."""
    _assert_d4_keys_each_form_once(monkeypatch)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_keys_do_not_depend_on_the_order_branch_results_arrive(monkeypatch, order):
    """Forms are keyed as branch results arrive, so the d=4 results taken
    in reverse, or in a seeded shuffle, still give the catalog's bytes with
    16 searches and 75 certificates."""
    real = enumeration._run_all

    def reordered(fn, tasks, nworkers):
        results = list(real(fn, tasks, nworkers))
        assert len(results) == 16
        if order == "reversed":
            results.reverse()
        else:
            random.Random(11).shuffle(results)
        yield from results

    monkeypatch.setattr(enumeration, "_run_all", reordered)
    _assert_d4_keys_each_form_once(monkeypatch)


@needs_fork
def test_each_process_sends_each_form_at_most_once(monkeypatch):
    """A child process sends each form at most once, although the 16 d=4
    branches hold 1,545 items.  The calling process, which sends nothing,
    keeps no such filter: its own results carry every form of their
    branches, and the keyer alone drops the forms it has seen, so the
    caller holds each merged form once.  At one worker the 1,545 items'
    forms arrive; at two the child's are distinct; both ways they are the
    same 196 and the keyer counts 196."""
    top = branch_split(4)
    items = [item for p in range(1 << top) for item in enum_branch(4, top, p)[2]]
    forms = {hb for hb, _ in items}
    assert (len(items), len(forms)) == (1545, 196)
    real, arrived, walks = enumeration._run_all, {}, []

    def recording(fn, tasks, nworkers):
        def tagged(p_index):
            return os.getpid(), fn(p_index)

        walks.append(fn.__self__)
        for pid, result in real(tagged, tasks, nworkers):
            arrived.setdefault(pid, []).extend(result[3])
            yield result

    monkeypatch.setattr(enumeration, "_run_all", recording)
    for workers in (1, 2):
        arrived.clear()
        lines = []
        text = enumerate_catalog(4, workers=workers, progress=lines.append).to_jsonl()
        assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
        assert lines[-1].startswith("classified 196 forms, 91 after orientation")
        mine = arrived.pop(os.getpid(), [])
        for sent in arrived.values():
            assert len(sent) == len(set(sent))
        assert set(mine).union(*arrived.values()) == forms
        assert not walks[-1].sent  # the caller's copy of the walk sent nothing
        if workers == 1:
            assert not arrived and sorted(mine) == sorted(hb for hb, _ in items)


def test_classification_matches_one_search_per_form_on_d5_branches():
    """The forms of d=5 branches 37 and 255, walked by the pure-Python
    kernel and keyed, give the key set that one exact search per oriented
    form gives, and every search finds a new class."""
    twin = kernel.get_backend("python")
    top = branch_split(5)
    keyer = enumeration._Keyer()
    for p in (37, 255):
        keyer.add(hb for hb, _ in twin.enum_branch(5, top, p)[2])
    forms = {
        enumeration._oriented(hb)[0] for p in (37, 255) for hb, _ in twin.enum_branch(5, top, p)[2]
    }
    assert keyer.oriented == forms
    found = keyer.keys()
    want = {rows_key(*kernel.form_rows(form), include_transpose=True) for form in forms}
    assert len(found) == len(set(found)) == len(want) == 212
    assert set(found) == want


def test_progress_lines_report_elapsed_time_and_eta(tmp_path, monkeypatch):
    """With a clock that advances 2 s per reading, and two readings around
    the keying of each branch's forms, branch k of 16 reports 4k s
    elapsed and 4 (16 - k) s left; a resumed run times only the branches
    it runs itself.  The last line counts the forms, searches and classes,
    and the keying time: 2 s for the keys loaded from the checkpoint (or
    none) and 2 s per branch run.  The first 3 branches find all 16
    classes, so a run resumed after them keys the 196 forms of the other
    branches with no search."""
    top = branch_split(4)
    counts = [enum_branch(4, top, p)[:2] for p in range(1 << top)]
    for resumed in (0, 3):
        ck = str(tmp_path / "ck.json")
        if resumed:
            _partial_checkpoint(ck, 4, range(resumed))
        monkeypatch.setattr(enumeration, "monotonic", itertools.count(100.0, 2.0).__next__)
        lines = []
        text = enumerate_catalog(4, checkpoint_path=ck, progress=lines.append).to_jsonl()
        assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
        assert lines == [
            f"branch {k}/16 done ({counts[k - 1][0]} closed, {counts[k - 1][1]} spanning), "
            f"{4 * (k - resumed):.1f} s elapsed, ETA {4 * (16 - k):.1f} s"
            for k in range(resumed + 1, 17)
        ] + [f"classified 196 forms, 91 after orientation: {0 if resumed else 16} searched, "
             f"{91 if resumed else 75} certified, 16 classes, "
             f"{2 + 2 * (16 - resumed):.2f} s keying"]


def _source_env():
    """This environment with this checkout's package first on the path."""
    src = str(Path(bsp.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "ck.json")
    full = enumerate_catalog(4)
    _partial_checkpoint(ck, 4, range(3))
    resumed = enumerate_catalog(4, checkpoint_path=ck)
    assert resumed.to_jsonl() == full.to_jsonl()
    assert not os.path.exists(ck)  # consumed on completion


def test_killed_run_resumes_to_the_same_bytes(tmp_path):
    """A d=4 run in a subprocess kills itself with SIGKILL from its third
    progress line, just after branch 2 is logged.  Resumed from copies of
    that log at 1 and at 2 workers, it gives the bytes of an uninterrupted
    run and removes each copy.  A copy that ends in a torn line of branch
    3, as a kill during that write leaves it, resumes the same way: the
    torn line is cut off, so a run stopped after its next branch leaves a
    log of whole lines, and resuming that gives the same bytes again.  The
    torn line holds every class key, so it would fail the resume, as keys
    logged twice, if it were read."""
    code = textwrap.dedent("""
        import os, signal, sys
        from bsp.enumeration import enumerate_catalog
        lines = []

        def progress(line):
            lines.append(line)
            if len(lines) == 3:
                os.kill(os.getpid(), signal.SIGKILL)

        enumerate_catalog(4, workers=1, checkpoint_path=sys.argv[1], progress=progress)
    """)
    ck = tmp_path / "ck.json"
    out = subprocess.run([sys.executable, "-c", code, str(ck)], env=_source_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == -signal.SIGKILL, out.stderr
    assert _logged_branches(ck) == [0, 1, 2]
    for workers in (1, 2):
        copy = tmp_path / f"ck{workers}.json"
        shutil.copy(ck, copy)
        text = enumerate_catalog(4, workers=workers, checkpoint_path=str(copy)).to_jsonl()
        assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
        assert not copy.exists()

    copy = tmp_path / "torn.json"
    enumeration._checkpoint_append(str(copy), 3, sorted(enumerate_catalog(4).key_set()))
    line = copy.read_bytes()
    shutil.copy(ck, copy)
    with open(copy, "ab") as fh:
        fh.write(line[:len(line) // 2])

    class Stop(Exception):
        pass

    def stop(line):
        raise Stop

    with pytest.raises(Stop):
        enumerate_catalog(4, workers=1, checkpoint_path=str(copy), progress=stop)
    assert _logged_branches(copy) == [0, 1, 2, 3]
    text = enumerate_catalog(4, workers=2, checkpoint_path=str(copy)).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    assert list(tmp_path.iterdir()) == [ck]


def test_checkpoint_corrupt(tmp_path):
    """Every log that is not a whole header line for the run's d and
    branch split, followed by branch lines, each a branch in range logged
    once with a list of hex keys, raises CheckpointCorruptError; only a
    last line with no newline is taken for torn by a kill and dropped."""
    ck = tmp_path / "ck.json"

    def line(obj):
        return json.dumps(obj) + "\n"

    header = line({"d": 3, "top_count": 0})
    logs = [
        "{not json\n",
        "",
        header[:-1],  # a header is put in place whole, never torn
        line({"d": 2, "top_count": 0}),
        line({"d": 3, "top_count": 0, "done_branches": [], "partial_keys": []}),
        line([3, 0]),
        header + line({"branch": 1, "keys": []}),
        header + line({"branch": 0, "keys": []}) * 2,
        header + line({"branch": 0}),
        header + line({"branch": 0, "keys": [], "forms": []}),
        header + "\n" + line({"branch": 0, "keys": []}),
        header + '{"branch":0,"ke' + line({"branch": 0, "keys": []}),  # torn in the middle
        header + line({"branch": 0, "keys": ["zz"]}),
        header + line({"branch": 0, "keys": [["00"]]}),
        header + line({"branch": 0, "keys": 7}),
    ]
    # keys that are no key, of no matrix of rank 3, or of a forged shape
    logs += [header + line({"branch": 0, "keys": [key.hex()]})
             for key in (b"\x00", b"4,8:", b"3,3:\xff\x80", b"-4,-8:", b"9999999,0:")]
    for text in logs:
        ck.write_text(text, encoding="ascii")
        with pytest.raises(CheckpointCorruptError):
            enumerate_catalog(3, checkpoint_path=str(ck))
        assert ck.read_text(encoding="ascii") == text
    # integer fields are JSON ints: true and 1.0 would pass for 1
    header4 = line({"d": 4, "top_count": 4})
    for d, text in ((4, header4 + line({"branch": True, "keys": []})),
                    (4, header4 + line({"branch": 1.0, "keys": []})),
                    (1, line({"d": True, "top_count": 0}))):
        ck.write_text(text, encoding="ascii")
        with pytest.raises(CheckpointCorruptError):
            enumerate_catalog(d, checkpoint_path=str(ck))


def _full_log(tmp_path):
    """The log of a whole one-worker d=4 run, kept by stopping the run at
    its last progress line, after every branch is logged."""
    class Stop(Exception):
        pass

    def stop(line):
        if line.startswith("classified"):
            raise Stop

    ck = tmp_path / "full.json"
    with pytest.raises(Stop):
        enumerate_catalog(4, workers=1, checkpoint_path=str(ck), progress=stop)
    return ck


def test_a_full_d4_log_holds_the_16_class_keys(tmp_path, monkeypatch):
    """A whole one-worker d=4 log is a header and 16 branch lines that
    hold the 16 class keys, each once.  A resume from it, or from the log
    of 3 branches, validates the keys and keys no form again: it gives the
    catalog's bytes with the kernel's pair_rows and closure_and_rank
    raising, and from the whole log with no kernel call at all."""
    ck = _full_log(tmp_path)
    lines = ck.read_text(encoding="ascii").splitlines()
    keys = [key for line in lines[1:] for key in json.loads(line)["keys"]]
    assert _logged_branches(ck) == list(range(16))
    assert sorted(keys) == sorted(c.key_hex() for c in enumerate_catalog(4).classes)
    assert len(keys) == 16

    partial = str(tmp_path / "partial.json")
    _partial_checkpoint(partial, 4, range(3))

    def refused(*args):
        raise AssertionError("a resume called the kernel")

    for name in ("pair_rows", "closure_and_rank"):
        monkeypatch.setattr(kernel, name, refused)
    text = enumerate_catalog(4, checkpoint_path=partial).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    for name in ("heuristic_form", "enum_branch"):
        monkeypatch.setattr(kernel, name, refused)
    text = enumerate_catalog(4, checkpoint_path=str(ck)).to_jsonl()
    assert hashlib.sha256(text.encode()).hexdigest() == D4_SHA256
    assert not ck.exists() and not os.path.exists(partial)


def _open_pair_key(d):
    """The key of the pair whose families both hold the origin and the unit
    vectors: a rank-d product matrix whose pair is not closed, since A_max
    of such a B is the whole cube."""
    units = [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]
    pair = BspPair.of(d, units, units)
    assert not is_closed_pair(pair)
    return canonical_key(product_matrix(pair), include_transpose=True)


def _packed(bits):
    """The key-shaped bytes of a matrix given by its row strings, whether
    or not the matrix is canonical."""
    m, n = len(bits), len(bits[0])
    return b"%d,%d:" % (m, n) + int("".join(bits), 2).to_bytes((m * n + 7) // 8, "big")


def test_tampered_keys_fail_the_resume(tmp_path, capsys):
    """A key validates itself, so each of these d=4 logs raises
    CheckpointCorruptError and is left as it was: every one-bit flip of a
    logged key, a d=3 class key, the key of a rank-5 matrix, the key of a
    rank-4 product matrix whose pair is not closed, a logged key's matrix
    with two rows swapped or transposed (a closed pair's matrix, but not
    the canonical one), a key logged on two lines, and a line of the
    earlier log format, which held forms with masks.  ``bsp enumerate
    --checkpoint`` on one of them exits 1 with a JSON error."""
    ck = _full_log(tmp_path)
    header, *lines = ck.read_text(encoding="ascii").splitlines(keepends=True)
    first = json.loads(lines[0])
    assert first["branch"] == 0 and first["keys"]
    key = bytes.fromhex(first["keys"][0])
    head, _, body = key.partition(b":")
    rows = canonical_from_key(key, 4).bits
    assert _packed(rows) == key and len(rows) < len(rows[0])

    def with_keys(*keys):
        return header + json.dumps({"branch": 0, "keys": [k.hex() for k in keys]}) + "\n"

    flips = [head + b":" + (int.from_bytes(body, "big") ^ 1 << i).to_bytes(len(body), "big")
             for i in range(len(body) * 8)]
    logs = [with_keys(flip) for flip in flips] + [
        with_keys(next(iter(enumerate_catalog(3).key_set()))),
        with_keys(_open_pair_key(5)),
        with_keys(_open_pair_key(4)),
        with_keys(_packed((rows[-1], *rows[1:-1], rows[0]))),
        with_keys(_packed(tuple("".join(col) for col in zip(*rows)))),
        header + lines[0] + json.dumps({"branch": 1, "keys": [first["keys"][0]]}) + "\n",
        header + json.dumps({"branch": 0, "forms": [[hb.hex(), mask] for hb, mask in
                                                    enum_branch(4, 4, 0)[2][:3]]}) + "\n",
    ]
    for text in logs:
        ck.write_text(text, encoding="ascii")
        with pytest.raises(CheckpointCorruptError):
            enumerate_catalog(4, checkpoint_path=str(ck))
        assert ck.read_text(encoding="ascii") == text
    code = main(["enumerate", "-d", "4", "--checkpoint", str(ck)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert json.loads(out.err.splitlines()[-1])["error"] == "CheckpointCorruptError"
    assert ck.read_text(encoding="ascii") == logs[-1]


def test_catalog_save_puts_the_file_in_place_whole(tmp_path, monkeypatch):
    """A catalog is written to a temporary file and renamed over its path:
    a write that raises leaves no file where there was none, and an older
    catalog there as it was."""
    path = tmp_path / "cat.jsonl"
    cat = enumerate_catalog(3)

    def not_ascii(self):
        return "x" * 10000 + "\u00e9"

    def failing_replace(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Catalog, "to_jsonl", not_ascii)
        with pytest.raises(UnicodeEncodeError):
            cat.save(str(path))
        assert not path.exists()
    cat.save(str(path))
    old = path.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(Catalog, "to_jsonl", not_ascii)
        with pytest.raises(UnicodeEncodeError):
            cat.save(str(path))
        assert path.read_bytes() == old
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            enumerate_catalog(2).save(str(path))
        assert path.read_bytes() == old
    assert Catalog.load(str(path)) == cat


def test_stats_achievable_and_figure_points():
    cat = enumerate_catalog(3)
    st = stats(cat)
    # d=3 classes: the cube pair (4,8) and two (5,6) classes; achievable
    # sizes are the symmetrized downward closure with minimum size d
    want = set()
    for m, n in ((4, 8), (5, 6)):
        for a in range(3, m + 1):
            for b in range(3, n + 1):
                want.add((a, b))
                want.add((b, a))
    assert st.achievable == want
    assert (5, 7) not in st.achievable
    assert set(st.maximal_pairs) == {(4, 8), (5, 6), (6, 5), (8, 4)}
    assert st.max_product == 32
    pts = st.fig_min_product_points()
    assert (3, 9) in pts and (4, 32) in pts


def test_verify_against_reference_roundtrip():
    cat = enumerate_catalog(3)
    st = stats(cat)
    ref = st.fig_size_points()
    assert verify_against_reference(st, ref).equal
    diff = verify_against_reference(st, ref[:-1] + [(99, 99)])
    assert diff.missing == ((99, 99),)
    assert diff.extra == (ref[-1],)


def test_figure1_reference_shipped_data():
    ref = figure1_reference()
    assert len(ref) == 212
    assert (6, 32) in ref and (32, 6) in ref and (10, 17) in ref
    # symmetric
    s = set(ref)
    assert all((b, a) in s for a, b in s)


@pytest.mark.slow
def test_enumerate_d5_reproduces_figure1():
    cat = enumerate_catalog(5, workers=os.cpu_count())
    assert len(cat) == 213
    assert Catalog.from_jsonl(cat.to_jsonl()) == cat
    st = stats(cat)
    assert verify_against_reference(st, figure1_reference()).equal
    assert st.max_product == 192
    assert {(6, 32), (32, 6)} == {
        (m, n) for (m, n) in st.achievable if m * n == 192
    }
    big = {(m, n) for (m, n) in st.achievable if m >= 7 and n >= 7}
    assert max(m * n for m, n in big) == 170
    assert {(m, n) for (m, n) in big if m * n == 170} == {(10, 17), (17, 10)}


D5_SHA256 = "b1a0e73b43e5860a8672384908ddbcfafed288ef6b1cc6328bb4b42f4d13cae6"


@pytest.mark.slow
def test_d5_resumes_from_a_log_of_64_branches(tmp_path):
    """The log of the first 64 of the 256 d=5 branches holds at most one
    key per class, 213 in all, and resumed at one and at two workers it
    gives the bytes of the whole d=5 catalog."""
    ck = str(tmp_path / "ck.json")
    _partial_checkpoint(ck, 5, range(64))
    lines = Path(ck).read_text(encoding="ascii").splitlines()[1:]
    keys = [key for line in lines for key in json.loads(line)["keys"]]
    assert len(lines) == 64 and len(keys) == len(set(keys)) <= 213
    for workers in (1, 2):
        copy = str(tmp_path / f"ck{workers}.json")
        shutil.copy(ck, copy)
        text = enumerate_catalog(5, workers=workers, checkpoint_path=copy).to_jsonl()
        assert hashlib.sha256(text.encode()).hexdigest() == D5_SHA256
        assert not os.path.exists(copy)
