#!/usr/bin/env python3
"""Run one workload of the bsp benchmark and print its metrics.

    python3 perfbench/run.py --workload enumerate-d4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else, with whatever kernel backend
``bsp.kernel`` selects (set ``BSP_KERNEL=python`` or ``=c`` to compare
backends).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run report (environment stamp, failed ratio, tail
percentile, sample counts, raw times), also written to ``perfbench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run with one worker that alternates untraced
and traced passes.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COLD_SAMPLES = 5  # fresh processes, this one included, for setup_s and first_op_s

END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "w2_op_ms.p50": "ms",
}

# All times are scaled to a fixed machine speed.  On a shared machine the
# speed drifts by a quarter within seconds, alike for all pure-Python work;
# the ratio of an op's time to a fixed reference loop timed while it runs
# holds within a few percent.  REF_S is the reference loop's nominal time,
# so a scaled time reads as the time on a machine that runs the loop in
# exactly REF_S.
REF_S = 0.0004
REF_ITERS = 2000
GAUGE_EVERY_S = 0.05
GAUGE_WINDOW_S = 0.25  # samples this far around an op set its speed


def reference_loop() -> None:
    d = {}
    s = 0
    for i in range(REF_ITERS):
        d[i & 255] = (s, i)
        s += i * i % 7


class SpeedGauge:
    """Times the reference loop every GAUGE_EVERY_S while running (from a
    timer signal, so also in the middle of a long op) and scales intervals
    by the loop times around and inside them.  Use as a context manager;
    the timer is not inherited by forked workers."""

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self.spent = 0.0  # time inside samples, to take out of op times
        self._handler = None

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ref.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedGauge":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def clock(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """The time from ``start`` to ``end`` (two ``clock()`` readings),
        less the samples taken in between, in seconds at the nominal
        speed.  The speed is the median of the samples taken during the
        interval and within GAUGE_WINDOW_S of it; a single sample is too
        noisy to divide by."""
        (t0, spent0), (t1, spent1) = start, end
        lo = bisect_left(self.at, t0 - GAUGE_WINDOW_S)
        hi = bisect_right(self.at, t1 + GAUGE_WINDOW_S)
        near = self.ref[lo:hi] or self.ref[-1:]
        return ((t1 - t0) - (spent1 - spent0)) * REF_S / statistics.median(near)


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path; refuse to run
    without it, so an installed copy of the package is never measured."""
    if not (SRC / "bsp" / "__init__.py").is_file():
        raise SystemExit(f"no bsp package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(src: Path) -> str:
    """Digest of the package sources, which identifies the measured code
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((src / "bsp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed: int) -> dict:
    from bsp import kernel

    return {
        "backend": kernel.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "source_sha256": source_sha256(SRC),
        "seed": seed,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, to 0.1, that leaves at
    least ten samples above its nearest-rank value.  Below twenty samples
    that percentile would sit under the median, so the maximum (100) is
    reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    q = math.floor(1000 * (n - 10) / n) / 10
    return q, xs[math.ceil(q * n / 100) - 1]


def median(xs: list[float]) -> float:
    """Median, or NaN when every op failed and there is nothing to time."""
    return statistics.median(xs) if xs else math.nan


def run_tail(passes: list[list[float]]) -> tuple[float, float]:
    """The tail of each pass, then the median over passes.  Pooling the
    passes would let the number of passes, which follows the machine's
    speed, decide which of the few slowest inputs the percentile lands on.
    A run with fewer than twenty samples in all reports its maximum."""
    pooled = [t for p in passes for t in p]
    if not pooled:
        return 100.0, math.nan
    if len(pooled) < 20:
        return tail(pooled)
    tails = [tail(p) for p in passes if p]
    return (statistics.median(q for q, _ in tails),
            statistics.median(v for _, v in tails))


class Run:
    """Counts and scaled latencies of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # scaled op times by worker count, one list per pass
        self.latency: dict[int, list[list[float]]] = {1: [], 2: []}
        self.raw_s = 0.0

    def record(self, op, out, dt: float | None, steady: bool = True) -> None:
        """Check one op's output (``dt`` is None when the op raised).  A
        cold first op is checked but kept out of the latency samples."""
        self.attempted += 1
        if dt is None:
            self.failed += 1
            self.errors.append(f"{op.label}: {out!r}")
            return
        if steady:
            self.latency[op.workers][-1].append(dt)
        try:
            ok = bool(op.check(out))
        except Exception as exc:  # a check that cannot read the output fails the op
            ok = False
            out = exc
        if not ok:
            self.failed += 1
            self.errors.append(f"{op.label}: wrong output {str(out)[:200]}")


def run_pass(ops, run: Run, gauge: SpeedGauge, tracer=None) -> float:
    """Run the ops back to back (a closed loop with one client), then check
    their outputs.  Returns the pass time at the nominal speed, checks and
    gauge samples excluded."""
    results = []
    for per_pass in run.latency.values():
        per_pass.append([])
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = run.attempted + i
            start = gauge.clock()
            try:
                out = op.run()
            except Exception as exc:  # the run goes on; the op counts as failed
                results.append((op, exc, None))
                continue
            results.append((op, out, (start, gauge.clock())))
    finally:
        if tracer is not None:
            tracer.restore()
    gauge.sample()  # the last op needs a sample after it
    total = 0.0
    for op, out, span in results:
        dt = None
        if span is not None:
            dt = gauge.scaled(*span)
            total += dt
            run.raw_s += span[1][0] - span[0][0]
        run.record(op, out, dt)
    return total


def cold_start(name: str, seed: int):
    """Import the package, build the inputs and run the first op, as a
    fresh process does.  Returns (workload, first op, output, setup s,
    first op s or None), times at the nominal speed."""
    with SpeedGauge() as gauge:
        t0 = gauge.clock()
        import bsp  # noqa: F401  (timed: import is part of set-up)
        import workloads

        wl = workloads.WORKLOADS[name](seed)
        t1 = gauge.clock()
        op = wl.first_op()
        gc.collect()  # the first op should not pay for set-up's garbage
        t2 = gauge.clock()
        try:
            out = op.run()
            t3 = gauge.clock()
        except Exception as exc:  # counted as a failed op by the caller
            out, t3 = exc, None
    first_s = None if t3 is None else gauge.scaled(t2, t3)
    return wl, op, out, gauge.scaled(t0, t1), first_s


def cold_sample(name: str, seed: int) -> dict:
    """Set-up and first-op time measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--cold",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, setups: list[float], firsts: list[float]) -> tuple[dict, dict]:
    w1 = [t * 1e3 for p in run.latency[1] for t in p]
    w2 = [t * 1e3 for p in run.latency[2] for t in p]
    q, tail_ms = run_tail([[t * 1e3 for t in p] for p in run.latency[1]])
    total = sum(w1) + sum(w2)
    values = {
        "setup_s": statistics.median(setups),
        "first_op_s": median(firsts),
        "op_ms.p50": median(w1),
        "op_ms.tail": tail_ms,
        "ops_per_s": (len(w1) + len(w2)) / (total / 1e3) if total else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # only enumerate_catalog takes a worker count; elsewhere the ops are
        # the same with two workers as with one
        "w2_op_ms.p50": median(w2 or w1),
    }
    detail = {
        "op_ms.samples": len(w1),
        "op_ms.tail_percentile": q,
        "w2_op_ms.samples": len(w2),
        "raw_ops_per_s": (len(w1) + len(w2)) / run.raw_s if run.raw_s else math.nan,
        "setup_s.samples": setups,
        "first_op_s.samples": firsts,
    }
    return values, detail


def per_layer(traced: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median over traced passes of each per-layer metric."""
    from tracing import metric_units

    values = {}
    for k, unit in metric_units().items():
        if k in traced[0]:
            median = statistics.median_low if unit == "count" else statistics.median
            values[k] = median(p[k] for p in traced)
    values["trace.overhead_pct"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1) * 100
    return values


def write_out(name: str, seed: int, trace: int, report: dict, tracer=None) -> None:
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{name}-seed{seed}-trace{trace}"
    base.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        with open(base.with_suffix(".spans.jsonl"), "w") as fh:
            for name_, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"name": name_, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_checkout_source()
    # the benchmark sets worker counts itself; BSP_WORKERS would override them
    os.environ.pop("BSP_WORKERS", None)

    if args.cold:
        wl, op, out, setup_s, first_s = cold_start(args.workload, args.seed)
        wl.prepare()
        run = Run()
        run.record(op, out, first_s, steady=False)
        print(json.dumps({"setup_s": setup_s, "first_op_s": first_s,
                          "failed": run.failed, "errors": run.errors}))
        return 0

    children = []
    if not args.trace:
        children = [cold_sample(args.workload, args.seed) for _ in range(COLD_SAMPLES - 1)]
    wl, op, out, setup_s, first_s = cold_start(args.workload, args.seed)
    wl.prepare()
    run = Run()
    run.record(op, out, first_s, steady=False)
    for child in children:
        run.attempted += 1
        run.failed += child["failed"]
        run.errors += child["errors"]

    rng = random.Random(f"{args.seed}/order")
    gauge = SpeedGauge()
    deadline = time.perf_counter() + args.seconds
    report = {"stamp": stamp(args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer, metric_units

        tracer = Tracer()
        traced, traced_s, untraced_s = [], [], []
        with gauge:
            while time.perf_counter() < deadline or not traced:
                untraced_s.append(run_pass(wl.pass_ops(rng, True), run, gauge))
                tracer.reset_counts()
                first_span = len(tracer.spans)
                first_sample = len(gauge.ref)
                traced_s.append(run_pass(wl.pass_ops(rng, True), run, gauge, tracer))
                speed = REF_S / statistics.median(gauge.ref[first_sample:])
                traced.append(tracer.pass_metrics(first_span, speed))
        units = metric_units()
        values = per_layer(traced, traced_s, untraced_s)
        calls = [{k: v for k, v in t.items() if k.endswith(".calls")} for t in traced]
        report.update(passes=len(traced), traced_pass_s=traced_s, untraced_pass_s=untraced_s,
                      calls_repeat=all(c == calls[0] for c in calls))
    else:
        tracer = None
        passes = 0
        with gauge:
            while time.perf_counter() < deadline or not passes:
                run_pass(wl.pass_ops(rng, False), run, gauge)
                passes += 1
        units = END_TO_END
        setups = [setup_s] + [c["setup_s"] for c in children]
        # a first op that raised has no time; the run is then not correct
        firsts = [x for x in [first_s] + [c["first_op_s"] for c in children]
                  if x is not None]
        values, detail = end_to_end(run, setups, firsts)
        report.update(passes=passes, **detail)

    report.update(attempted=run.attempted, failed=run.failed,
                  failed_ratio=run.failed / run.attempted, errors=run.errors[:20],
                  reference_loop_s=statistics.median(gauge.ref))
    write_out(args.workload, args.seed, args.trace, report, tracer)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
