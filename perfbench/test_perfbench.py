"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_source()

import bsp  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402
from bsp import enumeration, family  # noqa: E402


def inputs_of(wl) -> object:
    if isinstance(wl, workloads.ClassifyD5):
        return [m.bits for m in wl.originals], [(i, m.bits) for i, m in wl.copies]
    if isinstance(wl, workloads.Polytopes):
        return wl.inputs
    if isinstance(wl, workloads.VerifyD4):
        return [(k, o, p.to_json()) for k, o, p in wl.pairs], wl.lemslice_seeds
    return None  # enumerate-d4 has no inputs; the seed orders its ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert inputs_of(cls(7)) == inputs_of(cls(7))
    labels = [op.label for op in cls(7).pass_ops(random.Random(3), False)]
    assert labels == [op.label for op in cls(7).pass_ops(random.Random(3), False)]


@pytest.mark.parametrize("name", ["classify-d5", "verify-d4"])
def test_other_seed_gives_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert inputs_of(cls(7)) != inputs_of(cls(8))


def test_recorded_lectic_draws_match_their_generator():
    assert workloads.load_lectic_d5()[:20] == workloads.lectic_draws(5, 20, random.Random(0))


def snapshot():
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if m is not None and (n == "bsp" or n.startswith("bsp."))}
    return mods, family.BspPair.__dict__["validate"]


def test_wrappers_restore_the_originals():
    before = snapshot()
    original_key = enumeration.canonical_key
    tracer = tracing.Tracer()
    with tracer:
        assert enumeration.canonical_key is not original_key
        assert enumeration.canonical_key.__wrapped__ is original_key
        assert bsp.polytope.canonical_key is enumeration.canonical_key
        assert family.BspPair.__dict__["validate"] is not before[1]
        bsp.enumerate_catalog(2)
    assert tracer.spans and all(s is not None for s in tracer.spans)
    after = snapshot()
    assert after[1] is before[1]
    for name, attrs in before[0].items():
        for key, value in attrs.items():
            assert after[0][name][key] is value, f"{name}.{key} not restored"


def test_wrong_or_raising_ops_count_as_failed():
    cat = workloads.load_catalog_d4()
    corrupt = enumeration.Catalog(cat.d, cat.classes[1:], cat.complete)
    wl = workloads.ClassifyD5(1)
    wl.prepare()
    good_key = wl.pass_ops(random.Random(0), False)[0]

    def boom():
        raise ValueError("boom")

    def flipped():
        key = good_key.run()
        return key[:-1] + bytes([key[-1] ^ 1])

    ops = [
        workloads.Op("intact catalog", lambda: cat, workloads.check_catalog_d4),
        workloads.Op("corrupted catalog", lambda: corrupt, workloads.check_catalog_d4),
        workloads.Op("flipped key", flipped, good_key.check),
        workloads.Op("raises", boom, lambda out: True),
        good_key,
    ]
    r = run.Run()
    with run.SpeedGauge() as gauge:
        run.run_pass(ops, r, gauge)
    assert (r.attempted, r.failed) == (5, 3)
    assert len(r.latency[1][-1]) == 4  # the raising op has no time
    assert [e.split(":")[0] for e in r.errors] == ["corrupted catalog", "flipped key", "raises"]


def test_a_run_whose_ops_all_raise_still_reports():
    def boom():
        raise ValueError("boom")

    r = run.Run()
    with run.SpeedGauge() as gauge:
        run.run_pass([workloads.Op("raises", boom, lambda out: True)], r, gauge)
    values, _ = run.end_to_end(r, [0.1], [])
    assert (r.attempted, r.failed) == (1, 1)
    assert math.isnan(values["op_ms.p50"]) and math.isnan(values["ops_per_s"])


def traced_pass(wl, seed_order=0):
    tracer = tracing.Tracer()
    r = run.Run()
    out = []
    for _ in range(2):
        tracer.reset_counts()
        first = len(tracer.spans)
        with run.SpeedGauge() as gauge:
            run.run_pass(wl.pass_ops(random.Random(seed_order), True), r, gauge, tracer)
        out.append(tracer.pass_metrics(first))
    assert r.failed == 0, r.errors
    return out


def exact(metrics: dict) -> dict:
    units = tracing.metric_units()
    return {k: v for k, v in metrics.items() if units[k] == "count"}


def test_exact_counters_repeat_enumerate_d4():
    a, b = traced_pass(workloads.EnumerateD4(1))
    assert exact(a) == exact(b)
    assert a["kernel.enum_branch.closed_sets"] == 8059
    assert a["kernel.enum_branch.spanning_sets"] == 6963
    assert a["kernel.enum_branch.forms"] == 196
    assert a["enumeration.classes_per_form"] == 16 / 196
    assert a["enumeration.enumerate_catalog.calls"] == 1


def test_exact_counters_repeat_verify_d4():
    wl = workloads.VerifyD4(5)
    a, b = traced_pass(wl)
    assert exact(a) == exact(b)
    assert a["decomposition.check_lemslice.checked"] == 3 * workloads.LEMSLICE_TRIALS
    assert a["decomposition.audit_pair.calls"] == 32
    again = traced_pass(workloads.VerifyD4(5))[0]
    assert exact(again) == exact(a)


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (90.0, 89.0)
    q, v = run.tail([float(i) for i in range(10_000)])
    assert q == 99.9 and sum(x > v for x in range(10_000)) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
