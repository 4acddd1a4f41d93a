"""Tests of the benchmark itself: metric names, failure counting, tracing.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wls

if wls.SRC not in sys.path:
    sys.path.insert(0, wls.SRC)

import nilheckeb  # noqa: E402
import nilheckeb.cli  # noqa: E402,F401  (the tracer imports it too)

with open(os.path.join(wls.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(wls.HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=wls.ROOT, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_names_match_code():
    # ``decompose`` runs by hand only; every listed workload must exist.
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in wls.WORKLOADS if name != "decompose"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_spec(trace, key):
    res = _run_bench("--workload", "decompose", "--seed", "3", "--seconds", "0.1",
                     "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[key]}


def _small(workload, count):
    workload.ops = workload.ops[:count]
    return workload


def test_perturbed_result_counts_as_failed():
    wl = _small(wls.DecomposeWorkload(5), 3)
    passes = run.run_passes(wl, 0)
    assert run.failures(wl, [passes]) == []
    parts = dict(passes.first[1])
    w = next(iter(parts))
    parts[w] = parts[w] * 2
    passes.first[1] = parts
    assert run.failures(wl, [passes]) == [wl.ops[1][0]]


def test_changed_repeat_counts_as_failed():
    wl = _small(wls.DecomposeWorkload(5), 3)
    passes = run.run_passes(wl, 0)
    canon = list(passes.canon)
    canon[2] += " + 1"
    passes.add(1.0, [0.1] * 3, passes.first, canon)
    assert run.failures(wl, [passes]) == [wl.ops[2][0]]
    traced = run.run_passes(wl, 0, reference=canon)
    assert run.failures(wl, [passes, traced]) == [wl.ops[2][0]] * 2


def test_wrong_command_output_counts_as_failed():
    wl = wls.CliWorkload(5)
    ops = sorted(op for op in wl.ops if op[0] in ("parse.0", "parse.invalid"))
    results = [wl.run(payload) for _, payload in ops]
    assert wl.check(ops, results) == [True, True]
    results[0].out += "1"
    results[1].code = 0
    assert wl.check(ops, results) == [False, False]


def test_known_defect_stays_in_the_batch():
    labels = [label for label, _ in wls.CliWorkload(5).ops]
    assert wls.CliWorkload.KNOWN_DEFECTS <= set(labels)


def test_raising_operation_counts_as_failed():
    class Raising(wls.DecomposeWorkload):
        def run(self, payload):
            if payload is self.ops[0][1]:
                raise ZeroDivisionError("boom")
            return super().run(payload)

    wl = _small(Raising(5), 2)
    passes = run.run_passes(wl, 0)
    assert isinstance(passes.first[0], wls.Raised)
    assert run.failures(wl, [passes]) == [wl.ops[0][0]]


def _bindings():
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "nilheckeb" or modname.startswith("nilheckeb."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type):
                    for name, meth in vars(value).items():
                        out[(modname, attr, name)] = meth
    return out


def test_tracing_wrappers_are_gone_after_the_run():
    before = _bindings()
    tracer = tr.Tracer()
    with tracer:
        assert tr.traced_leftovers()
        f = nilheckeb.schubert(nilheckeb.longest_element(2), 2)
        nilheckeb.nh_mul(nilheckeb.NHElement.dee_word((1,), 2), nilheckeb.NHElement.x(1, 2))
        nilheckeb.decompose_schubert(f * f)
    assert tr.traced_leftovers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    st = tracer.state()
    for layer in ("kernels", "extpoly", "weylb.act_gen", "weylb.group", "demazure",
                  "nilhecke", "schur", "linalg"):
        assert st["calls"][layer] > 0 and st["self_s"][layer] >= 0
    assert st["counts"]["nilhecke.tails_checked"] > 0
    assert st["counts"]["linalg.cells"] > 0
    assert len(tracer.spans) >= sum(st["calls"].values())
