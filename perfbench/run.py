"""The nilheckeb benchmark: one workload per run, one client, closed loop.

Usage::

    python3 perfbench/run.py --workload {schubert,nhmul,cli,decompose} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy.  A run sets the workload
up (import, seeded input generation, warm-up on inputs disjoint from the
timed ones), then repeats the workload's fixed batch of operations, one at
a time, for ``--seconds`` seconds (no batch starts that would end past
them), and finally checks every output.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Each operation's latency
is the upper quartile of its times over the batches of the run (see
``upper_quartile``); ``wall_s`` is the sum of these
over the batch, ``op_p50_ms`` their median and ``op_tail_ms`` the highest
percentile of them with 10 operations beyond it.  ``setup_s`` is the median
set-up time of this process and four fresh ones.  ``--trace 1`` spends half
the time untraced and half with every layer's public functions wrapped
(see ``tracer.py``), reports the per-layer metrics per batch, and writes
the first traced batch's spans to ``.perfbench_out/spans-<workload>.tsv``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import tracer as tr
import workloads as wls

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
OUT_DIR = os.path.join(wls.ROOT, ".perfbench_out")

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {}
for _layer in tr.LAYERS:
    LAYER_METRICS[f"{_layer}.calls"] = "count"
    LAYER_METRICS[f"{_layer}.self_s"] = "s"
LAYER_METRICS.update({
    "kernels.mul_pairs": "count",
    "kernels.div_terms": "count",
    "coeff.int_as_fraction_share": "ratio",
    "extpoly.div_attempts": "count",
    "extpoly.div_exact_frac": "ratio",
    "extpoly.peak_terms": "count",
    "nilhecke.tails_checked": "count",
    "nilhecke.tails_kept_frac": "ratio",
    "linalg.cells": "count",
    "cli.startup_s": "s",
    "trace.overhead_frac": "ratio",
})


class Passes:
    """Timings and results of repeated passes over a workload's batch.

    Only the first pass's results are kept; every pass's canonical results
    are compared with ``canon`` (the first pass's, unless a reference is
    given) and the positions that differ are kept in ``mismatches``.
    """

    def __init__(self, reference=None):
        self.walls = []
        self.latencies = []  # one list per pass, one entry per operation
        self.first = None
        self.canon = reference
        self.mismatches = []  # (pass, operation) indices

    def add(self, wall, latencies, results, canon):
        if self.first is None:
            self.first = results
        if self.canon is None:
            self.canon = canon
        p = len(self.walls)
        self.mismatches += [(p, k) for k, (a, b) in enumerate(zip(canon, self.canon)) if a != b]
        self.walls.append(wall)
        self.latencies.append(latencies)


def _canon(wl, result):
    if isinstance(result, wls.Raised):
        return repr(result)
    try:
        return wl.canon(result)
    except Exception as exc:  # a malformed result is a failed operation
        return f"uncanonical {type(exc).__name__}: {exc}"


def run_passes(wl, seconds, tracer=None, reference=None):
    """Repeat the batch for ``seconds`` (at least once).

    A batch starts only if a batch of the median length so far would end
    within ``seconds``, so a run does not overshoot by a slow batch.
    """
    out = Passes(reference)
    deadline = time.perf_counter() + seconds
    while True:
        results = []
        latencies = []
        t_pass = time.perf_counter()
        for k, (label, payload) in enumerate(wl.ops):
            t = time.perf_counter()
            try:
                if tracer is None:
                    r = wl.run(payload)
                else:
                    tracer.op_id = k
                    r = tracer.span("op", label, wl.run, payload)
            except Exception as exc:  # counted as a failed operation
                r = wls.Raised(exc)
            latencies.append(time.perf_counter() - t)
            results.append(r)
        wall = time.perf_counter() - t_pass
        if tracer is not None:
            tracer.keep_spans = False  # spans of the first batch are enough
        out.add(wall, latencies, results, [_canon(wl, r) for r in results])
        if time.perf_counter() + statistics.median(out.walls) > deadline:
            return out


def failures(wl, runs):
    """Labels of failed operations, one entry per failing (pass, op).

    The first pass of ``runs[0]`` is checked; an operation fails in every
    pass where that check failed or its result differs from the first.
    """
    try:
        verdicts = wl.check(wl.ops, runs[0].first)
    except Exception as exc:  # a check that cannot run fails every operation
        print(f"check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        verdicts = [False] * len(wl.ops)
    failed = []
    for passes in runs:
        bad = set(passes.mismatches)
        for p in range(len(passes.walls)):
            for k, (label, _) in enumerate(wl.ops):
                if not verdicts[k] or (p, k) in bad:
                    failed.append(label)
    return failed


def tail(latencies):
    """The highest nearest-rank percentile with 10 samples beyond it.

    Returns (value, percentile); with 10 or fewer samples, the fastest.
    """
    xs = sorted(latencies)
    idx = max(0, len(xs) - 11)
    return xs[idx], 100 * (idx + 1) / len(xs)


def upper_quartile(xs):
    """The nearest-rank 75th percentile of ``xs``.

    A shared core runs at its usual speed with bursts about twice as fast
    that come and go within seconds (a plain CPU loop shows it, in CPU time
    as in wall time).  How much of a run the bursts cover varies from run
    to run, so the fastest time and the median of an operation's times
    move with it; the upper quartile stays at the usual speed unless the
    bursts cover most of the run.
    """
    ys = sorted(xs)
    return ys[math.ceil(0.75 * len(ys)) - 1]


def setup(name, seed):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import nilheckeb

    wl = wls.WORKLOADS[name](seed)
    wl.warm_up()
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(nilheckeb.__file__).startswith(wls.SRC + os.sep):
        raise RuntimeError(f"nilheckeb imported from {nilheckeb.__file__}, not {wls.SRC}")
    return wl, elapsed


def setup_probe_times(name, seed, count):
    """Set-up time of ``count`` fresh processes."""
    times = []
    for _ in range(count):
        res = wls.run_child(
            (sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe"), wls.child_env())
        if res.code != 0:
            raise RuntimeError(f"setup probe failed: {res.err.strip()}")
        times.append(json.loads(res.out.splitlines()[-1])["setup_s"])
    return times


def startup_s():
    """Median fresh ``import nilheckeb`` time minus a bare interpreter's."""
    def median_wall(code):
        return statistics.median(
            wls.run_child((sys.executable, "-c", code), wls.child_env()).wall_s
            for _ in range(STARTUP_SAMPLES))

    return median_wall("import nilheckeb") - median_wall("pass")


def end_to_end(wl, passes, setup_times):
    per_op = [upper_quartile(col) for col in zip(*passes.latencies)]
    lat_ms = [t * 1000 for t in per_op]
    tail_ms, pct = tail(lat_ms)
    if isinstance(wl, wls.CliWorkload):
        peak_kb = max(r.maxrss_kb for r in passes.first if not isinstance(r, wls.Raised))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"tail: p{pct:.1f} of {len(lat_ms)} operations, each the upper quartile of "
          f"{len(passes.latencies)} batches")
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(wl, plain, traced, tracer):
    states = [tracer.state()] + getattr(wl, "trace_states", [])
    st = tr.merge_states(states)
    n = len(traced.walls)
    c = st["counts"]

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {}
    for layer in tr.LAYERS:
        out[f"{layer}.calls"] = st["calls"][layer] / n
        out[f"{layer}.self_s"] = st["self_s"][layer] / n
    out.update({
        "kernels.mul_pairs": c["kernels.mul_pairs"] / n,
        "kernels.div_terms": c["kernels.div_terms"] / n,
        "coeff.int_as_fraction_share": share("coeff.int_as_fraction", "coeff.total"),
        "extpoly.div_attempts": c["extpoly.div_attempts"] / n,
        "extpoly.div_exact_frac": share("extpoly.div_exact", "extpoly.div_attempts"),
        "extpoly.peak_terms": c["extpoly.peak_terms"],
        "nilhecke.tails_checked": c["nilhecke.tails_checked"] / n,
        "nilhecke.tails_kept_frac": share("nilhecke.tails_kept", "nilhecke.tails_checked"),
        "linalg.cells": c["linalg.cells"] / n,
        "cli.startup_s": startup_s() if isinstance(wl, wls.CliWorkload) else 0.0,
        "trace.overhead_frac":
            statistics.median(traced.walls) / statistics.median(plain.walls) - 1,
    })
    return out


def spans_path(wl):
    """A fresh spans file for this workload, with its header line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}.tsv")
    with open(path, "w") as fh:
        fh.write("\t".join(("process",) + tr.SpanLog.COLUMNS) + "\n")
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                         "for checking a claim on inputs it was not tuned on)")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(wls.SRC, "nilheckeb", "__init__.py")):
        print(f"no nilheckeb sources under {wls.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, wls.SRC)

    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        half = args.seconds / 2
        plain = run_passes(wl, half)
        tracer = tr.Tracer()
        path = spans_path(wl)
        if isinstance(wl, wls.CliWorkload):
            wl.spans_path = path
        with tracer:
            traced = run_passes(wl, half, tracer, reference=plain.canon)
        tracer.spans.write_tsv(path, "benchmark")
        leftovers = tr.traced_leftovers()
        if leftovers:
            raise RuntimeError(f"tracing wrappers left behind: {leftovers}")
        runs = [plain, traced]  # tracing must not change a result
        metrics = per_layer(wl, plain, traced, tracer)
        units = LAYER_METRICS
        print(f"spans: {path}")
    else:
        setup_times = [own_setup] + setup_probe_times(args.workload, args.seed,
                                                      SETUP_SAMPLES - 1)
        runs = [run_passes(wl, args.seconds)]
        metrics = end_to_end(wl, runs[0], setup_times)
        units = E2E_METRICS

    failed = failures(wl, runs)
    known = wl.KNOWN_DEFECTS
    batches = sum(len(r.walls) for r in runs)
    attempted = batches * len(wl.ops)
    correct = all(label in known for label in failed)
    for label in sorted(set(failed)):
        print(f"failed: {label}{' (known defect)' if label in known else ''}")
    print(f"workload {wl.name}: seed {wl.seed}, {len(wl.ops)} operations per batch, "
          f"{batches} batches")
    print(f"digest: {wls.digest(runs[0].canon)}")
    print(f"ops_failed_frac: {len(failed) / attempted:.6f} ratio")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"check: {'ok' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
