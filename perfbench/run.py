"""Benchmark of the angelesco library: four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the loop runs whole cycles of items, one client, until
``S`` seconds have passed and at least 100 items have completed (so the
90th percentile has ten items beyond it), then checks every output and
prints the end-to-end metrics.  Their times are taken at reference speed
(``yardstick.py``); the times as measured are printed next to them.

- ``setup_s``: median over five fresh interpreters of importing
  ``angelesco.cli`` and warming up (``warmup.py``);
- ``items_per_s``: items completed per second of item time;
- ``latency_p50_ms``, ``latency_p90_ms``: nearest-rank percentiles of the
  per-item latency;
- ``item_pass_share``: share of items that passed every check and whose
  verify levels all read pass;
- ``peak_rss_mb``: peak resident set of this process after the loop.

``failed`` in the result counts items whose operation failed: an exception,
an exit code that contradicts the output, or output a check rejects.  A
verify level reading FAIL outside the orthogonality suite is the program's
own verdict on an identity check; it lowers ``item_pass_share`` and is
listed as ``verdict-fail``, but is not an operation failure.

With ``--trace 1`` the run takes a fixed list of ``max(1, S // 5)`` cycles,
runs it twice untraced and then once with spans recorded at every traced
library function (``spans.py``), and prints the per-layer metrics, their
times also at reference speed.  The last line of stdout is the JSON result;
the lines before it name every metric with its unit, the environment, and
each failure.  A JSON record of the run (and,
for traced runs, the spans) is written under ``perfbench/out/``.
``--workload all`` runs the four workloads in turn, each in a fresh
interpreter, and merges their results.  Workloads, metrics and their
bounds are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import warmup
from spans import ODE_DOUBLE_MAX_N, Recorder, tracing
from workloads import WORKLOADS, check_outcome, cycle, run_item
from yardstick import at_reference_speed, reference_s

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_ITEMS = 100
# stop adding cycles past this, even below MIN_ITEMS, so that a run of a
# much slower build still ends within 180 s
MAX_LOOP_S = 120.0
SETUP_REPEATS = 5
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "item_pass_share": "share",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "<layer>.self_s" sums the self time of every
# span of that module, "<span>.calls" / "<span>.self_s" cover one span name
PER_LAYER = {
    "numerics.self_s": "s",
    "numerics.gamma_ratio.calls": "count",
    "numerics.gamma_ratio.self_s": "s",
    "poly.self_s": "s",
    "poly.poly_eval.calls": "count",
    "poly.poly_eval.self_s": "s",
    "polynomials.self_s": "s",
    "polynomials.type1.calls": "count",
    "polynomials.type1.self_s": "s",
    "polynomials.base_poly.calls": "count",
    "polynomials.base_poly.self_s": "s",
    "orthogonality.self_s": "s",
    "orthogonality.verify_type1.calls": "count",
    "orthogonality.verify_type1.self_s": "s",
    "recurrence.self_s": "s",
    "recurrence.recurrence_residual.calls": "count",
    "recurrence.recurrence_residual.self_s": "s",
    "operators.self_s": "s",
    "operators.ode_residual.double.calls": "count",
    "operators.ode_residual.double.self_s": "s",
    "operators.ode_residual.mpmath.calls": "count",
    "operators.ode_residual.mpmath.self_s": "s",
    "operators.lowering_check.self_s": "s",
    "operators.raising_check.self_s": "s",
    "zeros.self_s": "s",
    "zeros.find_zeros.double.calls": "count",
    "zeros.find_zeros.double.self_s": "s",
    "zeros.find_zeros.extended.calls": "count",
    "zeros.find_zeros.extended.self_s": "s",
    "zeros.newton_iters": "count",
    "asymptotics.self_s": "s",
    "asymptotics.theta_of_hatx.calls": "count",
    "asymptotics.theta_of_hatx.self_s": "s",
    "asymptotics.density_curve.self_s": "s",
    "asymptotics.perron_density.self_s": "s",
    "asymptotics.cubic_branches_r2.self_s": "s",
    "cli.self_s": "s",
    "orthogonality.worst_residual": "rel",
    "zeros.worst_residual": "rel",
    "operators.ode.worst_residual": "rel",
    "operators.ode.double.worst_residual": "rel",
    "recurrence.worst_residual": "rel",
    "recurrence.levels_failed": "count",
    "trace.item_s": "s",
    "trace.overhead_share": "share",
}
LAYERS = (
    "numerics", "poly", "polynomials", "orthogonality", "recurrence",
    "operators", "zeros", "asymptotics", "cli",
)


def environment(seed):
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_setup():
    """Median over fresh interpreters of the wall time to import and warm
    up, at reference speed (each probe times the yardstick loop right after
    its warm-up and prints it) and as measured; the yardstick's own time is
    not counted."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "warmup.py")],
            cwd=warmup.ROOT, check=True, timeout=120,
            capture_output=True, text=True,
        )
        ref, ref_total = map(float, proc.stdout.split())
        raw.append(time.perf_counter() - t0 - ref_total)
        scaled.append(at_reference_speed(raw[-1], ref))
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Ledger:
    """Outcomes of a pass with their check results."""

    def __init__(self, workload):
        self.workload = workload
        self.outcomes = []
        self.reports = []
        self.failures = []  # (index, CheckFailed)

    def add(self, outcome):
        i = len(self.outcomes)
        self.outcomes.append(outcome)
        try:
            self.reports.append(check_outcome(outcome))
        except checks.CheckFailed as exc:
            if outcome.code is not None and outcome.error:
                exc.reason += f" (stderr: {outcome.error})"
            self.reports.append(checks.Report())
            self.failures.append((i, exc))
        outcome.seal()

    def finish(self):
        deferred = [(i, rep) for i, rep in enumerate(self.reports) if rep.deferred]
        self.failures += checks.run_deferred(deferred)

    @property
    def failed(self):
        return sorted({i for i, _ in self.failures})

    def passed_items(self):
        failed = set(self.failed)
        return sum(
            1 for i, rep in enumerate(self.reports)
            if i not in failed and not rep.failing_levels
        )

    def failure_lines(self):
        lines = []
        for i, exc in sorted(self.failures, key=lambda f: f[0]):
            lines.append(
                f"failure workload={self.workload} item={self.outcomes[i].item.label!r} "
                f"level={exc.level or '-'} reason={exc.reason}"
            )
        seen = set()
        for o, rep in zip(self.outcomes, self.reports):
            if rep.failing_levels and o.item.label not in seen:
                seen.add(o.item.label)
                levels = ",".join(f"n={n}" for n in rep.failing_levels)
                lines.append(
                    f"verdict-fail workload={self.workload} item={o.item.label!r} levels={levels}"
                )
        return lines


def repeat_is_identical(outcome):
    """Run the item again; its output must be byte-identical."""
    again = run_item(outcome.item)
    again.seal()
    return again.code == outcome.code and again.digest == outcome.digest


def run_timed(workload, seed, seconds):
    ledger = Ledger(workload)
    refs = []  # reference-loop time around each item
    prev = reference_s()
    start = time.perf_counter()
    index = 0
    while True:
        for item in cycle(workload, seed, index):
            outcome = run_item(item)
            now = reference_s()
            refs.append(0.5 * (prev + now))
            prev = now
            ledger.add(outcome)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(ledger.outcomes) >= MIN_ITEMS or elapsed >= MAX_LOOP_S):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.finish()
    raw = [o.latency for o in ledger.outcomes]
    lat = [at_reference_speed(t, r) for t, r in zip(raw, refs)]
    metrics = {
        "items_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 0.50),
        "latency_p90_ms": 1e3 * percentile(lat, 0.90),
        "item_pass_share": ledger.passed_items() / len(lat),
        "peak_rss_mb": rss_mb,
    }
    info = {
        "cycles": index,
        "items": len(lat),
        "loop_s": time.perf_counter() - start,
        "reference_ms": 1e3 * statistics.median(refs),
        "raw_items_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": 1e3 * percentile(raw, 0.50),
        "raw_latency_p90_ms": 1e3 * percentile(raw, 0.90),
    }
    return ledger, metrics, info


def _layer_metrics(rec, reports, refs, untraced_s, traced_s):
    calls, self_s = {}, {}
    for name, item, s in rec.self_times():
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + at_reference_speed(s, refs[item])
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s
    m = {}
    for key in PER_LAYER:
        base, _, kind = key.rpartition(".")
        if kind == "calls":
            m[key] = calls.get(base, 0)
        elif kind == "self_s":
            m[key] = layer_s[base] if base in layer_s else self_s.get(base, 0.0)

    def worst(suite, max_n=None):
        return max(
            (res for rep in reports if rep.suite == suite
             for n, res, _ in rep.levels if max_n is None or n <= max_n),
            default=0.0,
        )

    m["orthogonality.worst_residual"] = worst("orthogonality")
    m["zeros.worst_residual"] = rec.zeros_worst_residual
    m["operators.ode.worst_residual"] = worst("ode")
    m["operators.ode.double.worst_residual"] = worst("ode", ODE_DOUBLE_MAX_N)
    m["recurrence.worst_residual"] = worst("recurrence")
    m["recurrence.levels_failed"] = sum(
        len(rep.failing_levels) for rep in reports if rep.suite == "recurrence"
    )
    m["zeros.newton_iters"] = rec.newton_iters
    m["trace.item_s"] = traced_s
    m["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return m


def _scaled_pass(items, rec=None):
    """Run ``items`` once; return the outcomes, the yardstick time around
    each, and the pass's item time at reference speed."""
    outcomes, refs = [], []
    prev = reference_s()
    for i, item in enumerate(items):
        if rec is not None:
            rec.item = i
        outcomes.append(run_item(item, rec))
        now = reference_s()
        refs.append(0.5 * (prev + now))
        prev = now
    total = sum(at_reference_speed(o.latency, r) for o, r in zip(outcomes, refs))
    return outcomes, refs, total


def run_traced(workload, seed, seconds, spans_path):
    n_cycles = max(1, seconds // 5)
    items = [it for c in range(n_cycles) for it in cycle(workload, seed, c)]
    # a first pass fills the caches (mpmath's per-precision constants among
    # them) that would otherwise make whichever pass ran second look faster
    _scaled_pass(items)
    plain, _, plain_s = _scaled_pass(items)
    rec = Recorder()
    with tracing(rec):
        traced, refs, traced_s = _scaled_pass(items, rec)
    rec.item = -1
    ledger = Ledger(workload)
    for o in plain + traced:
        ledger.add(o)
    ledger.finish()
    metrics = _layer_metrics(rec, ledger.reports[len(plain):], refs, plain_s, traced_s)
    rec.write(spans_path)
    info = {"cycles": n_cycles, "items": len(items), "spans": len(rec.spans)}
    return ledger, metrics, info


def run_all(args):
    """Every workload in its own fresh interpreter, one after another.  Their
    report lines pass through; the last line merges their results, with
    metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=warmup.ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        warmup.import_library()
    except (warmup.MissingLibrary, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        warmup.warm_up()
        ledger, metrics, info = run_traced(
            args.workload, args.seed, args.seconds, OUT / f"{stem}-spans.jsonl.gz"
        )
        units = PER_LAYER
    else:
        setup_s, raw_setup_s = measure_setup()
        warmup.warm_up()
        ledger, metrics, info = run_timed(args.workload, args.seed, args.seconds)
        metrics = {"setup_s": setup_s, **metrics}
        info["raw_setup_s"] = raw_setup_s
        units = END_TO_END

    first_cli = next((o for o in ledger.outcomes if o.item.kind == "cli"), ledger.outcomes[0])
    identical = repeat_is_identical(first_cli)
    lines = ledger.failure_lines()
    if not identical:
        lines.append(
            f"failure workload={args.workload} item={first_cli.item.label!r} "
            "level=- reason=repeated run gave different output"
        )
    failed = len(ledger.failed)
    correct = failed == 0 and identical

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload={args.workload} loop=closed clients=1 trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in info.items())
    )
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": len(ledger.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "env": env, "workload": args.workload, "trace": args.trace, "info": info,
        "result": result, "failures": lines,
        "items": [[o.item.label, o.latency] for o in ledger.outcomes],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
