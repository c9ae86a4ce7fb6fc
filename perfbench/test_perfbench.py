"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import warmup

warmup.import_library()

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(tmp_cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )


def _metric_lines(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, _, unit = line.split()
            out[name] = unit
    return out


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    proc = _bench(HERE.parent, "--workload", "limit_density", "--seed", "3",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert _metric_lines(proc.stdout) == want


def test_spec_matches_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] >= max(m["bound"] for m in SPEC["end_to_end"])


def test_predictions_name_known_metrics_and_workloads():
    preds = json.loads((HERE / "predictions.json").read_text())["predictions"]
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for p in preds:
        assert p["workload"] in workloads.WORKLOADS
        assert set(p["layer_metrics"]) <= names
        assert set(p["moves"]) <= names


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_reproduces_the_item_list(name):
    first = [workloads.cycle(name, 7, c) for c in range(3)]
    assert first == [workloads.cycle(name, 7, c) for c in range(3)]
    assert first != [workloads.cycle(name, 8, c) for c in range(3)]
    assert all(len(items) == 25 for items in first)
    # the strata are fixed: only parameters and order depend on the seed
    def strata(items):
        return sorted((it.args[0], it.args[2] if it.args[0] == "verify" else "") for it in items)

    assert strata(first[0]) == strata(workloads.cycle(name, 8, 0))


def test_recurrence_items_keep_the_known_failure_in_view():
    for c in range(4):
        rec = [it for it in workloads.cycle("identity_suites", 1, c) if "recurrence" in it.args]
        assert sorted(int(it.args[it.args.index("--r") + 1]) for it in rec) == [2, 3, 4, 5]
        assert all(int(it.args[it.args.index("--n-max") + 1]) >= 8 for it in rec)


def _zeros_report(r, a, b, n):
    item = workloads.Item("cli", ("zeros", "--r", str(r), "--alpha", str(a),
                                  "--beta", str(b), "--n", str(n)))
    return workloads.check_outcome(workloads.run_item(item))


def test_zero_checker_accepts_the_program_and_rejects_a_nudged_zero():
    report = _zeros_report(2, 0.7, -0.5, 20)
    kind, r, a, b, n, zeros = report.deferred
    form = checks.ClosedForm()
    checks.check_zero_set(form, r, a, b, n, zeros)
    nudged = list(zeros)
    nudged[7] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_zero_set(form, r, a, b, n, tuple(nudged))


def test_verify_checker_rejects_a_verdict_that_contradicts_its_residual():
    item = workloads._verify("orthogonality", 2, 0.0, 0.0, 3)
    out = workloads.run_item(item)
    workloads.check_outcome(out)
    bad = out.stdout.replace("pass\nsuite=orthogonality n=3", "FAIL\nsuite=orthogonality n=3", 1)
    assert bad != out.stdout
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(item.args, out.code, bad)


def test_spans_account_for_the_item_and_bindings_are_restored():
    import angelesco.polynomials as polys

    original = polys.gamma_ratio
    rec = spans.Recorder()
    item = workloads._verify("ode", 3, 0.7, -0.5, 10)
    with spans.tracing(rec):
        rec.item = 0
        out = workloads.run_item(item, rec)
    assert polys.gamma_ratio is original
    workloads.check_outcome(out)
    root = rec.spans[0]
    assert root[0] == "cli.main" and root[3] == -1
    total_self = sum(s for _, _, s in rec.self_times())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)
    assert root[2] - root[1] <= out.latency
    names = {name for name, _, _ in rec.self_times()}
    assert {"operators.ode_residual.double", "operators.ode_residual.mpmath",
            "polynomials.base_poly", "numerics.gamma_ratio"} <= names


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "limit_density", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
