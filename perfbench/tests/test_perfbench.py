"""Tests of the benchmark itself, on reduced inputs (``--scale small``).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
PINS = os.path.join(ROOT, "tests", "data", "seed_digests.json")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, *extra, seed=0, trace=0, seconds=2, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--scale", "small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


_traced = {}


def traced(workload, seed=0):
    """Small traced runs are shared between tests (they take seconds)."""
    key = (workload, seed)
    if key not in _traced:
        _traced[key] = run_bench(workload, seed=seed, trace=1)
    return _traced[key]


def assert_metrics(proc, result, declared):
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        # the human-readable lines name every metric with its unit too
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}")
                   for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_end_to_end_metric(workload):
    proc, result = run_bench(workload)
    assert_metrics(proc, result, SPEC["end_to_end"])
    assert "failed_frac = 0 " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_traced_run_prints_every_layer_metric(workload):
    proc, result = traced(workload)
    assert_metrics(proc, result, SPEC["per_layer"])
    assert "layer report" in proc.stdout
    assert "tracing overhead" in proc.stdout


def test_wrong_digest_is_caught(tmp_path):
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    pins["mux/soi/paper/single"] = "0" * 64
    bad = tmp_path / "pins.json"
    bad.write_text(json.dumps(pins), encoding="utf-8")
    proc, result = run_bench("paper-suite", "--pins", str(bad))
    assert proc.returncode != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "failed_frac = 0 " not in proc.stdout
    assert "mux/soi: digest" in proc.stderr


def test_layer_counts_repeat_exactly():
    first = traced("paper-suite", seed=0)[1]["metrics"]
    second = traced("paper-suite", seed=1)[1]["metrics"]
    for name in ("mapping.tuples_created", "mapping.combine_calls",
                 "mapping.bound_skips", "synth.unate_nodes"):
        assert first[name]["value"] == second[name]["value"] > 0


def test_service_probe_starts_exactly_one_daemon():
    proc, result = traced("paper-suite")
    assert result["correct"] is True
    assert "service probe: daemons running: 1" in proc.stdout


def test_entry_point_is_inert_when_reimported():
    """forkserver/spawn workers re-import the main module under the
    name ``__mp_main__``; that must start nothing."""
    code = ("import runpy, sys\n"
            f"runpy.run_path({RUN!r}, run_name='__mp_main__')\n"
            "print('imported')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "imported\n"


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_run(trace):
    """Run the benchmark under a subreaper, which adopts every process
    the run leaves behind: none may be left once the run has exited."""
    code = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {ROOT!r})\n"
        "from perfbench.common import become_subreaper, child_pids\n"
        "assert become_subreaper()\n"
        "proc = subprocess.run(sys.argv[1:], capture_output=True)\n"
        "print(proc.returncode, len(child_pids()))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, sys.executable, RUN,
         "--workload", "paper-suite", "--seed", "0", "--seconds", "2",
         "--trace", str(trace), "--scale", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_hd_quantile_moves_smoothly_across_a_gap():
    """One value crossing the gap at the median moves the estimate by a
    small step, where the nearest-rank median jumps across the gap."""
    sys.path.insert(0, ROOT)
    from perfbench.common import hd_quantile

    low, high = [0.07] * 42, [0.12] * 42
    before = hd_quantile(low + high, 0.5)
    after = hd_quantile(low[:-1] + [0.12] + high, 0.5)
    assert 0.07 < before < after < 0.12
    assert after - before < 0.25 * (0.12 - 0.07)
    assert hd_quantile([3.0] * 9, 0.9) == pytest.approx(3.0)


def test_scale_factor_follows_the_calibration_in_part():
    sys.path.insert(0, ROOT)
    from perfbench.common import CAL_ELASTICITY, CAL_REF_S, scale_factor

    assert scale_factor(CAL_REF_S) == 1.0
    assert scale_factor(4 * CAL_REF_S) == pytest.approx(
        0.25 ** CAL_ELASTICITY)
    assert 0.25 < scale_factor(4 * CAL_REF_S) < 1.0
    assert 1.0 < scale_factor(CAL_REF_S / 4) < 4.0
