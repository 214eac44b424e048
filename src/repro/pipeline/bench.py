"""Perf benchmark harness: the repo's mapping wall-time trajectory.

``soidomino bench`` sweeps the benchmark suite across flows, series
orderings, and table modes through :class:`~repro.pipeline.BatchRunner`,
and records per-task wall time, tuple throughput, the engine's
instrumentation counters, and the sha256 netlist digest of every mapped
circuit.  The digests double as a bit-identity witness: two bench runs of
the same sweep on different kernel implementations must agree on every
digest, or one of them is wrong.

The payload is written to ``BENCH_mapping.json`` at the invocation
directory (the repo root, by convention) and is the unit every future
perf PR regresses against: pass the previous payload via ``--baseline``
and the harness embeds its aggregate and the measured speedup.

The sweep defaults are the *tuple-heavy* configurations — the SOI flow
under both the paper and exhaustive orderings, with single-best and
Pareto tables — because those dominate mapping cost and are where kernel
regressions show first.  The tree cache is off by default so every task
times the raw DP kernel; ``use_cache=True`` measures the production
configuration instead.  Schema invariants are centralized in
:func:`validate_payload`, which the CI perf-smoke job runs against the
artifact it uploads.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

from ..mapping.engine import ORDERING_RULES, MapperConfig
from ..mapping.flows import flow_config
from ..mapping.kernel import available_kernels
from .runner import BatchReport, BatchRunner, BatchTask

#: Payload format identifier; bump on breaking schema changes.
BENCH_SCHEMA = "soidomino-bench/1"

#: Default payload location — the repo root's perf trajectory file.
DEFAULT_BENCH_PATH = "BENCH_mapping.json"

#: Per-slot table regimes the sweep can exercise.
TABLE_MODES = ("single", "pareto")

#: Tuple-heavy defaults: the configurations kernel PRs must not regress.
DEFAULT_FLOWS = ("soi",)
DEFAULT_ORDERINGS = ("paper", "exhaustive")
DEFAULT_MODES = TABLE_MODES

#: DP kernels the sweep exercises.  Both by default when numpy is
#: importable: every bench run is then also a cross-kernel bit-identity
#: witness, and the per-kernel aggregates are what kernel PRs regress
#: against.  Without numpy the *default* drops to the reference kernel
#: alone — an explicit ``kernels=("soa",)`` request still hard-errors
#: through the registry rather than silently downgrading.
try:
    import numpy as _np  # noqa: F401

    DEFAULT_KERNELS = ("reference", "soa")
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    DEFAULT_KERNELS = ("reference",)

#: Keys every result row must carry (CI asserts them on the artifact).
#: ``pass_times`` (per-flow-pass wall clock) is additive and therefore
#: not required of older payloads passed via ``--baseline``; the same
#: goes for ``kernel``/``kernel_active``/``combine_s``.
RESULT_KEYS = ("circuit", "flow", "ordering", "table_mode", "ok",
               "elapsed_s", "digest", "tuples", "pruned", "bound_skips",
               "combines", "cache_hits", "cache_requests", "tuples_per_s",
               "t_total", "t_disch", "gates", "levels")


def bench_tasks(circuits: Sequence[str],
                flows: Sequence[str] = DEFAULT_FLOWS,
                orderings: Sequence[str] = DEFAULT_ORDERINGS,
                modes: Sequence[str] = DEFAULT_MODES,
                kernels: Sequence[str] = DEFAULT_KERNELS,
                w_max: Optional[int] = None,
                h_max: Optional[int] = None) -> List[BatchTask]:
    """The sweep's cross product as batch tasks, in deterministic order.

    Flow presets pin their defining fields — ``domino``/``rs`` force the
    adverse ordering — so requested orderings that a preset overrides
    collapse to one effective configuration; duplicates are dropped.
    The kernel is *not* part of :meth:`MapperConfig.fingerprint` (it
    cannot change results), so the dedup identity carries it explicitly:
    the sweep intentionally runs the same configuration once per kernel.
    ``w_max``/``h_max`` override the paper's pulldown limits — larger
    limits grow the candidate batches, which is how the tuple-heavy
    throughput sweep is produced.
    """
    for ordering in orderings:
        if ordering not in ORDERING_RULES:
            raise ValueError(f"unknown ordering {ordering!r}; expected one "
                             f"of {', '.join(ORDERING_RULES)}")
    for mode in modes:
        if mode not in TABLE_MODES:
            raise ValueError(f"unknown table mode {mode!r}; expected one "
                             f"of {', '.join(TABLE_MODES)}")
    for kernel in kernels:
        if kernel not in available_kernels():
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of "
                f"{', '.join(available_kernels())}")
    limits = {}
    if w_max is not None:
        limits["w_max"] = w_max
    if h_max is not None:
        limits["h_max"] = h_max
    tasks: List[BatchTask] = []
    seen = set()
    for name in circuits:
        for flow in flows:
            for ordering in orderings:
                for mode in modes:
                    for kernel in kernels:
                        config = MapperConfig(ordering=ordering,
                                              pareto=(mode == "pareto"),
                                              kernel=kernel, **limits)
                        effective = flow_config(flow, config)
                        identity = (name, flow, effective.fingerprint(),
                                    kernel)
                        if identity in seen:
                            continue
                        seen.add(identity)
                        tasks.append(BatchTask(circuit=name, flow=flow,
                                               config=effective))
    return tasks


def _result_row(result, repeats_elapsed: List[float],
                repeats_combine: List[float]) -> Dict:
    task = result.task
    elapsed = min(repeats_elapsed)
    combine_s = min(repeats_combine) if repeats_combine else 0.0
    row: Dict = {
        "circuit": task.circuit,
        "flow": task.flow,
        "ordering": task.config.ordering,
        "table_mode": "pareto" if task.config.pareto else "single",
        "kernel": task.config.kernel,
        "kernel_active": result.kernel,
        "ok": result.ok,
        "elapsed_s": elapsed,
        "combine_s": combine_s,
        "digest": result.digest,
        "pass_times": dict(result.pass_times or {}),
        "tuples": 0, "pruned": 0, "bound_skips": 0, "combines": 0,
        "cache_hits": 0, "cache_requests": 0,
        "tuples_per_s": 0.0,
        "t_total": None, "t_disch": None, "gates": None, "levels": None,
    }
    if result.stats is not None:
        s = result.stats
        row.update(tuples=s.tuples_created, pruned=s.tuples_pruned,
                   bound_skips=s.bound_skips, combines=s.combine_calls,
                   cache_hits=s.cache_hits, cache_requests=s.cache_requests)
        if elapsed > 0:
            row["tuples_per_s"] = s.tuples_created / elapsed
    if result.cost is not None:
        row.update(t_total=result.cost.t_total, t_disch=result.cost.t_disch,
                   gates=result.cost.num_gates, levels=result.cost.levels)
    if not result.ok:
        row["error"] = result.error
    return row


#: The tuple-heavy *throughput* subset: single-best tables under the
#: exhaustive ordering.  Those configurations stream the largest
#: candidate batches through pure vectorized selection (no per-slot
#: front replay), so they are where kernel throughput — tuples priced
#: per second of combine time — is compared.
def _throughput_row(row: Dict) -> bool:
    return (row["ok"] and row["table_mode"] == "single"
            and row["ordering"] == "exhaustive")


#: The pareto-heavy throughput subset: bounded Pareto fronts under the
#: exhaustive ordering — the PBE-aware regime the paper actually runs,
#: where every candidate is priced by the keep/evict/truncate front
#: recurrence rather than a plain argmin.  The soa kernel hands these
#: fronts to the scalar loop (DESIGN.md §12), so both kernels time the
#: same code here.
def _pareto_heavy_row(row: Dict) -> bool:
    return (row["ok"] and row["table_mode"] == "pareto"
            and row["ordering"] == "exhaustive")


def kernel_comparison(rows: List[Dict]) -> Dict:
    """Cross-kernel parity and throughput blocks of a bench payload.

    ``parity`` pairs every non-kernel configuration and asserts digests
    and work counters agree across kernels — the sweep-wide bit-identity
    witness.  ``by_kernel`` aggregates per kernel; ``speedup`` compares
    aggregate tuple throughput (tuples per second of combine time) of
    each kernel against the reference kernel, over two subsets: the
    tuple-heavy one (single/exhaustive — pure vectorized selection) and
    the pareto-heavy one (pareto/exhaustive — the bounded-front
    recurrence).
    """
    by_kernel: Dict[str, Dict] = {}
    for r in rows:
        if not r["ok"]:
            continue
        group = by_kernel.setdefault(
            r["kernel"], {"tasks": 0, "task_time_s": 0.0,
                          "combine_time_s": 0.0, "tuples": 0,
                          "heavy_combine_s": 0.0, "heavy_tuples": 0,
                          "pareto_combine_s": 0.0, "pareto_tuples": 0})
        group["tasks"] += 1
        group["task_time_s"] += r["elapsed_s"]
        group["combine_time_s"] += r["combine_s"]
        group["tuples"] += r["tuples"]
        if _throughput_row(r):
            group["heavy_combine_s"] += r["combine_s"]
            group["heavy_tuples"] += r["tuples"]
        if _pareto_heavy_row(r):
            group["pareto_combine_s"] += r["combine_s"]
            group["pareto_tuples"] += r["tuples"]
    for group in by_kernel.values():
        heavy_s = group.pop("heavy_combine_s")
        heavy_t = group.pop("heavy_tuples")
        group["tuple_heavy_tuples_per_combine_s"] = (
            heavy_t / heavy_s if heavy_s > 0 else None)
        pareto_s = group.pop("pareto_combine_s")
        pareto_t = group.pop("pareto_tuples")
        group["pareto_heavy_tuples_per_combine_s"] = (
            pareto_t / pareto_s if pareto_s > 0 else None)

    configs: Dict[tuple, Dict[str, Dict]] = {}
    for r in rows:
        if r["ok"]:
            key = (r["circuit"], r["flow"], r["ordering"], r["table_mode"])
            configs.setdefault(key, {})[r["kernel"]] = r
    checked = 0
    mismatches: List[Dict] = []
    for key, per_kernel in sorted(configs.items()):
        if len(per_kernel) < 2:
            continue
        checked += 1
        witness = {k: (r["digest"], r["tuples"], r["pruned"],
                       r["bound_skips"]) for k, r in per_kernel.items()}
        if len(set(witness.values())) > 1:
            mismatches.append({"circuit": key[0], "flow": key[1],
                               "ordering": key[2], "table_mode": key[3],
                               "witness": {k: list(v)
                                           for k, v in witness.items()}})

    reference = by_kernel.get("reference", {})
    ref_thru = reference.get("tuple_heavy_tuples_per_combine_s")
    ref_pareto = reference.get("pareto_heavy_tuples_per_combine_s")
    speedup = {}
    pareto_speedup = {}
    for kernel, group in by_kernel.items():
        if kernel == "reference":
            continue
        thru = group["tuple_heavy_tuples_per_combine_s"]
        speedup[kernel] = (thru / ref_thru
                           if thru and ref_thru else None)
        pthru = group["pareto_heavy_tuples_per_combine_s"]
        pareto_speedup[kernel] = (pthru / ref_pareto
                                  if pthru and ref_pareto else None)
    return {
        "by_kernel": by_kernel,
        "parity": {"configs_checked": checked,
                   "mismatches": mismatches},
        "tuple_heavy_throughput_speedup": speedup,
        "pareto_heavy_throughput_speedup": pareto_speedup,
    }


def _aggregate(rows: List[Dict]) -> Dict:
    ok_rows = [r for r in rows if r["ok"]]
    task_time = sum(r["elapsed_s"] for r in ok_rows)
    tuples = sum(r["tuples"] for r in ok_rows)
    by_config: Dict[str, Dict] = {}
    for r in ok_rows:
        label = f"{r['flow']}/{r['ordering']}/{r['table_mode']}"
        group = by_config.setdefault(
            label, {"tasks": 0, "task_time_s": 0.0, "tuples": 0})
        group["tasks"] += 1
        group["task_time_s"] += r["elapsed_s"]
        group["tuples"] += r["tuples"]
    heavy = [r for r in ok_rows
             if r["table_mode"] == "pareto" or r["ordering"] == "exhaustive"]
    pass_time_s: Dict[str, float] = {}
    for r in ok_rows:
        for name, seconds in r.get("pass_times", {}).items():
            pass_time_s[name] = pass_time_s.get(name, 0.0) + seconds
    return {
        "tasks": len(rows),
        "failures": len(rows) - len(ok_rows),
        "task_time_s": task_time,
        "tuples": tuples,
        "combines": sum(r["combines"] for r in ok_rows),
        "bound_skips": sum(r["bound_skips"] for r in ok_rows),
        "tuples_per_s": tuples / task_time if task_time else 0.0,
        "tuple_heavy_task_time_s": sum(r["elapsed_s"] for r in heavy),
        "pass_time_s": pass_time_s,
        "by_config": by_config,
    }


def run_bench(circuits: Optional[Sequence[str]] = None,
              flows: Sequence[str] = DEFAULT_FLOWS,
              orderings: Sequence[str] = DEFAULT_ORDERINGS,
              modes: Sequence[str] = DEFAULT_MODES,
              kernels: Sequence[str] = DEFAULT_KERNELS,
              w_max: Optional[int] = None,
              h_max: Optional[int] = None,
              jobs: int = 1,
              use_cache: bool = False,
              repeat: int = 1,
              tracer=None) -> Dict:
    """Run the sweep and return the bench payload (not yet written).

    ``repeat > 1`` re-runs the whole sweep and keeps each task's minimum
    wall time (counters and digests are checked to be identical across
    repeats — a mismatch marks the payload as non-deterministic).

    ``tracer`` (a :class:`~repro.obs.Tracer`) collects the per-case span
    trees: each repeat's stitched batch trace is attached under a
    ``bench`` root span, which ``soidomino bench --trace FILE`` exports.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    from ..bench_suite import circuit_names

    names = list(circuits) if circuits else circuit_names()
    tasks = bench_tasks(names, flows=flows, orderings=orderings, modes=modes,
                        kernels=kernels, w_max=w_max, h_max=h_max)
    started = time.perf_counter()
    reports: List[BatchReport] = []
    for _ in range(repeat):
        runner = BatchRunner(max_workers=jobs, use_cache=use_cache)
        report = (runner.run_serial(tasks) if jobs == 1
                  else runner.run(tasks))
        reports.append(report)
    wall_s = time.perf_counter() - started

    deterministic = True
    rows = []
    first = reports[0]
    for index, result in enumerate(first.results):
        elapsed = [rep.results[index].elapsed_s for rep in reports]
        combine = [rep.results[index].stats.combine_time_s
                   for rep in reports
                   if rep.results[index].stats is not None]
        if any(rep.results[index].digest != result.digest
               for rep in reports[1:]):
            deterministic = False
        rows.append(_result_row(result, elapsed, combine))

    if tracer is not None:
        from ..obs import stitch

        repeat_trees = []
        for number, report in enumerate(reports):
            tree = report.build_trace()
            tree.name = f"repeat:{number}"
            tree.attributes["repeat"] = number
            repeat_trees.append(tree)
        tracer.attach(stitch("bench", repeat_trees, category="bench",
                             attributes={"tasks": len(tasks),
                                         "repeat": repeat}))
    total_metrics = first.total_metrics()

    flow_list = list(dict.fromkeys(flows))
    payload = {
        "schema": BENCH_SCHEMA,
        "generated_unix": time.time(),
        "methodology": (
            "Serial sweep of the benchmark suite through BatchRunner; "
            "per-task wall time is the minimum over "
            f"{repeat} repeat(s); tree cache "
            f"{'enabled' if use_cache else 'disabled'} so each task times "
            "the raw DP kernel; digests are sha256 of the mapped "
            "transistor netlist and must be bit-identical across kernel "
            "implementations (the kernels block cross-checks them). "
            "tuple-heavy = pareto tables or exhaustive ordering, the "
            "configurations perf PRs regress against; kernel throughput "
            "(tuples per second of combine time) is compared over the "
            "single/exhaustive subset, where the largest candidate "
            "batches run pure vectorized selection."),
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "jobs": jobs,
            "cache": use_cache,
            "repeat": repeat,
            "mode": first.mode,
        },
        "sweep": {
            "circuits": names,
            "flows": flow_list,
            "orderings": list(dict.fromkeys(orderings)),
            "table_modes": list(dict.fromkeys(modes)),
            "kernels": list(dict.fromkeys(kernels)),
            "w_max": w_max,
            "h_max": h_max,
        },
        "deterministic": deterministic,
        "wall_s": wall_s,
        "results": rows,
        "aggregate": _aggregate(rows),
        "kernels": kernel_comparison(rows),
    }
    from ..obs import extend_bench_payload

    return extend_bench_payload(payload, metrics=total_metrics)


def attach_baseline(payload: Dict, baseline: Dict) -> Dict:
    """Embed ``baseline``'s aggregate and the measured speedups.

    Speedups compare summed per-task wall time (serial-equivalent work),
    overall and over the tuple-heavy subset; per-config ratios are added
    for every configuration present in both payloads.  Returns
    ``payload`` for chaining.
    """
    base_agg = baseline.get("aggregate", {})
    cur_agg = payload["aggregate"]

    def ratio(base: float, cur: float) -> Optional[float]:
        return (base / cur) if base and cur else None

    by_config = {}
    for label, group in cur_agg.get("by_config", {}).items():
        base_group = base_agg.get("by_config", {}).get(label)
        if base_group:
            by_config[label] = ratio(base_group["task_time_s"],
                                     group["task_time_s"])
    payload["baseline"] = {
        "generated_unix": baseline.get("generated_unix"),
        "aggregate": base_agg,
        "speedup": ratio(base_agg.get("task_time_s", 0.0),
                         cur_agg["task_time_s"]),
        "tuple_heavy_speedup": ratio(
            base_agg.get("tuple_heavy_task_time_s", 0.0),
            cur_agg["tuple_heavy_task_time_s"]),
        "speedup_by_config": by_config,
    }
    return payload


def validate_payload(payload: Dict) -> List[str]:
    """Schema problems in a bench payload ([] when it is well-formed).

    This is the CI perf-smoke contract: required keys present, every
    result carries a digest, and the work counters are positive.  No
    wall-clock thresholds — runtimes flake, schemas do not.
    """
    problems: List[str] = []
    for required in ("schema", "methodology", "environment", "sweep",
                     "results", "aggregate", "wall_s"):
        if required not in payload:
            problems.append(f"missing top-level key {required!r}")
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {BENCH_SCHEMA!r}")
    results = payload.get("results", [])
    if not results:
        problems.append("no results")
    for index, row in enumerate(results):
        for key in RESULT_KEYS:
            if key not in row:
                problems.append(f"results[{index}] missing key {key!r}")
        if row.get("ok"):
            if not row.get("digest"):
                problems.append(f"results[{index}] has no netlist digest")
            for counter in ("tuples", "combines"):
                if not row.get(counter, 0) > 0:
                    problems.append(
                        f"results[{index}] counter {counter!r} is not > 0")
            if not row.get("elapsed_s", 0) > 0:
                problems.append(f"results[{index}] elapsed_s is not > 0")
    aggregate = payload.get("aggregate", {})
    for counter in ("tasks", "task_time_s", "tuples", "combines"):
        if not aggregate.get(counter, 0) > 0:
            problems.append(f"aggregate counter {counter!r} is not > 0")
    kernels = payload.get("kernels")
    if kernels is not None:
        for mismatch in kernels.get("parity", {}).get("mismatches", []):
            problems.append(
                "cross-kernel digest/counter mismatch on "
                f"{mismatch.get('circuit')}/{mismatch.get('ordering')}/"
                f"{mismatch.get('table_mode')}")
    return problems


def write_payload(payload: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=False)
        handle.write("\n")


def load_payload(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
