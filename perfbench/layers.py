"""The traced run: each layer timed from outside through its public calls.

Spans are recorded by this file around calls into ``repro`` (nothing in
``src/`` is instrumented for the benchmark).  Every span has a name, a
start, an end and a parent; spans of one task or job share a group id.
Spans stay in memory and are written to ``.perfbench/traces/`` when the
run ends; a layer's self time is its spans' durations minus the parts
their child spans cover.

For each task of the workload the run makes four executions: an
untraced ``map_network`` call (the task time users see), the staged
chain of public calls that ``map_network`` runs, untraced and traced
(their difference is the tracing overhead), and the DP once more on the
reference kernel (the oracle the default must not lose to).  Every run,
whatever its workload, then probes the pipeline, service and journal
layers on a seeded service job mix.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .common import (
    WORK_DIR,
    Outcome,
    Task,
    check_mapping,
    expected_digest,
    import_repro_s,
    job_mix,
    job_tasks,
    load_pins,
    median,
    pass_order,
    task_config,
    warmup_tasks,
    workload_tasks,
)
from .service_load import Daemon, closed_loop, gate_session

#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json``
#: lists the same names; README.md maps each to the call it times and
#: the end-to-end metric it should move.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("import.repro_s", "s", "lower"),
    ("bench_suite.generate_s", "s", "lower"),
    ("io.parse_s", "s", "lower"),
    ("io.parse_nodes_per_s", "1/s", "higher"),
    ("synth.decompose_s", "s", "lower"),
    ("synth.sweep_s", "s", "lower"),
    ("synth.unate_s", "s", "lower"),
    ("synth.unate_nodes", "count", "lower"),
    ("mapping.dp_s", "s", "lower"),
    ("mapping.plan_s", "s", "lower"),
    ("mapping.combine_s", "s", "lower"),
    ("mapping.tuples_created", "count", "lower"),
    ("mapping.combine_calls", "count", "lower"),
    ("mapping.bound_skips", "count", "higher"),
    ("mapping.keep_ratio", "ratio", "higher"),
    ("mapping.tuples_per_s", "1/s", "higher"),
    ("mapping.routed_soa_frac", "ratio", "lower"),
    ("mapping.oracle_dp_s", "s", "lower"),
    ("mapping.default_vs_oracle", "ratio", "lower"),
    ("mapping.rearrange_s", "s", "lower"),
    ("mapping.materialize_s", "s", "lower"),
    ("domino.cost_s", "s", "lower"),
    ("domino.digest_s", "s", "lower"),
    ("flow.overhead_s", "s", "lower"),
    ("sim.verify_s", "s", "lower"),
    ("obs.report_s", "s", "lower"),
    ("pipeline.pool_warm_s", "s", "lower"),
    ("pipeline.dispatch_s", "s", "lower"),
    ("pipeline.cache_hit_rate", "ratio", "higher"),
    ("pipeline.store_get_s", "s", "lower"),
    ("pipeline.store_put_s", "s", "lower"),
    ("pipeline.memo_hit_rate", "ratio", "higher"),
    ("service.submit_s", "s", "lower"),
    ("service.result_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.client_retries", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.appends_per_job", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Service jobs (one stratified block) the pipeline probe maps and the
#: service session submits.
PROBE_JOBS = 9


class Recorder:
    """In-memory span recorder (single thread; others use :meth:`add`)."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, group: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"id": sid, "parent": parent, "group": group,
                           "name": name, "start": time.perf_counter(),
                           "end": None})
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def add(self, name: str, group: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": parent, "group": group,
                           "name": name, "start": start, "end": end})
        return sid

    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            own = span["end"] - span["start"] - child
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _chain(network, config, rec: Optional[Recorder], group: str):
    """The staged public calls ``map_network`` makes, in its order.

    Returns ``(unate_network, mapping, stats, map_seconds)``; with
    ``rec`` each call is a span under one ``flow.chain`` root.
    """
    from repro.mapping import CostModel, MappingEngine
    from repro.mapping.engine import apply_rearrangement, materialize_plan
    from repro.pipeline import MappingStats
    from repro.synth import decompose, sweep, unate_with_sweep

    def span(name):
        return rec.span(name, group) if rec else contextlib.nullcontext()

    started = time.perf_counter()
    with span("flow.chain"):
        if network.is_mappable():
            unate = network
        else:
            with span("synth.decompose"):
                decomposed = decompose(network)
            with span("synth.sweep"):
                swept = sweep(decomposed)
            with span("synth.unate"):
                unate, _ = unate_with_sweep(swept)
        stats = MappingStats()
        with span("mapping.dp"):
            engine = MappingEngine(unate, CostModel(), config, stats=stats)
            engine.run_dp()
        with span("mapping.plan"):
            plan = engine.plan()
        with span("mapping.rearrange"):
            apply_rearrangement(plan)
        with span("mapping.materialize"):
            mapping = materialize_plan(plan)
        with span("domino.cost"):
            mapping.cost
    return unate, mapping, stats, time.perf_counter() - started


def _trace_tasks(tasks: List[Task], networks, rec: Recorder, pins,
                 out: Outcome, local: Dict) -> Dict[str, float]:
    """Time every task three ways; returns the task-level sums.

    Fills ``local`` with each task's (digest, cost, gate problems), the
    local reference the service gate compares served results with.
    """
    from repro.mapping import CostModel, MappingEngine, map_network
    from repro.obs import flow_report
    from repro.pipeline import MappingStats
    from repro.sim import check_circuit_against_network

    sums = {"task_s": 0.0, "chain_s": 0.0, "unate_nodes": 0,
            "tuples_created": 0, "tuples_pruned": 0, "combine_calls": 0,
            "bound_skips": 0, "combine_s": 0.0, "routed_soa": 0,
            "routed_reference": 0}
    for task in warmup_tasks(tasks, networks):
        config = task_config(task)
        map_network(networks[task.circuit], flow=task.flow, config=config)
        unate, _, _, _ = _chain(networks[task.circuit], config, None, "")
        MappingEngine(unate, CostModel(),
                      replace(config, kernel="reference")).run_dp()
    # what is alive before the loop (the networks) is frozen, so each
    # collection walks only what the executions allocate
    gc.collect()
    gc.freeze()
    for index, task in enumerate(tasks):
        network = networks[task.circuit]
        config = task_config(task)
        group = f"{index}:{task.label}"
        out.attempted += 1

        # every execution starts from a collected heap, so no execution
        # pays for the garbage of the one before
        gc.collect()
        started = time.perf_counter()
        result = map_network(network, flow=task.flow, config=config)
        sums["task_s"] += time.perf_counter() - started
        with rec.span("obs.report", group):
            flow_report(result)
        mapped_digest = result.circuit.digest()
        del result
        gc.collect()
        unate, mapping, stats, chain_s = _chain(network, config, rec, group)
        sums["chain_s"] += chain_s
        with rec.span("domino.digest", group):
            digest = mapping.circuit.digest()
        with rec.span("sim.verify", group):
            check_circuit_against_network(mapping.circuit, network)
        problems = check_mapping(task, network, mapping.circuit,
                                 mapping.cost, config, pins, digest=digest)
        if mapped_digest != digest:
            problems.append(f"{task.label}: staged chain digest differs "
                            "from map_network")
        local[task] = (digest, mapping.cost.as_dict(), problems)
        if problems:
            out.failed += 1
            out.problems.extend(problems)
        del mapping
        gc.collect()
        with rec.span("mapping.oracle_dp", group):
            MappingEngine(unate, CostModel(),
                          replace(config, kernel="reference"),
                          stats=MappingStats()).run_dp()
        sums["unate_nodes"] += len(unate)
        del unate
        sums["tuples_created"] += stats.tuples_created
        sums["tuples_pruned"] += stats.tuples_pruned
        sums["combine_calls"] += stats.combine_calls
        sums["bound_skips"] += stats.bound_skips
        sums["combine_s"] += stats.combine_time_s
        sums["routed_soa"] += stats.auto_routed_soa
        sums["routed_reference"] += stats.auto_routed_reference
    gc.unfreeze()
    return sums


def _span_cost_s(samples: int = 20_000) -> float:
    """What recording one span costs, timed on empty spans."""
    probe = Recorder()
    started = time.perf_counter()
    for _ in range(samples):
        with probe.span("calibrate", ""):
            pass
    return (time.perf_counter() - started) / samples


def _probe_io(circuits, networks, rec: Recorder) -> int:
    """``read_blif`` of each circuit as ``write_blif`` renders it."""
    from repro.io import read_blif, write_blif

    nodes = 0
    for name in circuits:
        text = io.StringIO()
        write_blif(networks[name], text)
        with rec.span("io.parse", name):
            parsed = read_blif(io.StringIO(text.getvalue()), name=name)
        nodes += len(parsed)
    return nodes


def _probe_pipeline(jobs, rec: Recorder, run_dir: str, pins,
                    out: Outcome) -> Dict[str, float]:
    """Cache, store, memo and pool calls over the service job mix; every
    result's digest is gated against its pin."""
    from repro.pipeline import BatchTask, CacheStore, TreeCache, WorkerPool
    from repro.pipeline.runner import (
        clear_network_memo,
        execute_task,
        network_memo_stats,
    )

    def gate(result) -> None:
        out.attempted += 1
        task = Task(result.task.circuit, result.task.flow)
        if not result.ok or result.digest != expected_digest(pins, task):
            out.failed += 1
            out.problems.append(f"{task.label}: pipeline result "
                                f"{result.error or 'digest differs from pin'}")

    flat = [BatchTask(t.circuit, t.flow) for spec in jobs
            for t in job_tasks(spec)]
    distinct = list(dict.fromkeys(flat))
    store = CacheStore(os.path.join(run_dir, "probe-cones.sqlite"))
    get, put = store.get, store.put

    def timed_get(key):
        with rec.span("pipeline.store_get", "store"):
            return get(key)

    def timed_put(key, payload):
        with rec.span("pipeline.store_put", "store"):
            return put(key, payload)

    store.get, store.put = timed_get, timed_put
    clear_network_memo()
    # one warm worker's view of the mix, then a fresh in-memory tier
    # (a restarted or second worker) reading the shared store
    cache = TreeCache(store=store)
    for task in flat:
        gate(execute_task(task, cache=cache))
    tree_stats = cache.stats()
    memo = network_memo_stats()
    second = TreeCache(store=store)
    for task in distinct:
        gate(execute_task(task, cache=second))
    store.close()

    def run_one(pool, task, name: str) -> float:
        """One single-task ``run_tasks`` call; returns its wall time
        minus the task's own time in the worker."""
        started = time.perf_counter()
        results, _ = pool.run_tasks([task])
        ended = time.perf_counter()
        sid = rec.add(name, task.label, started, ended)
        rec.add("worker.task", task.label, ended - results[0].elapsed_s,
                ended, parent=sid)
        gate(results[0])
        return ended - started - results[0].elapsed_s

    pool = WorkerPool(max_workers=2, use_cache=True)
    try:
        # the first call builds the pool (forkserver and workers)
        pool_warm = run_one(pool, distinct[0], "pipeline.pool_warm")
        dispatch = [run_one(pool, task, "pipeline.run_tasks")
                    for task in distinct[1:13]]
    finally:
        pool.close()
    lookups = memo["hits"] + memo["misses"]
    return {
        "pool_warm_s": pool_warm,
        "dispatch_s": median(dispatch),
        "cache_hit_rate": tree_stats["hit_rate"],
        "cache_lookups": tree_stats["hits"] + tree_stats["misses"],
        "store_get_s": median(rec.durations("pipeline.store_get")),
        "store_put_s": median(rec.durations("pipeline.store_put")),
        "memo_hit_rate": memo["hits"] / lookups if lookups else 0.0,
        "memo_lookups": lookups,
    }


def _serve_session(jobs, run_dir: str, out: Outcome):
    """One daemon runs ``jobs`` twice: cold and untimed, then warm with
    traced client calls.  Returns the two loop results, ungated."""
    daemon = Daemon(os.path.join(run_dir, "daemon"))
    try:
        daemon.start()
        warm = closed_loop(daemon.port, jobs, seconds=600.0)
        loop = closed_loop(daemon.port, jobs, seconds=600.0,
                           with_status=True)
        daemons = daemon.running_daemons()
    finally:
        daemon.stop()
    if daemons != 1:
        out.problems.append(f"{daemons} daemons were running, expected 1")
        out.failed += 1
    out.notes.append(f"service probe: daemons running: {daemons}")
    return warm, loop


def _record_jobs(loop, passed, rec: Recorder) -> None:
    """Spans of each correct timed job: submit, wait, result."""
    for index in sorted(passed):
        group = f"job:{index}"
        t0, t1, t2, t3 = loop.records[index].marks
        root = rec.add("service.job", group, t0, t3)
        rec.add("service.submit", group, t0, t1, parent=root)
        rec.add("service.wait", group, t1, t2, parent=root)
        rec.add("service.result", group, t2, t3, parent=root)


def _probe_journal(records, rec: Recorder, run_dir: str
                   ) -> Tuple[float, float]:
    """Replay the session's correct jobs through a fresh JobJournal:
    each job's submit, state changes, events and result, in the daemon's
    order.  Returns (median journal seconds per job, mean appends per
    job)."""
    from repro.service.jobs import DONE, RUNNING, Job, JobSpec
    from repro.service.journal import JobJournal

    journal = JobJournal(os.path.join(run_dir, "probe-journal.sqlite"))
    per_job, appends = [], []
    try:
        for index, record in enumerate(records):
            group = f"journal:{index}"
            job = Job(spec=JobSpec.from_payload(record.spec))
            count = 0
            started = time.perf_counter()
            with rec.span("journal.job", group):
                def append(call, *args):
                    nonlocal count
                    count += 1
                    with rec.span("journal.append", group):
                        call(*args)

                append(journal.record_submit, job)
                for event in record.events:
                    state = event.get("state")
                    if state == RUNNING:
                        job.state, job.attempts = RUNNING, 1
                        append(journal.record_state, job)
                    elif state == DONE:
                        append(journal.record_result, job,
                               record.body["result"])
                    append(journal.record_event, job.id, event)
                    if state == DONE:
                        job.state = DONE
                        append(journal.record_state, job)
            per_job.append(time.perf_counter() - started)
            appends.append(count)
    finally:
        journal.close()
    return median(per_job), sum(appends) / max(1, len(appends))


def run_traced(workload: str, seed: int, scale: str, pins_path: str,
               run_dir: str) -> Outcome:
    """One pass of the workload's tasks, then the layer probes."""
    from repro.bench_suite import load_circuit

    out = Outcome()
    rec = Recorder()
    pins = load_pins(pins_path)
    jobs = job_mix(seed, PROBE_JOBS, scale)
    m: Dict[str, float] = {}
    phases: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(name: str):
        started = time.perf_counter()
        yield
        phases[name] = time.perf_counter() - started

    with phase("import"):
        m["import.repro_s"] = import_repro_s()
    tasks = pass_order(workload_tasks(workload, scale), seed, 0)

    circuits = list(dict.fromkeys(t.circuit for t in tasks))
    networks = {}
    with phase("generate and parse"):
        for name in circuits:
            with rec.span("bench_suite.generate", name):
                networks[name] = load_circuit(name)
        parsed_nodes = _probe_io(circuits, networks, rec)
    local: Dict[Task, tuple] = {}
    with phase("tasks"):
        sums = _trace_tasks(tasks, networks, rec, pins, out, local)
    with phase("pipeline probe"):
        pipe = _probe_pipeline(jobs, rec, run_dir, pins, out)
    with phase("service session"):
        warm, loop = _serve_session(jobs, run_dir, out)
    with phase("service gate"):
        passed = gate_session(warm, loop, pins_path, out, local)
    _record_jobs(loop, passed, rec)
    ok = [loop.records[i] for i in sorted(passed)]
    with phase("journal probe"):
        journal_s, appends = _probe_journal(ok, rec, run_dir)
    span_cost = _span_cost_s()

    own = rec.self_times()
    for name in ("bench_suite.generate", "io.parse", "synth.decompose",
                 "synth.sweep", "synth.unate", "mapping.dp", "mapping.plan",
                 "mapping.oracle_dp", "mapping.rearrange",
                 "mapping.materialize", "domino.cost", "domino.digest",
                 "sim.verify", "obs.report"):
        m[f"{name}_s"] = own.get(name, 0.0)
    m["io.parse_nodes_per_s"] = parsed_nodes / m["io.parse_s"]
    m["synth.unate_nodes"] = sums["unate_nodes"]
    m["mapping.combine_s"] = sums["combine_s"]
    for name in ("tuples_created", "combine_calls", "bound_skips"):
        m[f"mapping.{name}"] = sums[name]
    created = sums["tuples_created"]
    m["mapping.keep_ratio"] = ((created - sums["tuples_pruned"]) / created
                               if created else 0.0)
    m["mapping.tuples_per_s"] = (created / sums["combine_s"]
                                 if sums["combine_s"] else 0.0)
    routed = sums["routed_soa"] + sums["routed_reference"]
    m["mapping.routed_soa_frac"] = (sums["routed_soa"] / routed
                                    if routed else 0.0)
    m["mapping.default_vs_oracle"] = (m["mapping.dp_s"]
                                      / m["mapping.oracle_dp_s"])
    m["flow.overhead_s"] = sums["task_s"] - sums["chain_s"]
    for key in ("pool_warm_s", "dispatch_s", "cache_hit_rate",
                "store_get_s", "store_put_s", "memo_hit_rate"):
        m[f"pipeline.{key}"] = pipe[key]
    m["service.submit_s"] = median(rec.durations("service.submit"))
    m["service.result_s"] = median(rec.durations("service.result"))
    m["service.queue_wait_s"] = median([r.stamps[1] - r.stamps[0]
                                        for r in ok])
    m["service.run_s"] = median([r.stamps[2] - r.stamps[1] for r in ok])
    m["service.rejected"] = sum(r.rejected for r in loop.records)
    m["service.client_retries"] = loop.retries
    m["journal.append_s"] = journal_s
    m["journal.appends_per_job"] = appends
    chain_spans = sum(1 for s in rec.spans if s["name"] in _CHAIN_SPANS)
    m["trace.overhead_frac"] = chain_spans * span_cost / sums["chain_s"]
    for name, _, _ in PER_LAYER:
        out.put(name, m[name], UNITS[name])

    trace_path = os.path.join(WORK_DIR, "traces",
                              f"{workload}-seed{seed}.jsonl")
    rec.write(trace_path)
    out.notes.extend(_layer_report(workload, own, m, sums, pipe, phases,
                                   span_cost, chain_spans, len(tasks),
                                   len(ok), trace_path))
    return out


#: The spans one staged chain records (the tracing-overhead count).
_CHAIN_SPANS = frozenset({
    "flow.chain", "synth.decompose", "synth.sweep", "synth.unate",
    "mapping.dp", "mapping.plan", "mapping.rearrange",
    "mapping.materialize", "domino.cost"})


_LAYER_ORDER = ("bench_suite", "io", "synth", "mapping", "domino", "flow",
                "sim", "obs", "pipeline", "worker", "service", "journal")


def _layer_report(workload, own, m, sums, pipe, phases, span_cost,
                  chain_spans, n_tasks, n_jobs, trace_path) -> List[str]:
    layers: Dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    lines = [f"layer report ({workload}): self time per layer, "
             f"{n_tasks} tasks and {n_jobs} service jobs; spans in "
             f"{os.path.relpath(trace_path)}"]
    lines.append(f"  {'import':12s} {m['import.repro_s']:9.4f} s "
                 "(fresh interpreter, median of 3)")
    for layer in _LAYER_ORDER:
        if layer in layers:
            lines.append(f"  {layer:12s} {layers[layer]:9.4f} s")
    staged = sum(own.get(name, 0.0) for name in _CHAIN_SPANS
                 if name != "flow.chain")
    task_s = sums["task_s"]
    covered = staged + m["flow.overhead_s"]
    lines.append(
        f"  task time check: synth + mapping + domino.cost ({staged:.4f} s)"
        f" + flow.overhead ({m['flow.overhead_s']:.4f} s) = {covered:.4f} s"
        f" vs map_network {task_s:.4f} s "
        f"({100.0 * (covered - task_s) / task_s:+.2f}%: chain glue and "
        "span recording)")
    lines.append(
        f"  tracing overhead: {1e6 * span_cost:.2f} us per span x "
        f"{chain_spans} chain spans over the staged chains' "
        f"{sums['chain_s']:.4f} s = "
        f"{100.0 * m['trace.overhead_frac']:.3f}%")
    lines.append(
        f"  mapping.default_vs_oracle = {m['mapping.default_vs_oracle']:.3f}"
        f" (base: reference-kernel run_dp {m['mapping.oracle_dp_s']:.4f} s;"
        f" default run_dp {m['mapping.dp_s']:.4f} s)")
    lines.append(
        f"  mapping.keep_ratio = {m['mapping.keep_ratio']:.4f} (base: "
        f"{sums['tuples_created']} tuples created)")
    routed = sums["routed_soa"] + sums["routed_reference"]
    lines.append(
        f"  mapping.routed_soa_frac = {m['mapping.routed_soa_frac']:.4f} "
        f"(base: {routed} auto-routed combine calls)")
    lines.append(
        f"  pipeline.cache_hit_rate = {pipe['cache_hit_rate']:.4f} (base: "
        f"{pipe['cache_lookups']} tree-cache lookups); memo_hit_rate = "
        f"{pipe['memo_hit_rate']:.4f} (base: {pipe['memo_lookups']} loads)")
    lines.append("  phases: " + ", ".join(
        f"{name} {seconds:.1f} s" for name, seconds in phases.items()))
    return lines
