"""The batch workloads, untraced: ``paper-suite`` and ``pareto-heavy``.

Each (circuit, flow) pair is one ``map_network`` call in this process.
A run maps a fixed number of whole passes over the workload's tasks
(sized to ``--seconds``, see :data:`~perfbench.common.PASS_SECONDS`),
each pass in a seeded order, so every run maps the same multiset of
tasks and the throughput does not depend on which circuits a time cut
happened to catch.  Each timed call starts from a collected heap, so its
time does not depend on the garbage earlier calls and the gate left;
the output gate runs after each call, outside the timed region.

Times are rescaled to the reference machine speed: a calibration runs
before every call, and all times of the run are scaled by
:func:`~perfbench.common.scale_factor` of the median calibration (one
factor per run: sub-second swings are not shared by the calibration and
the maps, slow drift is).  The wall-clock figures are printed
alongside.
"""

from __future__ import annotations

import gc
import time

from .common import (
    CAL_REF_S,
    Outcome,
    batch_setup_s,
    calibrate,
    check_mapping,
    hd_quantile,
    load_pins,
    median,
    pass_count,
    pass_order,
    scale_factor,
    self_peak_rss_mb,
    tail,
    task_config,
    warmup_tasks,
    workload_tasks,
)


def run_batch(workload: str, seed: int, seconds: float, scale: str,
              pins_path: str) -> Outcome:
    tasks = workload_tasks(workload, scale)
    circuits = sorted({t.circuit for t in tasks})
    out = Outcome()
    setup_s, setup_wall_s = batch_setup_s(circuits)

    from repro.bench_suite import load_circuit
    from repro.mapping import map_network

    pins = load_pins(pins_path)
    networks = {name: load_circuit(name) for name in circuits}
    configs = {t: task_config(t) for t in tasks}
    for task in warmup_tasks(tasks, networks):
        map_network(networks[task.circuit], flow=task.flow,
                    config=configs[task])

    cal_s, call_s, flow_s = [], [], []
    for index in range(pass_count(workload, scale, seconds)):
        for task in pass_order(tasks, seed, index):
            network = networks[task.circuit]
            out.attempted += 1
            calibration = calibrate()
            gc.collect()
            started = time.perf_counter()
            try:
                result = map_network(network, flow=task.flow,
                                     config=configs[task])
            except Exception as exc:  # noqa: BLE001 - counted, reported
                out.failed += 1
                out.problems.append(f"{task.label}: {type(exc).__name__}: "
                                    f"{exc}")
                continue
            cal_s.append(calibration)
            call_s.append(time.perf_counter() - started)
            flow_s.append(result.elapsed_s)
            problems = check_mapping(task, network, result.circuit,
                                     result.cost, result.config, pins)
            # drop the result before the next collection and call
            del result
            if problems:
                out.failed += 1
                out.problems.extend(problems)

    factor = scale_factor(median(cal_s))
    flows = [t * factor for t in flow_s]
    done, busy = len(call_s), sum(call_s) * factor
    out.put("setup_s", setup_s, "s")
    out.put("tasks_per_s", done / busy, "1/s")
    out.put("task_latency_p50_s", hd_quantile(flows, 0.5), "s")
    task_tail, task_p, n = tail(flows)
    out.put("task_latency_tail_s", task_tail, "s")
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB")
    out.notes.append(
        f"{workload}: {done} maps ({done // len(tasks)} pass(es) x "
        f"{len(tasks)} tasks); task tail = p{task_p} of {n} samples")
    out.notes.append(
        f"wall clock: {sum(call_s):.3f} s busy ({done / sum(call_s):.4g} "
        f"tasks/s), set-up {setup_wall_s:.4g} s; machine speed "
        f"{CAL_REF_S / median(cal_s):.3f} of reference, times scaled by "
        f"{factor:.3f}")
    return out
