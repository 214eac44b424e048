"""Measure where the soa kernel overtakes the scalar reference kernel.

Maps a set of suite circuits once with the reference kernel, recording
every combine call (operator, operand views), then replays each
circuit's calls through a fresh reference kernel and a fresh soa kernel
and times every call.  Calls are bucketed by operator (series AND /
parallel OR) and by candidate grid size ``len(view_a) * len(view_b)``
in powers of two; each bucket reports the summed time of both kernels
and their ratio.  The replay is repeated, alternating the kernels, and
the per-call minimum kept.

The ``auto`` kernel's routing (``MapperConfig.auto_threshold``) is
derived from these tables: after them the script prints, for each
candidate cutoff of the rule "series grids at or above the cutoff go to
soa, everything else to reference", every setting's routed combine
time over its all-reference time, and the cutoff with the least total.
The last table prices each setting all-reference, all-soa, under the
series cutoff alone, and as ``auto`` routes it (Pareto runs stay on
reference).

    PYTHONPATH=src python benchmarks/kernel_crossover.py
    PYTHONPATH=src python benchmarks/kernel_crossover.py \\
        --ordering exhaustive --circuits 9symml f51m

``--modes pareto`` replays Pareto tables too; the soa kernel hands PBE
Pareto calls to the scalar loop, so that replay times one loop twice.

Needs numpy (the soa kernel).
"""

from __future__ import annotations

import argparse
import gc
import time
from collections import defaultdict

from repro.bench_suite import load_circuit
from repro.mapping import MapperConfig, map_network
from repro.mapping.engine import MappingEngine
from repro.mapping.kernel import (AUTO_THRESHOLD, ReferenceKernel,
                                  auto_series_cutoff)
from repro.mapping.soa import make_soa_kernel
from repro.mapping.tuples import TupleTable

DEFAULT_CIRCUITS = ("cm150", "z4ml", "count", "9symml", "f51m", "c432",
                    "b9", "t481", "apex7", "x1")


def record_calls(circuit: str, config: MapperConfig):
    """The mapping engine of one map of ``circuit`` and its combine calls."""
    calls = []
    engines = []
    original = MappingEngine._combine_into

    def recording(engine, table, is_or, view_a, view_b):
        if not engines:
            engines.append(engine)
        calls.append((is_or, view_a, view_b))
        original(engine, table, is_or, view_a, view_b)

    MappingEngine._combine_into = recording
    try:
        map_network(load_circuit(circuit), config=config)
    finally:
        MappingEngine._combine_into = original
    return engines[0], calls


def replay(engine, make_kernel, calls, pareto):
    """Per-call seconds of one fresh kernel replaying ``calls``."""
    kernel = make_kernel()
    kernel.build(engine)
    key_fn = engine.model.tuple_key
    out = []
    gc.collect()
    gc.disable()
    try:
        for is_or, view_a, view_b in calls:
            table = TupleTable(key_fn, pareto=pareto)
            started = time.perf_counter()
            kernel.combine(table, is_or, view_a, view_b)
            out.append(time.perf_counter() - started)
    finally:
        gc.enable()
    kernel.finalize()
    return out


def bucket_of(pairs: int) -> int:
    """Power-of-two floor of ``pairs`` (the bucket's lower edge)."""
    return 1 << (pairs.bit_length() - 1) if pairs else 0


def measure(circuits, w_max, h_max, pareto, ordering, repeat):
    """``{(op, bucket): [calls, reference_s, soa_s]}`` for one setting."""
    config = MapperConfig(w_max=w_max, h_max=h_max, pareto=pareto,
                          ordering=ordering, kernel="reference")
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for circuit in circuits:
        engine, calls = record_calls(circuit, config)
        # Alternate the kernels so drift in machine speed hits both.
        runs = {"reference": [], "soa": []}
        for _ in range(repeat):
            for name, make in (("reference", ReferenceKernel),
                               ("soa", make_soa_kernel)):
                runs[name].append(replay(engine, make, calls, pareto))
        best = {name: [min(ts) for ts in zip(*per_run)]
                for name, per_run in runs.items()}
        for i, (is_or, view_a, view_b) in enumerate(calls):
            row = table[("or" if is_or else "and",
                         bucket_of(len(view_a) * len(view_b)))]
            row[0] += 1
            row[1] += best["reference"][i]
            row[2] += best["soa"][i]
    return table


def series_cutoff(table):
    """Smallest series bucket from which soa wins every larger one."""
    cutoff = None
    for bucket in sorted((b for op, b in table if op == "and"),
                         reverse=True):
        _, ref_s, soa_s = table[("and", bucket)]
        if soa_s >= ref_s:
            break
        cutoff = bucket
    return cutoff


def routed_seconds(table, threshold):
    """Combine time under "series grids >= threshold go to soa"."""
    return sum(soa_s if op == "and" and bucket >= threshold else ref_s
               for (op, bucket), (_, ref_s, soa_s) in table.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--limits", nargs="+", default=["5x8", "8x10",
                                                         "12x14"],
                        help="W x H limit pairs (default: 5x8 8x10 12x14)")
    parser.add_argument("--modes", nargs="+", default=["single"],
                        choices=["single", "pareto"])
    parser.add_argument("--ordering", default="paper")
    parser.add_argument("--circuits", nargs="+",
                        default=list(DEFAULT_CIRCUITS))
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print("| limits | mode | op | pairs | calls | reference s | soa s "
          "| soa / reference |")
    print("|---|---|---|---|---|---|---|---|")
    tables = {}
    configs = {}
    for mode in args.modes:
        for spec in args.limits:
            w_max, h_max = (int(x) for x in spec.lower().split("x"))
            table = measure(args.circuits, w_max, h_max, mode == "pareto",
                            args.ordering, args.repeat)
            for op, bucket in sorted(table):
                calls, ref_s, soa_s = table[(op, bucket)]
                span = f"{bucket}-{2 * bucket - 1}" if bucket else "0"
                print(f"| W{w_max}/H{h_max} | {mode} | {op} | {span} "
                      f"| {calls} | {ref_s:.4f} | {soa_s:.4f} "
                      f"| {soa_s / ref_s if ref_s else float('nan'):.2f} |")
            name = f"W{w_max}/H{h_max} {mode}"
            tables[name] = table
            configs[name] = MapperConfig(w_max=w_max, h_max=h_max,
                                         pareto=mode == "pareto")
    print()
    for name, table in tables.items():
        cutoff = series_cutoff(table)
        print(f"{name}: soa wins every series bucket from "
              f"{cutoff if cutoff is not None else 'none'}")
    # Candidate cutoffs: each setting's combine time routed under the
    # rule, over its all-reference time; the suggested default is the
    # cutoff with the least summed routed time.
    names = list(tables)
    print()
    print("| series cutoff | " + " | ".join(names) + " | total s |")
    print("|---|" + "---|" * (len(names) + 1))
    best = None
    for shift in range(6, 16):
        threshold = 1 << shift
        routed = [routed_seconds(tables[n], threshold) for n in names]
        ratios = [r / routed_seconds(tables[n], float("inf"))
                  for r, n in zip(routed, names)]
        total = sum(routed)
        print(f"| {threshold} | "
              + " | ".join(f"{x:.3f}" for x in ratios)
              + f" | {total:.3f} |")
        if best is None or total < best[1]:
            best = (threshold, total)
    print(f"least total combine time at series cutoff {best[0]}")
    # The routing auto applies, priced per setting next to either
    # kernel alone and the series cutoff alone.
    print()
    print(f"| setting | reference s | soa s | series cutoff "
          f"{AUTO_THRESHOLD} s | auto s |")
    print("|---|---|---|---|---|")
    for name, table in tables.items():
        config = configs[name]
        cutoff = auto_series_cutoff(config, config.auto_threshold)
        print(f"| {name} "
              f"| {routed_seconds(table, float('inf')):.3f} "
              f"| {sum(soa_s for _, _, soa_s in table.values()):.3f} "
              f"| {routed_seconds(table, AUTO_THRESHOLD):.3f} "
              f"| {routed_seconds(table, cutoff):.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
