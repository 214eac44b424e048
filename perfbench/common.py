"""Shared pieces of the benchmark: workload inputs, statistics, the
output gate, set-up timing and memory readings.

Nothing here starts a process or touches the file system at import
time, so the module is safe to re-import inside multiprocessing
workers (forkserver/spawn re-run the main module's imports).
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the current directory).
ROOT = os.path.abspath(os.getcwd())
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(ROOT, "tests", "data", "seed_digests.json")
#: The benchmark's files (gitignored): each run's own directory, removed
#: when the run ends, and the traced runs' span files.
WORK_DIR = os.path.join(ROOT, ".perfbench")

FLOWS = ("domino", "rs", "soi")

#: The 28 suite circuits of Tables I-II, in registry order.
SUITE = ("cm150", "mux", "z4ml", "cordic", "count", "9symml", "f51m",
         "c432", "c499", "c1355", "c1908", "c880", "des", "frg1", "b9",
         "c8", "apex7", "x1", "t481", "i6", "apex6", "k2", "dalu", "rot",
         "c2670", "c3540", "c5315", "c7552")

#: pareto-heavy: every suite circuit but the four whose exhaustive
#: Pareto maps alone take about 17 s (des, c3540, c5315, c7552), so
#: whole passes (about 15 s each) fit the run length.
PARETO_CIRCUITS = tuple(c for c in SUITE
                        if c not in ("des", "c3540", "c5315", "c7552"))

#: The traced run's service probe: suite circuits whose maps take under
#: about 0.3 s in every flow at paper limits.
SERVICE_CIRCUITS = ("cm150", "mux", "z4ml", "cordic", "count", "9symml",
                    "f51m", "c432", "frg1", "b9", "c8", "apex7", "x1",
                    "t481", "i6", "apex6", "dalu", "c2670")

#: Reduced inputs for the benchmark's own tests (``--scale small``).
SMALL_CIRCUITS = ("cm150", "mux", "z4ml")

WORKLOADS = ("paper-suite", "pareto-heavy")

#: Seconds one pass of a batch workload took, wall clock, at the commit
#: that defined the benchmark (2-vCPU Xeon VM).  A run makes
#: ``round(--seconds / pass time)`` passes, at least one, so the work per
#: run is fixed and does not depend on how fast the machine ran.
PASS_SECONDS = {("paper-suite", "full"): 20.0, ("pareto-heavy", "full"): 15.0,
                ("paper-suite", "small"): 0.15,
                ("pareto-heavy", "small"): 0.05}


@dataclass(frozen=True)
class Task:
    """One (circuit, flow) map at paper W/H."""

    circuit: str
    flow: str
    ordering: Optional[str] = None   #: None keeps the preset's ordering
    pareto: bool = False

    @property
    def label(self) -> str:
        return f"{self.circuit}/{self.flow}"


def workload_tasks(workload: str, scale: str) -> List[Task]:
    """The (circuit, flow) maps one pass of a batch workload makes."""
    small = scale == "small"
    if workload == "paper-suite":
        circuits = SMALL_CIRCUITS if small else SUITE
        return [Task(c, f) for c in circuits for f in FLOWS]
    if workload == "pareto-heavy":
        circuits = SMALL_CIRCUITS if small else PARETO_CIRCUITS
        return [Task(c, "soi", ordering="exhaustive", pareto=True)
                for c in circuits]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_tasks(tasks: Sequence[Task], networks) -> List[Task]:
    """One task per distinct flow configuration, on the smallest circuit:
    mapped once before timing so lazy imports and first-call set-up
    land outside the timed region."""
    chosen: Dict[Tuple, Task] = {}
    for task in tasks:
        key = (task.flow, task.ordering, task.pareto)
        best = chosen.get(key)
        if best is None or (len(networks[task.circuit])
                            < len(networks[best.circuit])):
            chosen[key] = task
    return list(chosen.values())


def pass_count(workload: str, scale: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload, scale]))


def pass_order(tasks: Sequence[Task], seed: int, index: int) -> List[Task]:
    """The seeded order of pass ``index``: the seed sets the order only."""
    order = list(tasks)
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def job_mix(seed: int, count: int, scale: str) -> List[Dict[str, object]]:
    """Seeded service job specs: 1-3 circuits x 1-3 flows each.

    The draw is stratified in blocks of nine jobs, so every block maps
    the same work mix.  A block holds each of the nine (circuits, flows)
    counts once, in seeded order; its 18 circuit slots are filled by a
    seeded permutation of the 18 service circuits.  Which circuit lands
    in which job, and with which flows, is drawn freely.
    """
    rng = random.Random(f"jobs:{seed}")
    circuits = SMALL_CIRCUITS if scale == "small" else SERVICE_CIRCUITS
    sizes = [(nc, nf) for nc in (1, 2, 3) for nf in (1, 2, 3)]
    jobs: List[Dict[str, object]] = []
    deck: List[str] = []
    while len(jobs) < count:
        rng.shuffle(sizes)
        for n_circuits, n_flows in sizes:
            if len(deck) < n_circuits:
                deck = rng.sample(circuits, len(circuits))
            jobs.append({"circuits": [deck.pop() for _ in range(n_circuits)],
                         "flows": rng.sample(FLOWS, n_flows)})
    return jobs[:count]


def job_tasks(spec: Dict[str, object]) -> List[Task]:
    """The maps a job spec compiles to (circuits x flows, CLI order)."""
    return [Task(c, f) for c in spec["circuits"] for f in spec["flows"]]


# ---------------------------------------------------------------------------
# statistics and machine speed
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


#: Seconds :func:`calibrate` takes at the reference machine speed (about
#: its median on the 2-vCPU VM that defined the benchmark).
CAL_REF_S = 0.020


#: How strongly map times follow the calibration: the least-squares
#: slope of log map throughput on log machine speed within sets of runs
#: made back to back, pooled over the sets (0.57 over four sets of
#: ``pareto-heavy`` runs, 0.52 over three of ``paper-suite``).  Single
#: sets ranged from 0.45 to 1.28, so neither full scaling nor none fits.
CAL_ELASTICITY = 0.5


def scale_factor(calibration: float) -> float:
    """What times measured next to ``calibration`` are multiplied by to
    read at the reference machine speed."""
    return (CAL_REF_S / calibration) ** CAL_ELASTICITY


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (dict probes, tuple
    compares, a sort): the machine's current speed, measured while the
    program under test is idle.

    Shared hosts drift: the same map ran 30% slower from one minute to
    the next while the VM was otherwise idle, and this loop slowed with
    it, so times rescaled by it drift far less than wall times.
    """
    started = time.perf_counter()
    table: Dict[int, Tuple[int, str]] = {}
    for i in range(40_000):
        key = (i * 7919) % 10_007
        entry = table.get(key)
        if entry is None or entry[0] < i:
            table[key] = (i, str(i))
    ordered = sorted(table.values())
    sum(len(text) for _, text in ordered)
    return time.perf_counter() - started


def calibration_point() -> float:
    """The median of five calibrations (drops preempted ones)."""
    return median([calibrate() for _ in range(5)])


def hd_quantile(values: Sequence[float], p: float, steps: int = 64
                ) -> float:
    """The Harrell-Davis estimate of quantile ``p``: a mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each
    one's share of [0, 1] (midpoint rule, ``steps`` points a share).

    The task times of a workload cluster by circuit size with gaps
    between the clusters; a nearest-rank quantile that falls in a gap
    jumps across it whenever noise moves one task to the other side,
    while this estimate moves by that task's weight only.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else float("nan")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = min(max((a - 1) / (a + b - 2), 1e-9), 1 - 1e-9)
    peak = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) / (n * steps)
            mass += math.exp((a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x) - peak)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """``(value, percentile, samples)``: the highest whole percentile
    with at least ten samples beyond it (nearest rank), p50 when there
    are too few samples for any, estimated by :func:`hd_quantile`."""
    n = len(values)
    if n == 0:
        return float("nan"), 0, 0
    best = 50
    for p in range(99, 49, -1):
        if math.ceil(p * n / 100) <= n - 10:
            best = p
            break
    return hd_quantile(values, best / 100), best, n


# ---------------------------------------------------------------------------
# the output gate
# ---------------------------------------------------------------------------
def load_pins(path: str = PINS_PATH) -> Dict[str, str]:
    import json

    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def task_config(task: Task):
    """The effective MapperConfig of a task (preset applied)."""
    from repro.mapping import MapperConfig, flow_config

    base = MapperConfig()
    if task.ordering is not None:
        base = MapperConfig(ordering=task.ordering, pareto=task.pareto)
    return flow_config(task.flow, base)


def expected_digest(pins: Dict[str, str], task: Task) -> Optional[str]:
    config = task_config(task)
    mode = "pareto" if config.pareto else "single"
    return pins.get(f"{task.circuit}/{task.flow}/{config.ordering}/{mode}")


def check_mapping(task: Task, network, circuit, cost, config,
                  pins: Dict[str, str],
                  digest: Optional[str] = None) -> List[str]:
    """Every problem with one mapped circuit (empty list: correct).

    Four independent checks: the digest against its pin, simulation
    against the source network, the W/H limits of every gate, and a
    recount of the discharge transistors against ``cost.t_disch``.
    """
    from repro.domino import count_discharge_transistors
    from repro.domino.structure import check_limits
    from repro.errors import StructureError
    from repro.sim import check_circuit_against_network

    problems = []
    digest = digest if digest is not None else circuit.digest()
    pinned = expected_digest(pins, task)
    if pinned is None:
        problems.append(f"{task.label}: no pinned digest")
    elif digest != pinned:
        problems.append(f"{task.label}: digest {digest[:12]} != pin "
                        f"{pinned[:12]}")
    mismatch = check_circuit_against_network(circuit, network)
    if mismatch is not None:
        problems.append(f"{task.label}: simulation mismatch: {mismatch}")
    recount = 0
    policy = config.ground_policy
    for gate in circuit.gates:
        try:
            check_limits(gate.structure, config.w_max, config.h_max)
        except StructureError as exc:
            problems.append(f"{task.label}: gate {gate.name}: {exc}")
        grounded = (policy == "optimistic"
                    or (policy == "footless" and not gate.footed))
        recount += count_discharge_transistors(gate.structure, grounded)
    if recount != cost.t_disch:
        problems.append(f"{task.label}: discharge recount {recount} != "
                        f"t_disch {cost.t_disch}")
    return problems


# ---------------------------------------------------------------------------
# set-up, memory, environment
# ---------------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


_SETUP_SNIPPET = ("import sys, repro\n"
                  "from repro.bench_suite import load_circuit\n"
                  "for name in sys.argv[1:]:\n"
                  "    load_circuit(name)\n")


def batch_setup_s(circuits: Sequence[str], trials: int = 7
                  ) -> Tuple[float, float]:
    """A fresh interpreter imports repro and generates the workload's
    circuits, between two calibration points: the median of ``trials``
    times, (rescaled, wall) seconds."""
    scaled, wall = [], []
    for _ in range(trials):
        before = calibration_point()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, *circuits],
                       env=child_env(), check=True, cwd=ROOT)
        elapsed = time.perf_counter() - started
        wall.append(elapsed)
        scaled.append(elapsed
                      * scale_factor((before + calibration_point()) / 2))
    return median(scaled), median(wall)


def import_repro_s(trials: int = 3) -> float:
    """Median wall time of ``import repro`` in a fresh interpreter,
    minus the bare interpreter start measured the same way."""
    def run(code: str) -> float:
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(),
                       check=True, cwd=ROOT)
        return time.perf_counter() - started

    bare = median([run("pass") for _ in range(trials)])
    full = median([run("import repro") for _ in range(trials)])
    return full - bare


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def processes_with_args(*needles: str) -> List[int]:
    """PIDs whose argv contains every one of ``needles`` as an element."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        words = {a.decode("utf-8", "replace") for a in argv}
        if all(n in words for n in needles):
            found.append(int(entry))
    return found


#: ``prctl`` option: orphaned descendants are re-parented to this process.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant (Linux), so :func:`stop_children`
    also reaches the helpers of processes that exit before them (the
    daemon's forkserver and resource tracker).  False where unsupported."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> List[int]:
    """PIDs whose parent is this process."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the field after "(comm)" is the state, then the parent's pid
        if int(stat[stat.rindex(b")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def _stop_mp_helpers() -> None:
    """Close this process's multiprocessing forkserver and resource
    tracker the way their owner does, and wait for them."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass


def stop_children(grace_s: float = 5.0, kill_after_s: float = 10.0) -> None:
    """End every process this one started or adopted, and wait for each.

    Children get ``grace_s`` to exit on their own, then SIGTERM, then
    SIGKILL after ``kill_after_s``; returns once no child is left.
    """
    import signal

    if "multiprocessing" in sys.modules:
        _stop_mp_helpers()
    started = time.monotonic()
    signalled = set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            return
        waited = time.monotonic() - started
        if waited >= grace_s:
            sig = signal.SIGKILL if waited >= kill_after_s \
                else signal.SIGTERM
            for pid in child_pids():
                if (pid, sig) not in signalled:
                    signalled.add((pid, sig))
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
        time.sleep(0.02)


@dataclass
class Outcome:
    """What one run reports: metrics plus the failure accounting."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: human-readable lines printed before the JSON result
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
