"""The service load generator: a ``soidomino serve`` daemon under a
closed loop of blocking clients, for the traced run's service probe.

The daemon runs as a subprocess with the journal on, a CacheStore and
pool width 2.  This process drives it with two client threads; each
submits a job over loopback HTTP, waits for its terminal event on the
NDJSON event stream, fetches the result, then submits the next job.
The load generator starts processes only from functions the entry point
calls, so re-importing it in a forkserver or spawn worker starts
nothing.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .common import (
    ROOT,
    Outcome,
    check_mapping,
    child_env,
    job_tasks,
    load_pins,
    processes_with_args,
    task_config,
)

CLIENTS = 2
POOL_WIDTH = 2


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``soidomino serve`` subprocess with its own store and journal."""

    def __init__(self, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.store = os.path.join(workdir, "cones.sqlite")
        self.journal = os.path.join(workdir, "journal.sqlite")
        self.port = _free_port()
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the daemon and wait for its first healthy ``/healthz``."""
        from repro.service import ServiceClient

        started = time.perf_counter()
        with open(os.path.join(self.workdir, "daemon.log"), "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(self.port), "--store", self.store,
                 "--journal", self.journal, "-j", str(POOL_WIDTH),
                 "--drain-grace", "5"],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                cwd=ROOT)
        client = ServiceClient(port=self.port, timeout=5.0, retries=0)
        while time.perf_counter() - started < timeout_s:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.process.returncode}")
            try:
                if client.health().get("status") == "ok":
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError(f"daemon not healthy within {timeout_s:.0f} s")

    def running_daemons(self) -> int:
        """Live ``serve`` processes bound to this daemon's journal."""
        return len(processes_with_args("serve", self.journal))

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


@dataclass
class JobRecord:
    spec: Dict[str, object]
    ok: bool = False
    error: Optional[str] = None
    rejected: bool = False
    #: perf_counter readings: submit sent, job accepted, terminal
    #: event received, result fetched
    marks: Tuple[float, ...] = ()
    #: (created, started, finished) daemon timestamps (traced runs)
    stamps: Optional[Tuple[float, float, float]] = None
    events: List[Dict[str, object]] = field(default_factory=list)
    body: Optional[Dict[str, object]] = None


def _run_job(client, spec, with_status: bool) -> JobRecord:
    from repro.service.client import ServiceError

    record = JobRecord(spec=spec)
    started = time.perf_counter()
    try:
        status = client.submit(spec)
        submitted = time.perf_counter()
        record.events = list(client.events(status["id"]))
        finished = time.perf_counter()
        record.body = client.result(status["id"])
        record.marks = (started, submitted, finished, time.perf_counter())
        if with_status:
            final = client.status(status["id"])
            record.stamps = (final["created_s"], final["started_s"],
                             final["finished_s"])
    except ServiceError as exc:
        record.error = str(exc)
        record.rejected = exc.status in (429, 503)
        return record
    except OSError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    if record.body.get("state") != "done":
        record.error = f"job ended {record.body.get('state')}: " \
                       f"{record.body.get('error')}"
    else:
        record.ok = True
    return record


@dataclass
class LoopResult:
    records: List[JobRecord]
    wall_s: float
    retries: int


def closed_loop(port: int, jobs: List[Dict[str, object]], seconds: float,
                with_status: bool = False) -> LoopResult:
    """Drive the daemon with :data:`CLIENTS` blocking clients, submitting
    ``jobs`` in order until ``seconds`` pass or the list runs out."""
    from repro.service import ServiceClient

    lock = threading.Lock()
    pending = iter(jobs)
    records: List[JobRecord] = []
    retried = [0] * CLIENTS
    started = time.perf_counter()
    deadline = started + seconds

    def client_loop(index: int) -> None:
        client = ServiceClient(port=port, timeout=120.0, seed=index)
        while time.perf_counter() < deadline:
            with lock:
                spec = next(pending, None)
            if spec is None:
                break
            record = _run_job(client, spec, with_status)
            with lock:
                records.append(record)
        retried[index] = client.retried

    # daemon threads: a terminated run must not wait out the deadline
    threads = [threading.Thread(target=client_loop, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return LoopResult(records=records,
                      wall_s=time.perf_counter() - started,
                      retries=sum(retried))


def verify_records(records: List[JobRecord], pins_path: str,
                   local: Dict) -> Dict[int, List[str]]:
    """Gate every finished job: each result's digest must match its pin
    and a local map of the same (circuit, flow), whose circuit passes
    the independent checks, with an equal cost.  Returns problems by
    record index.  ``local`` maps a task to its local (digest, cost,
    problems); tasks missing from it are mapped here and added."""
    from repro.bench_suite import load_circuit
    from repro.mapping import map_network

    pins = load_pins(pins_path)
    problems: Dict[int, List[str]] = {}
    for index, record in enumerate(records):
        if not record.ok:
            continue
        entries = {(e["circuit"], e["flow"]): e
                   for e in record.body["result"]["results"]}
        for task in job_tasks(record.spec):
            entry = entries.get((task.circuit, task.flow))
            if entry is None or not entry.get("ok"):
                problems.setdefault(index, []).append(
                    f"{task.label}: missing or failed in the job result")
                continue
            if task not in local:
                network = load_circuit(task.circuit)
                result = map_network(network, flow=task.flow,
                                     config=task_config(task))
                digest = result.circuit.digest()
                local[task] = (digest, result.cost.as_dict(),
                               check_mapping(task, network, result.circuit,
                                             result.cost, result.config,
                                             pins, digest=digest))
            digest, cost, found = local[task]
            found = list(found)
            if entry["digest"] != digest:
                found.append(f"{task.label}: served digest "
                             f"{str(entry['digest'])[:12]} != local "
                             f"{digest[:12]}")
            if entry["cost"] != cost:
                found.append(f"{task.label}: served cost differs from "
                             "the local map")
            if found:
                problems.setdefault(index, []).extend(found)
    return problems


def gate_session(warm: LoopResult, loop: LoopResult, pins_path: str,
                 out: Outcome, local: Dict) -> Set[int]:
    """Gate the warm-up and timed jobs into ``out``; returns the indices
    of timed jobs that finished with correct outputs."""
    records = warm.records + loop.records
    problems = verify_records(records, pins_path, local)
    out.attempted += len(records)
    passed = set()
    for index, record in enumerate(records):
        if record.error is not None or index in problems:
            out.failed += 1
            out.problems.extend([record.error] if record.error
                                else problems[index])
        elif index >= len(warm.records):
            passed.add(index - len(warm.records))
    return passed
