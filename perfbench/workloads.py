"""The benchmark's workloads: inputs drawn from a seed, one run each.

Every workload is open loop.  Its submissions are drawn here, from the
benchmark seed alone, as ``(due time, node, payload)`` triples; the
program receives only those submissions.  The cluster configuration,
including the program's own internal seed and the crash schedule of
``sim-crash``, is part of the workload definition and fixed, so two
seeds differ only in what is submitted and when.

* ``sim-wide`` and ``sim-crash`` run on the deterministic simulator;
  :func:`run_sim` runs one plan of one of them.
* ``live-udp`` runs real nodes over localhost UDP with file storage;
  :func:`run_live` runs one cluster lifetime.

Both return a :class:`RunResult` that has been checked with
``verify_run``; a run that fails verification raises instead.
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.alternative import AlternativeConfig
from repro.errors import SimulationError
from repro.harness.cluster import Cluster, ClusterConfig
from repro.harness.live import LiveCluster
from repro.harness.verify import verify_run
from repro.sim.faults import RandomFaults
from repro.transport.network import NetworkConfig
from repro.workloads.generators import ScheduledWorkload

__all__ = ["CAL_REF_S", "LIVE", "SIM", "RunResult", "LiveSpec", "SimSpec",
           "calibrate", "live_plan", "live_setup_s", "peak_rss_mb",
           "run_live", "run_sim", "sim_plan", "sim_setup_s"]

Plan = List[Tuple[float, int, Any]]

# Simulated workloads submit for DURATION virtual seconds from START.
START, DURATION = 0.5, 30.0
# The program's own seed and the crash schedule's, fixed per workload.
CLUSTER_SEED, FAULT_SEED = 1, 29
# Live lifetimes: gap between the end of set-up and the first due time,
# and how long a lifetime may take to deliver its backlog afterwards.
LEAD, SETTLE_LIMIT = 0.2, 20.0
# A simulated run is timed in slices of this many virtual seconds, each
# followed by a calibration (see ``calibrate``).
SLICE = 2.0
# Time spent on CPU work is reported in reference seconds: the seconds
# measured, times CAL_REF_S over the time of ``calibrate`` measured next
# to them.  CAL_REF_S is about the fastest ``calibrate`` runs on the
# 2-vCPU VM the benchmark was tuned on, so a reference second is close
# to a second of that VM when nothing else contends for it.
CAL_REF_S = 0.004


class SimSpec:
    """A simulated workload: fixed cluster, Poisson submissions.

    A run draws ``plans`` submission plans from its seed and pools its
    deterministic metrics over exactly these, so they do not depend on
    how many repeats fit in the run's time.
    """

    def __init__(self, name: str, protocol: str, n: int, loss_rate: float,
                 rate_per_node: float, plans: int, crashes: bool,
                 alt: Optional[AlternativeConfig] = None):
        self.name = name
        self.protocol = protocol
        self.n = n
        self.loss_rate = loss_rate
        self.rate_per_node = rate_per_node
        self.plans = plans
        self.crashes = crashes
        self.alt = alt

    @property
    def end(self) -> float:
        """Virtual time the run phase ends (settling follows)."""
        return START + DURATION + 0.5


class LiveSpec:
    """The live workload: Poisson submissions in wall time."""

    def __init__(self, name: str, n: int, rate: float, lifetime: float,
                 min_lifetimes: int):
        self.name = name
        self.n = n
        self.rate = rate
        self.lifetime = lifetime
        self.min_lifetimes = min_lifetimes


SIM: Dict[str, SimSpec] = {
    # Fan-out: every gossip and consensus message goes to 24 peers.
    "sim-wide": SimSpec("sim-wide", "basic", n=25, loss_rate=0.0,
                        rate_per_node=2.0, plans=3, crashes=False),
    # Storage-bound: checkpoints log the whole application state, and
    # recoveries and state transfers read it back.  Checkpoint size grows
    # with history, so the 30 virtual seconds are fixed once.
    "sim-crash": SimSpec("sim-crash", "alternative", n=5, loss_rate=0.05,
                         rate_per_node=24.0, plans=12, crashes=True,
                         alt=AlternativeConfig(checkpoint_interval=2.0)),
}

LIVE = LiveSpec("live-udp", n=3, rate=300.0, lifetime=5.0,
                min_lifetimes=3)


def _poisson(rng: random.Random, rate: float, start: float,
             duration: float) -> List[float]:
    times: List[float] = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return times
        times.append(t)


def sim_plan(spec: SimSpec, seed: int, index: int) -> Plan:
    """Plan ``index`` of a run seeded ``seed``: Poisson per node."""
    rng = random.Random(f"{spec.name}:{seed}:{index}")
    plan: Plan = []
    for node in range(spec.n):
        for count, due in enumerate(_poisson(rng, spec.rate_per_node,
                                             START, DURATION)):
            plan.append((due, node, ("op", node, count)))
    plan.sort()
    return plan


def live_plan(spec: LiveSpec, seed: int, index: int) -> Plan:
    """Lifetime ``index``: Poisson over the whole cluster, offsets from
    the first due time, each submission at a uniformly drawn node."""
    rng = random.Random(f"{spec.name}:{seed}:{index}")
    return [(due, rng.randrange(spec.n), ("op", index, count))
            for count, due in enumerate(_poisson(rng, spec.rate, 0.0,
                                                 spec.lifetime))]


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _user_cpu_s() -> float:
    """User-mode CPU seconds of this process.  Kernel time is left out:
    on the live workload it is mostly fsync and varies with the host's
    disk far more than with the program."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def calibrate() -> float:
    """CPU seconds of this thread for a fixed slice of interpreter work
    that belongs to the benchmark, not the program: a heap of timed
    events, dict and set updates and small tuples, like the simulator's
    loop.  Thread CPU time is read from a precise clock, where the
    user share of ``getrusage`` is apportioned from ticks and can be
    far off over a few milliseconds; the slice makes no system calls.

    On a shared VM the interpreter's speed drifts by tens of percent
    within seconds (cores and caches are shared with other machines),
    and a fixed slice of interpreter work slows in proportion: in a
    minute's trace on the 2-vCPU VM the benchmark was tuned on,
    three-second medians of a ``sim-wide`` set-up ranged over 3.1 to
    4.9 ms while their ratio to such a slice stayed within 0.75 to
    0.82.  The garbage collector is off while the slice runs, so the
    size of the program's heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.thread_time()
        heap: List[Tuple[float, int, Tuple[str, int]]] = []
        counts: Dict[Tuple[str, int], int] = {}
        seen = set()
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 1009 / 1009.0, i,
                                  ("m", i % 25)))
        while heap:
            due, i, key = heapq.heappop(heap)
            counts[key] = counts.get(key, 0) + 1
            if i % 3 == 0 and due < 0.5:
                heapq.heappush(heap, (due + 0.5, i + 1, key))
            seen.add((key, i % 97))
        return time.thread_time() - begin
    finally:
        if enabled:
            gc.enable()


class RunResult:
    """What one verified run (sim plan or live lifetime) measured.

    ``deterministic`` holds the counts a simulation reproduces exactly
    for the same plan; ``latencies`` are first-delivery latencies in
    seconds of the runtime's clock (virtual in the simulator).
    """

    def __init__(self) -> None:
        # Run and settle time, as measured and in reference seconds;
        # the live runtime runs in real time, so there both are real
        # seconds.  ``speed`` converts this run's CPU seconds into
        # reference seconds (1 when no calibration was taken).
        self.run_s = 0.0
        self.busy_s = 0.0
        self.speed = 1.0
        self.user_cpu_s = 0.0
        self.verify_s = 0.0
        self.attempted = 0
        self.failed = 0
        # Submissions that died with their sender before dissemination:
        # the paper permits losing them (A-broadcast had not returned).
        self.abandoned = 0
        self.skipped_down = 0
        self.deliveries = 0
        self.latencies: List[float] = []
        self.recovery_latencies: List[float] = []
        self.recoveries = 0
        self.lateness: List[float] = []
        self.deterministic: Dict[str, Any] = {}
        self.counters: Dict[str, float] = {}
        self.error: Optional[str] = None
        # Span indices [first, end) of the measured phases, traced runs.
        self.window = (0, 0)


def _recovery_latencies(cluster: Cluster) -> Tuple[int, List[float]]:
    """Per ``recover()``: time to that node's first A-delivery of a
    message first ordered at or after the recovery instant."""
    first = cluster.collector.first_delivery
    by_node: Dict[int, List[Tuple[float, Any]]] = {}
    for node_id, _stream, mid, when in cluster.collector.deliveries:
        by_node.setdefault(node_id, []).append((when, mid))
    count = 0
    latencies: List[float] = []
    for node_id, node in cluster.nodes.items():
        for recovered_at in node.recovery_times:
            count += 1
            for when, mid in by_node.get(node_id, ()):
                if when >= recovered_at and first[mid] >= recovered_at:
                    latencies.append(when - recovered_at)
                    break
    return count, latencies


def _storage_counters(nodes: Dict[int, Any]) -> Dict[str, float]:
    log_ops = bytes_logged = group_commits = 0
    for node in nodes.values():
        metrics = node.storage.metrics
        log_ops += metrics.log_ops
        bytes_logged += metrics.bytes_logged
        group_commits += getattr(node.storage, "group_commits", 0)
    return {"log_ops": log_ops, "bytes_logged": bytes_logged,
            "group_commits": group_commits}


def _build_sim(spec: SimSpec, plan: Plan) -> Tuple[Cluster,
                                                   ScheduledWorkload]:
    """Set-up: build the cluster, start the nodes, install the plan."""
    cluster = Cluster(ClusterConfig(
        n=spec.n, seed=CLUSTER_SEED, protocol=spec.protocol,
        network=NetworkConfig(loss_rate=spec.loss_rate), alt=spec.alt))
    cluster.start()
    if spec.crashes:
        RandomFaults(mttf=6.0, mttr=1.0, stabilize_at=spec.end,
                     seed=FAULT_SEED).install(cluster.sim,
                                                   cluster.nodes)
    workload = ScheduledWorkload(plan)
    workload.install(cluster)
    return cluster, workload


def sim_setup_s(spec: SimSpec, plan: Plan) -> float:
    """User CPU seconds of one set-up of ``plan``; the cluster is
    discarded unrun."""
    gc.collect()
    begin = _user_cpu_s()
    _build_sim(spec, plan)
    return _user_cpu_s() - begin


def run_sim(spec: SimSpec, plan: Plan,
            tracer: Optional[Any] = None) -> RunResult:
    """Build, run, settle and verify one simulated plan.

    The run is timed in slices of ``SLICE`` virtual seconds, then the
    settle phase; a calibration follows each, and its time is left out
    of the run's.  With a ``tracer`` the result's ``window`` holds the
    span indices the run and settle phases cover, excluding set-up and
    verification.
    """
    result = RunResult()
    gc.collect()
    cluster, workload = _build_sim(spec, plan)
    cpu = _user_cpu_s()
    opened = len(tracer) if tracer is not None else 0
    until, settled, finished, calibrations = 0.0, False, False, 0.0
    while not finished:
        begin = time.perf_counter()
        if until < spec.end:
            until = min(spec.end, until + SLICE)
            cluster.run(until=until)
        else:
            settled = cluster.settle(limit=spec.end * 4)
            finished = True
        elapsed = time.perf_counter() - begin
        spent = calibrate()
        calibrations += spent
        result.run_s += elapsed
        result.busy_s += elapsed * CAL_REF_S / spent
    result.window = (opened, len(tracer) if tracer is not None else 0)
    result.user_cpu_s = _user_cpu_s() - cpu - calibrations
    result.speed = result.busy_s / result.run_s
    done = time.perf_counter()
    report = verify_run(cluster)
    result.verify_s = time.perf_counter() - done
    if not settled:
        raise SimulationError(f"{spec.name}: run did not settle")

    collector = cluster.collector
    metrics = cluster.metrics()
    result.attempted = workload.submitted
    result.skipped_down = len(plan) - workload.submitted
    result.abandoned = len(report.undeliverable)
    result.deliveries = len(collector.first_delivery)
    # Termination (checked by verify_run) requires every submission
    # that was not abandoned with its sender to be delivered.
    result.failed = result.attempted - result.deliveries - result.abandoned
    result.latencies = list(collector.delivery_latencies)
    result.recoveries, result.recovery_latencies = \
        _recovery_latencies(cluster)
    result.counters = dict(_storage_counters(cluster.nodes),
                           sends=metrics.network["sent"],
                           bytes_sent=metrics.network["bytes_sent"],
                           events=cluster.sim.events_processed,
                           decisions=len(collector.decisions))
    result.deterministic = dict(
        result.counters, deliveries=result.deliveries,
        abandoned=result.abandoned, latencies=tuple(result.latencies),
        recovery_latencies=tuple(result.recovery_latencies))
    return result


def _start_live(spec: LiveSpec, plan: Plan, seed: int, index: int,
                directory: str, lateness: List[float]) -> Tuple[
                    LiveCluster, List[Tuple[float, Any]]]:
    """Set-up: build and start a fresh cluster, schedule every
    submission at its due time.  Returns the cluster and the list the
    ``(due time, message id)`` of each submission is appended to."""
    cluster = LiveCluster(ClusterConfig(n=spec.n, seed=seed * 1000 + index,
                                        protocol="basic"), directory)
    try:
        cluster.start()
    except BaseException:
        cluster.close()
        raise
    runtime = cluster.runtime
    base = runtime.now + LEAD
    submitted: List[Tuple[float, Any]] = []

    def submit(due: float, node: int, payload: Any) -> None:
        lateness.append(runtime.now - due)
        submitted.append((due, cluster.submit(node, payload).id))

    for offset, node, payload in plan:
        due = base + offset
        runtime.schedule(due - runtime.now, submit, due, node, payload)
    return cluster, submitted


def live_setup_s(spec: LiveSpec, seed: int, index: int,
                 directory: str) -> float:
    """User CPU seconds of one set-up of lifetime ``index``; the
    cluster is closed unrun.  Kernel time is left out: the set-up's
    file creation and fsyncs cost 3 to 8 ms of it, varying with the
    disk, beside about 8 ms of user time."""
    plan = live_plan(spec, seed, index)
    gc.collect()
    begin = _user_cpu_s()
    cluster, _ = _start_live(spec, plan, seed, index, directory, [])
    elapsed = _user_cpu_s() - begin
    cluster.close()
    return elapsed


def run_live(spec: LiveSpec, seed: int, index: int, directory: str,
             tracer: Optional[Any] = None) -> RunResult:
    """One fresh live cluster lifetime: set up, submit on schedule,
    settle, verify.  A lifetime whose event loop captured a callback
    error is returned as failed: every submission it did not deliver
    counts as a failure, it is not retried, and its partial output is
    verified for safety only (no termination check)."""
    result = RunResult()
    plan = live_plan(spec, seed, index)
    gc.collect()
    cluster, submitted = _start_live(spec, plan, seed, index, directory,
                                     result.lateness)
    runtime = cluster.runtime
    try:
        ready = time.perf_counter()
        cpu = _user_cpu_s()
        opened = len(tracer) if tracer is not None else 0
        settled = False
        try:
            cluster.run_for(LEAD + spec.lifetime)
            settled = cluster.settle(limit=SETTLE_LIMIT)
        except SimulationError as exc:
            result.error = str(exc)
        result.window = (opened, len(tracer) if tracer is not None else 0)
        result.user_cpu_s = _user_cpu_s() - cpu
        result.run_s = result.busy_s = time.perf_counter() - ready
        if result.error is None and runtime.errors:
            result.error = f"{len(runtime.errors)} callback error(s)"
        if result.error is None and not settled:
            result.error = "lifetime did not settle"

        first = cluster.collector.first_delivery
        result.attempted = len(plan)
        result.deliveries = len(first)
        result.failed = len(plan) - sum(1 for _due, mid in submitted
                                        if mid in first)
        result.latencies = [first[mid] - due for due, mid in submitted
                            if mid in first]
        network = cluster.network
        stubborn = cluster.stubborn.metrics if cluster.stubborn else None
        result.counters = dict(
            _storage_counters(cluster.nodes),
            sends=network.metrics.sent,
            bytes_sent=network.metrics.bytes_sent,
            events=runtime.events_processed,
            decisions=len(cluster.collector.decisions),
            datagrams=network.datagrams_sent,
            wire_bytes=network.wire_bytes_sent,
            retransmissions=stubborn.retransmissions if stubborn else 0,
            piggybacked_acks=stubborn.piggybacked_acks if stubborn else 0)
        # A lifetime that failed cannot be expected to terminate, but
        # what it did deliver must still be safe.
        done = time.perf_counter()
        verify_run(cluster, check_termination=result.error is None)
        result.verify_s = time.perf_counter() - done
    finally:
        try:
            cluster.close()
        except SimulationError as exc:
            if result.error is None:
                result.error = str(exc)
    return result
