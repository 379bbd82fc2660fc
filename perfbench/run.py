"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload sim-crash --seed 1 --seconds 25
    python3 perfbench/run.py --workload live-udp --trace 1

``--workload all`` (the default) runs each workload in a fresh
subprocess, so peak memory and caches belong to that workload alone.
A single workload runs in this process.  It prints a table of every
metric with its unit and sample count, then, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` list,
measured by a traced run of the same inputs (see ``tracing.py``).
Every run ends in ``verify_run``; a run that fails it raises, and the
benchmark exits non-zero without printing a result.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-wide", "sim-crash", "live-udp")
DEFAULT_SEED = 1
# Extra set-ups timed (and discarded unrun), spread over the run: at
# least this many per run, in equal shares before each of the plans or
# lifetimes every run has.  Each is followed by a calibration.
SETUP_SAMPLES = 96


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall seconds to keep measuring (every "
                             "simulated plan runs at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names and units to report."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- simulated workloads ---------------------------------------------------


def _check_same(name: str, index: int, expected: Dict[str, Any],
                actual: Dict[str, Any], what: str) -> None:
    if expected != actual:
        keys = sorted(key for key in expected
                      if expected[key] != actual.get(key))
        raise SystemExit(f"{name}: plan {index} is not deterministic "
                         f"({what}); differing metrics: {keys}")


def _setup_samples(count: int,
                   setup: Callable[[], float]) -> Tuple[List[float], float]:
    """Run ``setup`` (which returns its user CPU seconds) ``count``
    times, each followed by a calibration.  Returns each set-up's time
    in reference seconds and the median calibration."""
    from workloads import CAL_REF_S, calibrate
    samples, calibrations = [], []
    for _ in range(count):
        spent = setup()
        calibrations.append(calibrate())
        samples.append(spent * CAL_REF_S / calibrations[-1])
    return samples, statistics.median(calibrations)


def _measure_sim(name: str, seed: int,
                 seconds: float) -> Tuple[List[Any], List[float]]:
    """Cycle through the run's plans until every plan ran, the first
    one twice, and ``seconds`` have passed; returns the runs and the
    extra set-up times in reference seconds.

    Every repeat of a plan must reproduce its first run exactly.
    """
    from workloads import SIM, run_sim, sim_plan, sim_setup_s
    spec = SIM[name]
    plans = [sim_plan(spec, seed, index) for index in range(spec.plans)]
    results, setups = [], []
    share = -(-SETUP_SAMPLES // spec.plans)
    start = time.perf_counter()
    while len(results) <= spec.plans or \
            time.perf_counter() - start < seconds:
        index = len(results) % spec.plans
        setups += _setup_samples(
            share, lambda: sim_setup_s(spec, plans[index]))[0]
        result = run_sim(spec, plans[index])
        if len(results) >= spec.plans:
            _check_same(name, index, results[index].deterministic,
                        result.deterministic, "repeated run")
        results.append(result)
    return results, setups


def _trace_sim(name: str,
               seed: int) -> Tuple[List[Any], List[Any], List[Any]]:
    """Each plan untraced, then traced; the two must agree exactly."""
    from tracing import Tracer, install, uninstall
    from workloads import SIM, run_sim, sim_plan
    spec = SIM[name]
    untraced, traced, summaries = [], [], []
    for index in range(spec.plans):
        plan = sim_plan(spec, seed, index)
        untraced.append(run_sim(spec, plan))
        tracer = Tracer()
        saved = install(tracer)
        try:
            result = run_sim(spec, plan, tracer=tracer)
        finally:
            uninstall(saved)
        _check_same(name, index, untraced[-1].deterministic,
                    result.deterministic, "traced run")
        summary = tracer.summary(*result.window)
        if summary["transport.send"][0] != result.counters["sends"]:
            raise SystemExit(f"{name}: the trace saw "
                             f"{summary['transport.send'][0]} sends, the "
                             f"network counted {result.counters['sends']}")
        traced.append(result)
        summaries.append(summary)
    return untraced, traced, summaries


# -- live workload ---------------------------------------------------------


def _measure_live(seed: int, seconds: float,
                  traced_too: bool = False) -> Tuple[List[Any], List[Any],
                                                     List[Any], List[float]]:
    """Fresh cluster lifetimes until ``seconds`` have passed; returns
    the untraced and traced lifetimes, the span totals of the traced
    ones and extra set-up times in reference seconds.  An untraced
    lifetime's CPU time is converted with the calibrations taken with
    the set-ups just before it.

    Untraced mode runs at least ``min_lifetimes``; traced mode
    alternates an untraced and a traced lifetime, two pairs at least.
    """
    from tracing import Tracer, install, uninstall
    from workloads import CAL_REF_S, LIVE, live_setup_s, run_live
    untraced, traced, summaries, setups = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="perfbench-work-",
                                     dir=ROOT) as work:
        # Each cluster gets a directory of its own, deleted as soon as
        # the cluster is done: dirty pages of deleted files are never
        # written back, so they cannot slow the next cluster's fsyncs.
        def fresh() -> Any:
            return tempfile.TemporaryDirectory(dir=work)

        extra = itertools.count(1)

        def setup() -> float:
            with fresh() as directory:
                return live_setup_s(LIVE, seed, -next(extra), directory)

        share = -(-SETUP_SAMPLES // LIVE.min_lifetimes)
        start = time.perf_counter()
        index = 0
        while True:
            enough = len(traced) >= 2 and len(traced) == len(untraced) \
                if traced_too else len(untraced) >= LIVE.min_lifetimes
            if enough and time.perf_counter() - start >= seconds:
                break
            if traced_too and len(untraced) > len(traced):
                tracer = Tracer()
                saved = install(tracer)
                try:
                    with fresh() as directory:
                        result = run_live(LIVE, seed, index, directory,
                                          tracer=tracer)
                finally:
                    uninstall(saved)
                traced.append(result)
                summaries.append(tracer.summary(*result.window))
            else:
                speed = 1.0
                if not traced_too:
                    samples, calibration = _setup_samples(share, setup)
                    setups += samples
                    speed = CAL_REF_S / calibration
                with fresh() as directory:
                    untraced.append(run_live(LIVE, seed, index, directory))
                untraced[-1].speed = speed
            index += 1
    return untraced, traced, summaries, setups


# -- reporting -------------------------------------------------------------


def _end_to_end(results: List[Any], first_pass: List[Any],
                setups: List[float]) -> Dict[str, Tuple[float, int]]:
    """Every end-to-end metric as ``name -> (value, samples)``.

    Latency percentiles are taken per run (plan or lifetime) and
    averaged over ``first_pass``: a pooled tail would swing with how
    many of a run's plans hit a slow leader fail-over.
    """
    from repro.metrics.stats import percentile
    from workloads import peak_rss_mb
    # A live lifetime that died before delivering anything has no
    # per-delivery figures; its submissions are already in ``failed``.
    results = [result for result in results if result.latencies]
    first_pass = [result for result in first_pass if result.latencies]
    if not first_pass:
        raise SystemExit("no run delivered anything")
    samples = sum(len(result.latencies) for result in first_pass)
    deliveries = sum(result.deliveries for result in first_pass)

    def latency_ms(q: float) -> Tuple[float, int]:
        return statistics.mean(percentile(result.latencies, q)
                               for result in first_pass) * 1000, samples

    def per_delivery(counter: str) -> Tuple[float, int]:
        return sum(result.counters[counter]
                   for result in first_pass) / deliveries, len(first_pass)

    def median(values: List[float]) -> Tuple[float, int]:
        return statistics.median(values), len(values)

    return {
        "setup_s": median(setups),
        "deliveries_per_s": median([r.deliveries / r.busy_s
                                    for r in results]),
        "user_cpu_us_per_delivery": median([r.user_cpu_s * r.speed
                                            / r.deliveries * 1e6
                                            for r in results]),
        "latency_p50_ms": latency_ms(50),
        "latency_p99_ms": latency_ms(99),
        "msgs_per_delivery": per_delivery("sends"),
        "bytes_per_delivery": per_delivery("bytes_sent"),
        "log_ops_per_delivery": per_delivery("log_ops"),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def _extras(results: List[Any],
            virtual: bool) -> List[Tuple[str, float, str, str]]:
    """Workload-specific figures printed in the table only."""
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    rows = [("failed_share", failed / attempted, "ratio", f"n={attempted}")]
    if virtual:
        skipped = sum(result.skipped_down for result in results)
        rows.append(("skipped_at_down_node", skipped, "count",
                     f"n={len(results)}"))
        abandoned = sum(result.abandoned for result in results)
        rows.append(("abandoned_share", abandoned / attempted, "ratio",
                     f"n={attempted}"))
        recovery = [value for result in results
                    for value in result.recovery_latencies]
        if recovery:
            recoveries = sum(result.recoveries for result in results)
            rows.append(("recovery_p50_vs", statistics.median(recovery), "s",
                         f"n={len(recovery)} of {recoveries} recoveries"))
    return rows


def _print_table(title: str, rows: List[Tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:38s} {value:14.6g} {unit:7s} {note}")


def _result_line(attempted: int, failed: int, metrics: Dict[str, float],
                 listed: List[Dict[str, str]]) -> str:
    """The result object.  ``correct`` is always true here: a run whose
    output fails ``verify_run``, or a simulation that does not reproduce
    itself, aborts before a result is printed.  Runs that raised are
    counted in ``failed`` instead."""
    missing = [entry["name"] for entry in listed
               if entry["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in listed}})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    listed = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    virtual = name != "live-udp"
    started = time.perf_counter()
    if trace:
        from layers import PREDICTIONS, layer_metrics
        if virtual:
            untraced, traced, summaries = _trace_sim(name, seed)
        else:
            untraced, traced, summaries, _ = _measure_live(
                seed, seconds, traced_too=True)
        results = untraced + traced
        metrics = layer_metrics(traced, summaries, untraced)
        moves: Dict[str, List[str]] = {}
        for layer, e2e, workload in PREDICTIONS:
            moves.setdefault(layer, []).append(f"{e2e} on {workload}")
        rows = [(key, metrics[key], units[key],
                 "-> " + "; ".join(moves[key]) if key in moves else "")
                for key in units]
        title = (f"# {name} seed={seed} traced: {len(traced)} traced and "
                 f"{len(untraced)} untraced runs, "
                 f"{time.perf_counter() - started:.1f} s")
        _print_table(title, rows)
    else:
        if virtual:
            from workloads import SIM
            results, setups = _measure_sim(name, seed, seconds)
            first_pass = results[:SIM[name].plans]
        else:
            results, _, _, setups = _measure_live(seed, seconds)
            first_pass = results
        measured = _end_to_end(results, first_pass, setups)
        metrics = {key: value for key, (value, _n) in measured.items()}
        rows = [(key, value, units[key], f"n={samples}")
                for key, (value, samples) in measured.items()]
        rows += _extras(results, virtual)
        title = (f"# {name} seed={seed}: {len(results)} runs, "
                 f"{time.perf_counter() - started:.1f} s")
        _print_table(title, rows)
    errors = [result.error for result in results if result.error]
    for error in errors:
        print(f"  run failed: {error}")
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    print(_result_line(attempted, failed, metrics, listed))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; a summary line at the end."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    summary: Dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                   text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"# {name}: exit code {completed.returncode}")
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
