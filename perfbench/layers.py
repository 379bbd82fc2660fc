"""Per-layer metrics of a traced run, and what each should move.

:func:`layer_metrics` turns the span totals of the traced runs (see
:mod:`tracing`) and the counters the program keeps into the per-layer
metrics ``BENCHMARK.json`` lists.  Counts are per unique delivery or per
run; times are seconds per run (one simulated plan or one live
lifetime).  A layer a workload bypasses reports 0 there: that is the
prediction for the workload that does not exercise it.

:data:`PREDICTIONS` records, before any optimisation is measured, which
end-to-end metric each layer metric should move and on which workload.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.metrics.stats import percentile
from workloads import RunResult

__all__ = ["PREDICTIONS", "layer_metrics"]

_DPS, _CPU, _MSGS = ("deliveries_per_s", "user_cpu_us_per_delivery",
                      "msgs_per_delivery")
_P50, _P99 = "latency_p50_ms", "latency_p99_ms"
_WIDE, _CRASH, _LIVE = "sim-wide", "sim-crash", "live-udp"

# (layer metric, end-to-end metric it should move, workload); a layer
# metric may predict several.
PREDICTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.events_per_delivery", _DPS, _WIDE),
    ("runtime.self_s", _DPS, _WIDE),
    ("runtime.loop_late_p99_ms", _P99, _LIVE),
    ("transport.sends_per_delivery", _MSGS, _WIDE),
    ("transport.sends_per_delivery", _DPS, _WIDE),
    ("transport.self_s", _DPS, _WIDE),
    ("transport.datagrams_per_delivery", _CPU, _LIVE),
    ("transport.retransmissions", _CPU, _LIVE),
    ("transport.piggybacked_acks", _CPU, _LIVE),
    ("sizing.calls_per_delivery.transport", _DPS, _WIDE),
    ("sizing.self_s.transport", _DPS, _WIDE),
    ("sizing.calls_per_delivery.storage", _DPS, _CRASH),
    ("sizing.self_s.storage", _DPS, _CRASH),
    ("storage.log_calls_per_delivery", _DPS, _CRASH),
    ("storage.log_bytes_per_delivery", _DPS, _CRASH),
    ("storage.log_self_s", _DPS, _CRASH),
    # The basic protocol opens no write barrier, so on live-udp every
    # log is its own group commit and its fsync is log self time.
    ("storage.log_self_s", _P99, _LIVE),
    ("storage.retrieve_calls", _DPS, _CRASH),
    ("storage.retrieve_self_s", _DPS, _CRASH),
    ("storage.barrier_s", _P99, _LIVE),
    ("storage.group_commits_per_delivery", _P99, _LIVE),
    ("core.handler_calls_per_delivery", _DPS, _WIDE),
    ("core.self_s", _DPS, _WIDE),
    ("core.checkpoint_s", _DPS, _CRASH),
    ("core.recovery_p50_vs", _P99, _CRASH),
    ("consensus.instances", _MSGS, _WIDE),
    ("consensus.instances", _MSGS, _CRASH),
    ("consensus.deliveries_per_instance", _P50, _WIDE),
    ("consensus.deliveries_per_instance", _P50, _CRASH),
    ("consensus.self_s", _DPS, _WIDE),
    ("fdetect.self_s", _DPS, _WIDE),
    ("wire.encode_calls_per_delivery", _CPU, _LIVE),
    ("wire.encode_self_s", _CPU, _LIVE),
    ("wire.decode_self_s", _CPU, _LIVE),
    ("wire.bytes_per_delivery", _CPU, _LIVE),
    ("apps.self_s", _DPS, _CRASH),
)

Totals = Dict[str, Tuple[int, float, float]]


def _merge(summaries: Sequence[Totals]) -> Dict[str, List[float]]:
    merged: Dict[str, List[float]] = {}
    for summary in summaries:
        for kind, (calls, own, inclusive) in summary.items():
            row = merged.setdefault(kind, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += own
            row[2] += inclusive
    return merged


def layer_metrics(traced: Sequence[RunResult], summaries: Sequence[Totals],
                  untraced: Sequence[RunResult]) -> Dict[str, float]:
    """Every per-layer metric, from traced runs paired with untraced
    runs of the same inputs (sim) or the same schedule (live)."""
    spans = _merge(summaries)
    runs = len(traced)
    deliveries = sum(result.deliveries for result in traced)

    def total(counter: str) -> float:
        return sum(result.counters.get(counter, 0) for result in traced)

    def calls(*kinds: str) -> int:
        return sum(int(spans.get(kind, (0,))[0]) for kind in kinds)

    def own(prefix: str) -> float:
        """Self seconds per run of every span kind under ``prefix``."""
        return sum(row[1] for kind, row in spans.items()
                   if kind == prefix or kind.startswith(prefix + ".")) / runs

    lateness = [late for result in untraced for late in result.lateness]
    recovery = [value for result in traced
                for value in result.recovery_latencies]
    decisions = total("decisions")
    return {
        "runtime.events_per_delivery": total("events") / deliveries,
        "runtime.self_s": own("runtime"),
        "runtime.loop_late_p99_ms":
            percentile(lateness, 99) * 1000 if lateness else 0.0,
        "transport.sends_per_delivery": calls("transport.send") / deliveries,
        "transport.self_s": own("transport"),
        "transport.datagrams_per_delivery": total("datagrams") / deliveries,
        "transport.retransmissions": total("retransmissions") / runs,
        "transport.piggybacked_acks": total("piggybacked_acks") / runs,
        "sizing.calls_per_delivery.transport":
            calls("sizing.transport") / deliveries,
        "sizing.self_s.transport": own("sizing.transport"),
        "sizing.calls_per_delivery.storage":
            calls("sizing.storage") / deliveries,
        "sizing.self_s.storage": own("sizing.storage"),
        "storage.log_calls_per_delivery":
            calls("storage.log", "storage.append") / deliveries,
        "storage.log_bytes_per_delivery": total("bytes_logged") / deliveries,
        "storage.log_self_s": own("storage.log") + own("storage.append"),
        "storage.retrieve_calls": calls("storage.retrieve") / runs,
        "storage.retrieve_self_s": own("storage.retrieve"),
        "storage.barrier_s": own("storage.barrier"),
        "storage.group_commits_per_delivery":
            total("group_commits") / deliveries,
        "core.handler_calls_per_delivery":
            calls("core.dispatch") / deliveries,
        "core.self_s": own("core"),
        "core.checkpoint_s": spans["core.checkpoint"][2] / runs,
        "core.recoveries": sum(result.recoveries for result in traced) / runs,
        "core.recovery_p50_vs": statistics.median(recovery) if recovery
        else 0.0,
        "consensus.instances": decisions / runs,
        "consensus.deliveries_per_instance":
            deliveries / decisions if decisions else 0.0,
        "consensus.self_s": own("consensus"),
        "fdetect.self_s": own("fdetect"),
        "wire.encode_calls_per_delivery": calls("wire.encode") / deliveries,
        "wire.encode_self_s": own("wire.encode"),
        "wire.decode_self_s": own("wire.decode"),
        "wire.bytes_per_delivery": total("wire_bytes") / deliveries,
        "apps.self_s": own("apps"),
        "verify.s": sum(result.verify_s for result in untraced)
        / len(untraced),
        "trace.overhead_ratio": _cpu_per_delivery(traced)
        / _cpu_per_delivery(untraced),
    }


def _cpu_per_delivery(results: Sequence[RunResult]) -> float:
    return sum(result.user_cpu_s for result in results) / sum(
        result.deliveries for result in results)
