"""The fixed scenario matrix the perf trajectory is measured over.

The matrix spans the axes that dominate hot-path cost: protocol (basic
vs. alternative), cluster size (3 vs. 5), link loss (lossless vs. 20%)
and a seeded chaos schedule (quiet vs. crash/recovery storms).  The
cells are *frozen*: changing a cell's parameters invalidates every
``BENCH_*.json`` point recorded before the change, so new workloads get
new cells instead of edits (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.alternative import AlternativeConfig
from repro.flow.controller import FlowConfig
from repro.harness.cluster import ClusterConfig
from repro.harness.scenario import Scenario
from repro.sim.faults import RandomFaults
from repro.transport.network import NetworkConfig
from repro.workloads.generators import PoissonWorkload

__all__ = ["PerfCell", "default_matrix", "overload_cell", "scaled_cells",
           "smallest_cell"]

# One fixed seed root for the whole matrix; per-cell seeds derive from
# the cell's position so cells stay independent but reproducible.
_SEED_ROOT = 1009


class PerfCell:
    """One frozen point of the scenario matrix."""

    def __init__(self, protocol: str, n: int, loss_rate: float,
                 chaos: bool, seed: int,
                 rate_per_node: float = 6.0,
                 workload_duration: float = 8.0,
                 duration: float = 12.0,
                 settle_limit: float = 240.0,
                 flow: Optional[FlowConfig] = None,
                 suffix: str = ""):
        self.protocol = protocol
        self.n = n
        self.loss_rate = loss_rate
        self.chaos = chaos
        self.seed = seed
        self.rate_per_node = rate_per_node
        self.workload_duration = workload_duration
        self.duration = duration
        self.settle_limit = settle_limit
        # Admission control; None on every legacy cell (the 16 frozen
        # cells predate the flow layer and must stay byte-identical).
        self.flow = flow
        # Name disambiguator for cells that vary an axis the name does
        # not encode (e.g. the 10x-rate cell); empty on legacy cells.
        self.suffix = suffix

    @property
    def name(self) -> str:
        loss = f"l{int(self.loss_rate * 100):02d}"
        mood = "overload" if self.flow is not None \
            else ("chaos" if self.chaos else "quiet")
        return f"{self.protocol}-n{self.n}-{loss}-{mood}{self.suffix}"

    def params(self) -> Dict[str, object]:
        """The frozen cell definition, as recorded in BENCH files."""
        params: Dict[str, object] = {
            "protocol": self.protocol,
            "n": self.n,
            "loss_rate": self.loss_rate,
            "chaos": self.chaos,
            "seed": self.seed,
            "rate_per_node": self.rate_per_node,
            "workload_duration": self.workload_duration,
            "duration": self.duration,
        }
        # Added only when set: legacy cell records keep their exact shape.
        if self.flow is not None:
            params["flow"] = {
                "rate": self.flow.rate,
                "burst": self.flow.burst,
                "max_unordered": self.flow.max_unordered,
            }
        return params

    def scenario(self) -> Scenario:
        """Build the cell's scenario."""
        alt = None
        if self.protocol == "alternative":
            alt = AlternativeConfig(checkpoint_interval=2.0)
        faults: Optional[RandomFaults] = None
        if self.chaos:
            # Stabilize well before the settle window so every node is a
            # good process and the run can terminate.
            faults = RandomFaults(mttf=6.0, mttr=1.0,
                                  stabilize_at=self.duration,
                                  seed=self.seed + 17)
        return Scenario(
            cluster=ClusterConfig(
                n=self.n, seed=self.seed, protocol=self.protocol,
                network=NetworkConfig(loss_rate=self.loss_rate),
                alt=alt,
                flow=self.flow),
            workload=PoissonWorkload(self.rate_per_node,
                                     self.workload_duration,
                                     seed=self.seed),
            faults=faults,
            duration=self.duration,
            settle_limit=self.settle_limit)


def default_matrix() -> List[PerfCell]:
    """The full frozen matrix: 2 protocols × {3,5} nodes × {0%,20%} loss
    × {quiet, chaos} = 16 cells."""
    cells: List[PerfCell] = []
    index = 0
    for protocol in ("basic", "alternative"):
        for n in (3, 5):
            for loss_rate in (0.0, 0.20):
                for chaos in (False, True):
                    cells.append(PerfCell(protocol, n, loss_rate, chaos,
                                          seed=_SEED_ROOT + index))
                    index += 1
    return cells


def smallest_cell() -> PerfCell:
    """The cheapest cell; CI's perf-smoke drift check runs only this."""
    return default_matrix()[0]


def overload_cell() -> PerfCell:
    """The admission-control cell: offered load well above the bucket
    rate, so the run measures the throttled path (gating, rejections,
    workload backoff) rather than raw ordering throughput.  A new cell,
    not an edit — the 16 legacy cells stay frozen."""
    return PerfCell("basic", 3, 0.0, chaos=False, seed=_SEED_ROOT + 100,
                    rate_per_node=24.0, workload_duration=6.0,
                    duration=10.0, settle_limit=240.0,
                    flow=FlowConfig(rate=6.0, burst=6, max_unordered=24))


def scaled_cells() -> List[PerfCell]:
    """Scale-stress cells beyond the legacy grid: a 25-node cluster and
    a 10x submission rate.  New cells with fresh seeds — the 16 legacy
    cells and the overload cell stay frozen."""
    return [
        PerfCell("basic", 25, 0.0, chaos=False, seed=_SEED_ROOT + 200,
                 rate_per_node=2.0, workload_duration=6.0, duration=10.0,
                 settle_limit=240.0),
        PerfCell("basic", 3, 0.0, chaos=False, seed=_SEED_ROOT + 201,
                 rate_per_node=60.0, workload_duration=8.0, duration=12.0,
                 settle_limit=240.0, suffix="-rate10x"),
    ]
