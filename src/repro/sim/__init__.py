"""Simulation-only fault injection front-ends.

The virtual-time kernel, process model, tracer and seeded streams live
in :mod:`repro.runtime` (shared with the live asyncio/UDP runtime — see
docs/RUNTIME.md).  This package keeps :mod:`repro.sim.faults`: the
hand-written crash/recover and partition schedules
(:class:`~repro.sim.faults.FaultSchedule`,
:class:`~repro.sim.faults.PartitionSchedule`) and seeded random
crash-recovery (:class:`~repro.sim.faults.RandomFaults`) that tests,
benchmarks and the CLI build scenarios from.
"""
