"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """Raised for misuse of the simulation kernel (bad yields, dead tasks)."""


class TaskKilled(BaseException):
    """Thrown into a task's generator when the task is killed.

    Deliberately derives from :class:`BaseException` (like
    :class:`GeneratorExit`) so that protocol code written with broad
    ``except Exception`` clauses cannot accidentally swallow a crash.
    """


class ProcessDown(ReproError):
    """Raised when an operation is attempted on a node that is down."""


class StorageError(ReproError):
    """Raised for stable-storage failures (corruption, bad keys)."""


class ConsensusError(ReproError):
    """Raised for violations of the consensus interface contract."""


class ProposalMismatch(ConsensusError):
    """Raised when ``propose(k, v)`` is re-invoked with a different value.

    Property P4 of the paper requires a process to always propose the same
    value to a given consensus instance; the consensus service enforces it.
    """


class BroadcastError(ReproError):
    """Raised for misuse of the Atomic Broadcast API."""


class OverloadError(BroadcastError):
    """Raised when admission control rejects a broadcast (busy signal).

    Retryable by contract: the submission was *not* accepted, no sequence
    number was consumed, and the caller may retry after backing off.
    ``reason`` names the exhausted resource (``"rate"``, ``"credit"``, ...)
    so rejections can be accounted per cause.
    """

    def __init__(self, message: str, reason: str = "rate") -> None:
        super().__init__(message)
        self.reason = reason


class OversizeDatagramError(ReproError):
    """An encoded message exceeds the transport's datagram limit.

    Raised synchronously out of a live medium's ``send``/``multisend``
    so the caller fails cleanly (and the drop is counted) instead of
    ``sendto`` raising ``OSError: Message too long`` from inside the
    event loop.
    """

    def __init__(self, message_type: str, size: int, limit: int):
        super().__init__(
            f"encoded {message_type!r} is {size} bytes; the datagram "
            f"limit is {limit}")
        self.message_type = message_type
        self.size = size
        self.limit = limit


class VerificationError(ReproError):
    """Raised by the harness when a run violates an Atomic Broadcast property."""


class AnalysisError(ReproError):
    """Raised when the static analyzer cannot run (bad paths, unparseable
    sources, misconfigured rules) — distinct from *findings*, which are
    reported, not raised."""
