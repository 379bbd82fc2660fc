"""Base class for wire messages.

A wire message is anything the transport carries between nodes.  The
transport only requires two things of a message: a ``type`` tag used for
handler dispatch on the receiving node, and an ``estimated_size`` used for
byte accounting.  Concrete protocol messages subclass :class:`WireMessage`
and declare their payload fields.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.sizing import estimate_size

__all__ = ["WireMessage"]


class WireMessage:
    """Immutable wire message with a dispatch tag.

    Subclasses set the class attribute ``type`` and store payload fields
    as instance attributes listed in ``fields`` (used for size accounting
    and ``repr``).

    Immutability is load-bearing: :meth:`estimated_size` walks the fields
    once and caches the result on the instance, so a field must be
    neither rebound nor mutated after the first call.  Build a new
    message instead.
    """

    type = "message"
    fields: Tuple[str, ...] = ()
    _size: Optional[int] = None

    # Bumped on every subclass definition; the wire codec's type-tag
    # registry is valid exactly while this stands still, so unknown-tag
    # lookups can fail in O(1) instead of re-walking the class tree.
    _registry_generation = 0

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        WireMessage._registry_generation += 1

    def estimated_size(self) -> int:
        """Estimated serialised size: tag plus payload fields.

        Computed on the first call and cached: a ``multisend`` to n
        nodes walks the payload once, not n times.
        """
        size = self._size
        if size is None:
            size = 2 + len(self.type)
            for name in self.fields:
                size += estimate_size(getattr(self, name))
            self._size = size
        return size

    def payload(self) -> Tuple[Any, ...]:
        """The payload fields as a tuple (handy for tests)."""
        return tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({parts})"
