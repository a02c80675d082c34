"""Structured observability events: severities and a fixed-size ring.

Where the sweep-trace ring records *regular* telemetry (one event per
cleaning sweep), this module records *irregular* operational events —
drift alerts from the accuracy auditor, guarantee violations, lifecycle
notices. Each event carries a severity (``info`` / ``warning`` /
``critical``), a machine-readable ``kind``, the stream time it refers
to, and a small free-form payload.

Events land in an :class:`EventRing` (same overwriting semantics and
read-back surface as :class:`~repro.obs.ring.SweepTraceRing`) and are
also counted into the ``repro_obs_events_total`` counter, labelled by
severity and kind, so alert rates are visible on ``/metrics`` even
after the ring has wrapped. The ring itself is exported through
``/metrics.json`` and ``python -m repro.obs --rings``. The span tracer
(:mod:`repro.obs.trace`) keeps its finished spans in the same ring
class.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Generic, List, Mapping, Optional, Tuple, TypeVar

from ..errors import ConfigurationError

__all__ = ["ObsEvent", "EventRing", "SEVERITIES"]

#: Legal event severities, mildest first.
SEVERITIES = ("info", "warning", "critical")

#: What an :class:`EventRing` holds: :class:`ObsEvent` objects, or the
#: tracer's finished-span dicts.
T = TypeVar("T")


@dataclass(frozen=True)
class ObsEvent:
    """One structured observability event.

    Attributes
    ----------
    time:
        Stream time the event refers to (item count or timestamp —
        whatever the emitting subsystem's window uses), *not* wall
        clock: events must be reproducible across replays.
    severity:
        One of :data:`SEVERITIES`.
    kind:
        Machine-readable event class (``"divergence"``, ``"budget"``,
        ``"violation"``, ...). Used as a counter label, so keep the
        vocabulary small.
    message:
        Human-readable one-liner.
    fields:
        Small JSON-friendly payload (task name, observed/predicted
        values, ...).
    """

    time: float
    severity: str
    kind: str
    message: str
    fields: "Mapping[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"event severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def as_dict(self) -> "Dict[str, Any]":
        """JSON-friendly image of the event."""
        return {
            "time": float(self.time),
            "severity": self.severity,
            "kind": self.kind,
            "message": self.message,
            "fields": dict(self.fields),
        }


class EventRing(Generic[T]):
    """Locked, overwriting ring of the most recent ``capacity`` entries.

    Same shape as :class:`~repro.obs.ring.SweepTraceRing`: pushes
    overwrite the oldest entry once full, ``total_pushed`` keeps
    counting, and read-back is chronological. Entries are irregular and
    orders of magnitude rarer than sweeps, so they are stored as the
    objects themselves rather than parallel columns — :class:`ObsEvent`
    records here, finished-span dicts in the tracer.

    Unlike the single-writer sweep ring, entries can arrive from many
    threads at once (auditor thread, lock waiters, flight recorder, the
    ack-absorbing shard parent), so pushes are serialised under a lock
    and each entry carries a monotonic sequence number assigned at push
    time — lost or torn records would show up as gaps or inversions in
    the read-back.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: "List[Optional[Tuple[int, T]]]" = \
            [None] * self.capacity
        self._next = 0
        self._total = 0
        self._lock = threading.Lock()

    def push(self, entry: T) -> None:
        """Record one entry, overwriting the oldest when full."""
        with self._lock:
            i = self._next
            self._entries[i] = (self._total, entry)
            self._next = (i + 1) % self.capacity
            self._total += 1

    def __len__(self) -> int:
        """Entries currently held (≤ capacity)."""
        return min(self._total, self.capacity)

    @property
    def total_pushed(self) -> int:
        """Entries ever pushed, including those already overwritten."""
        return self._total

    def _snapshot(self) -> "List[Tuple[int, T]]":
        with self._lock:
            size = min(self._total, self.capacity)
            if self._total <= self.capacity:
                order = range(size)
            else:
                order = ((i + self._next) % self.capacity
                         for i in range(size))
            return [entry for i in order
                    if (entry := self._entries[i]) is not None]

    def events(self) -> "List[T]":
        """Chronological list of the held entries."""
        return [entry for _seq, entry in self._snapshot()]

    def dicts(self: "EventRing[ObsEvent]") -> "List[Dict[str, Any]]":
        """Chronological events as JSON-friendly dicts, each carrying
        its push-time ``seq`` number."""
        out: "List[Dict[str, Any]]" = []
        for seq, event in self._snapshot():
            d = event.as_dict()
            d["seq"] = seq
            out.append(d)
        return out

    def clear(self) -> None:
        """Drop all entries (buffer stays allocated)."""
        with self._lock:
            self._entries = [None] * self.capacity
            self._next = 0
            self._total = 0

    def __repr__(self) -> str:
        return (
            f"EventRing(capacity={self.capacity}, held={len(self)}, "
            f"total_pushed={self._total})"
        )
