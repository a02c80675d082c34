"""Workload definitions and the deterministic inputs they send.

Every input comes from ``--seed``: one caida-like trace per tenant
(``repro.datasets``: heavy-tailed, ~50 occurrences per distinct key)
and the query keys. The service only ever sees the generated frames.
All workloads are closed loop: a connection sends its next frame only
after the previous ack, as the service's blocking clients do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Offset of never-seen keys: far above every trace key id.
NEVER_SEEN_BASE = 1_000_000_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix against the service.

    ``config`` holds ``TenantConfig`` fields shared by every tenant.
    Each tenant repeats a cycle: one ``INSERT_BATCH`` of ``frame_keys``
    keys, then ``queries`` single-key ``QUERY`` frames (half for keys of
    the frame just sent, half for never-seen keys), then a
    ``CHECKPOINT`` whenever its stream position passed the next
    multiple of ``checkpoint_every`` (0: none while timed).
    """

    name: str
    why: str
    tenants: Tuple[str, ...]
    config: Dict[str, Any]
    key_kind: str
    frame_keys: int
    connections: int
    #: Items per tenant trace. Small enough that every run replays it
    #: lap after lap, so the distinct keys a run sends (and the memory
    #: they take) do not depend on how fast it went.
    trace_items: int
    queries: int = 0
    #: Dense enough for a few dozen checkpoints a run: their median
    #: jumped by a quarter between runs with a dozen.
    checkpoint_every: float = 0.0
    #: Frames per tenant sent in untimed cycles before the timed phase.
    #: Accuracy counts the queries of these cycles and of the probe,
    #: so it depends on the seed alone, not on speed.
    warmup_frames: int = 25
    #: Untimed queries per tenant right after the warm-up, for accuracy.
    probe_queries: int = 0
    #: Percentile of each timed block's query latency that the query
    #: tail reports: the highest of p90/p95/p99 that leaves at least ten
    #: queries beyond it in every block at the tree that defined the
    #: benchmark. Fixed, so a speed change does not change it.
    query_tail: float = 90.0

    @property
    def has_times(self) -> bool:
        """Whether frames carry stream times (time-window tenants)."""
        return self.config.get("window_kind", "count") == "time"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ingest-str",
        why=("decimal-string keys, 2000-key frames, one tenant at the "
             "default config: per-item key hashing does most of the work"),
        tenants=("t0",), config={}, key_kind="str", frame_keys=2000,
        connections=1, trace_items=400_000, queries=6,
        checkpoint_every=25_000.0, probe_queries=1000),
    Workload(
        name="ingest-int",
        why=("the same with JSON integer keys: hashing is vectorised, so "
             "clock kernels, indexing and decode carry the cost"),
        tenants=("t0",), config={}, key_kind="int", frame_keys=2000,
        connections=1, trace_items=400_000, queries=6,
        checkpoint_every=25_000.0, probe_queries=1000),
    Workload(
        name="tenants-mixed",
        why=("4 time-window tenants, 2 shards, 500-key frames between "
             "point queries and inline checkpoints on 2 connections"),
        tenants=("t0", "t1", "t2", "t3"),
        config={"window_kind": "time", "shards": 2, "router": "serial"},
        key_kind="str", frame_keys=500, connections=2,
        trace_items=50_000, queries=8, checkpoint_every=5_000.0,
        query_tail=95.0),
)}


def tenant_config(workload: Workload) -> Any:
    from repro.serve import TenantConfig

    return TenantConfig(**workload.config)


@dataclass
class TenantStream:
    """One tenant's generated trace and the frames cut from it."""

    name: str
    keys: np.ndarray
    times: Optional[np.ndarray]
    frame_keys: int
    key_kind: str
    _frames: Dict[int, bytes] = field(default_factory=dict)

    @property
    def frames_per_lap(self) -> int:
        return len(self.keys) // self.frame_keys

    def span(self, j: int) -> Tuple[int, int, int]:
        """(lap, start, end) item offsets of frame ``j``."""
        lap, slot = divmod(j, self.frames_per_lap)
        start = slot * self.frame_keys
        return lap, start, start + self.frame_keys

    def wire_keys(self, raw: np.ndarray) -> List[Any]:
        """Keys as the service receives them after JSON decode."""
        ints = raw.tolist()
        return [str(k) for k in ints] if self.key_kind == "str" else ints

    def frame(self, j: int) -> Tuple[List[Any], Optional[np.ndarray]]:
        """Decoded keys and stream times of frame ``j``.

        A run longer than the trace replays it lap after lap; stream
        time keeps rising across laps.
        """
        lap, start, end = self.span(j)
        keys = self.wire_keys(self.keys[start:end])
        if self.times is None:
            return keys, None
        lap_time = float(self.times[-1]) + 1.0
        return keys, self.times[start:end] + lap * lap_time

    def position_after(self, j: int) -> float:
        """The tenant's stream position once frame ``j`` is applied."""
        if self.times is None:
            return float((j + 1) * self.frame_keys)
        lap, _, end = self.span(j)
        return float(self.times[end - 1]) + lap * (float(self.times[-1]) + 1.0)

    def frame_bytes(self, j: int) -> bytes:
        """The ``INSERT_BATCH`` wire frame for frame ``j``."""
        # Without stream times every lap sends the same bytes.
        slot = j % self.frames_per_lap if self.times is None else j
        cached = self._frames.get(slot)
        if cached is not None:
            return cached
        keys, times = self.frame(j)
        request: Dict[str, Any] = {"op": "INSERT_BATCH", "tenant": self.name,
                                   "keys": keys}
        if times is not None:
            request["times"] = times.tolist()
        data = (json.dumps(request, separators=(",", ":")) + "\n").encode()
        if slot < self.frames_per_lap:
            self._frames[slot] = data
        return data


def build_streams(workload: Workload, seed: int) -> List[TenantStream]:
    """One trace per tenant, all derived from ``seed``."""
    from repro.datasets import caida_like

    window = float(tenant_config(workload).window_length)
    streams = []
    for index, name in enumerate(workload.tenants):
        trace = caida_like(n_items=workload.trace_items, window_hint=window,
                           seed=seed * 101 + index)
        times = trace.times if workload.has_times else None
        streams.append(TenantStream(name, trace.keys, times,
                                    workload.frame_keys, workload.key_kind))
    return streams


class QueryKeys:
    """One tenant's query keys: alternately just seen and never seen."""

    def __init__(self, workload: Workload, seed: int, tenant: int) -> None:
        self.rng = np.random.default_rng([seed, tenant, 7919])
        self.key_kind = workload.key_kind
        self.asked = 0

    def pick(self, recent: np.ndarray,
             count: int) -> List[Tuple[Any, int, bool]]:
        """``count`` (wire key, key id, seen) triples; seen keys are
        drawn from ``recent``, the ids of the frame just sent."""
        picks = []
        for _ in range(count):
            self.asked += 1
            seen = self.asked % 2 == 1
            if seen:
                key = int(recent[int(self.rng.integers(len(recent)))])
            else:
                key = NEVER_SEEN_BASE + self.asked * 8 \
                    + int(self.rng.integers(8))
            wire = str(key) if self.key_kind == "str" else key
            picks.append((wire, key, seen))
        return picks


def query_bytes(tenant: str, key: Any) -> bytes:
    return (json.dumps({"op": "QUERY", "tenant": tenant, "key": key},
                       separators=(",", ":")) + "\n").encode()


def checkpoint_bytes(tenant: str) -> bytes:
    return (json.dumps({"op": "CHECKPOINT", "tenant": tenant},
                       separators=(",", ":")) + "\n").encode()
