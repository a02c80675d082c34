"""The sharded-sketch facade: key-partitioned parallel ingestion.

:class:`ShardedSketch` splits one logical sketch into ``P`` independent
replicas — same configuration, same hash seeds — and routes every item
to exactly one replica by a *dedicated* shard hash (seeded independently
of the index hashes, so routing never correlates with cell placement;
see :mod:`repro.hashing.sharding`). Queries are answered from a merged
global view built by element-wise clock union (paper §7's mergeability):

- **activeness / cardinality** (clock cells only): with every replica's
  cleaning pointer synchronised to the query time, the element-wise max
  of the per-shard clock values is *exactly* the cell image the plain
  unsharded sketch would hold — so a sharded Bloom filter or bitmap is
  bit-identical to its plain twin at any shard count.
- **size**: per-key counters add across shards but each key lives in
  one shard, so summed counters over-count only through per-shard
  collisions — the merged estimate stays within the plain sketch's
  one-sided error band (truth ≤ sharded ≤ plain-worst-case).
- **time span**: first-writer-wins — timestamps merge by *min* over
  live shards, the only direction that preserves the never-underestimate
  span contract (an element-wise max could shrink a span when two
  shards' keys collide in one cell; see ``docs/sharding.md``).

Two routers execute the fan-out: :class:`SerialShardRouter` applies
sub-batches inline (zero concurrency, useful as the differential-test
oracle), and :class:`~repro.shard.workers.ProcessShardRouter` drains
them through one worker process per shard over shared memory.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

import numpy as np

from ..core.base import ClockSketchBase
from ..core import ClockBitmap, ClockBloomFilter, ClockCountMin, ClockTimeSpanSketch
from ..errors import ConfigurationError
from ..hashing import ShardSelector
from ..obs import names as _names
from ..obs import runtime as _obs
from ..obs import trace as _trace
from ..serialize import dumps_sketch, loads_sketch
from .workers import DEFAULT_QUEUE_CAPACITY, DEFAULT_TIMEOUT, ProcessShardRouter

__all__ = ["SerialShardRouter", "ShardedSketch"]

_SHARDABLE = (ClockBloomFilter, ClockBitmap, ClockCountMin, ClockTimeSpanSketch)

#: Immutable replica configuration the facade forwards verbatim.
#: Mutable state (clock, counters, timestamps, engine) is deliberately
#: absent: with a process router it lives in shared memory that workers
#: may still be writing.
_FORWARDED_CONFIG = frozenset({
    "window", "n", "k", "s", "seed", "width", "depth", "conservative",
    "counter_bits", "counter_max", "max_value",
})


class SerialShardRouter:
    """In-process router: applies each shard's sub-batch inline.

    The zero-concurrency reference implementation of the router
    protocol (``ingest`` / ``barrier`` / ``queue_depth`` / ``close``):
    sub-batches execute immediately on the caller's thread, so a
    serial-routed :class:`ShardedSketch` is deterministic and serves as
    the oracle the process-backed router is differentially tested
    against.
    """

    kind = "serial"

    def __init__(self, replicas: "list[Any]") -> None:
        self.replicas = list(replicas)
        for replica in self.replicas:
            replica._accepts_global_times = True

    def ingest(self, shard: int, items: Any, times: np.ndarray,
               ctx: Any = None) -> None:
        # ``ctx`` (a propagated span context) is part of the router
        # protocol but unused here: inline execution means the replica's
        # engine spans already parent naturally under the caller's span.
        self.replicas[shard].insert_many(items, times)

    def barrier(self, now: float, ctx: Any = None) -> None:
        """Synchronise every replica's cleaner to the query time.

        With more than one shard the deferred sweep backlogs are also
        flushed — merge validity requires all cleaning pointers at the
        same position. A single shard skips the flush so that ``P=1``
        stays bit-identical to a plain sketch even in deferred modes.
        """
        flush = len(self.replicas) > 1
        for replica in self.replicas:
            clock = replica.clock
            if now > clock.now:
                clock.advance(now)
            if flush and clock.is_deferred:
                clock.flush()
            if now > replica._now:
                replica._now = float(now)

    def queue_depth(self, shard: int) -> int:
        return 0

    def close(self) -> None:
        pass


class ShardedSketch(ClockSketchBase):
    """Key-partitioned facade over ``P`` replicas of one clock sketch.

    Parameters
    ----------
    prototype:
        A *pristine* sketch instance (no inserts, cleaner at step 0) —
        or a zero-argument factory returning one — defining the
        per-shard configuration. Each shard gets an exact clone.
    shards:
        Number of partitions ``P`` (>= 1).
    router:
        ``"serial"`` (inline, deterministic) or ``"process"`` (one
        worker process per shard over shared memory).
    queue_capacity, timeout, time_source:
        Forwarded to :class:`~repro.shard.workers.ProcessShardRouter`
        (ignored by the serial router).

    The facade exposes the full sketch API — ``insert`` /
    ``insert_many`` route by shard hash; ``query`` / ``query_many`` /
    ``contains`` / ``contains_many`` / ``estimate`` are answered from a
    cached merged view (rebuilt after the next insert or at a new query
    time). Use as a context manager to release worker processes.
    """

    def __init__(self, prototype: Any, shards: int = 2, *,
                 router: str = "serial",
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 timeout: float = DEFAULT_TIMEOUT, time_source: Any = None,
                 _replicas: "list[Any] | None" = None) -> None:
        if _replicas is not None:
            replicas = list(_replicas)
            if len(replicas) != shards:
                raise ConfigurationError(
                    f"expected {shards} replicas, got {len(replicas)}"
                )
            prototype = replicas[0]
        else:
            if callable(prototype) and not isinstance(prototype, _SHARDABLE):
                prototype = prototype()
        if not isinstance(prototype, _SHARDABLE):
            raise ConfigurationError(
                "prototype must be one of the four clock sketches, got "
                f"{type(prototype).__name__}"
            )
        shards = int(shards)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if _replicas is None:
            if prototype.items_inserted or prototype.clock.steps_done \
                    or prototype.now:
                raise ConfigurationError(
                    "prototype must be pristine (no inserts, cleaner at "
                    "step 0); pass a factory or a freshly built sketch"
                )
            payload = dumps_sketch(prototype)
            replicas = [loads_sketch(payload) for _ in range(shards)]
        super().__init__(prototype.window)
        self.shards = shards
        self.seed = prototype.seed
        self.selector = ShardSelector(shards, seed=self.seed)
        #: The facade-side kernel backend driving the scatter fan-out —
        #: the prototype's resolved backend, so one spec configures both
        #: the replicas' sweeps and the router's batch splitting.
        self.kernels = prototype.clock.kernels
        if router == "serial":
            self.router = SerialShardRouter(replicas)
        elif router == "process":
            self.router = ProcessShardRouter(
                replicas, queue_capacity=queue_capacity, timeout=timeout,
                time_source=time_source,
            )
        else:
            raise ConfigurationError(
                f"unknown router {router!r}; use 'serial' or 'process'"
            )
        self._dirty = False
        self._cache: Any = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def insert(self, item: Any, t: "float | None" = None) -> None:
        """Insert one item, routed to its shard at the resolved time."""
        now = self._insert_time(t)
        shard = self.selector.shard_of(item)
        self.router.ingest(shard, [item], np.asarray([now], dtype=np.float64))
        if _obs.ENABLED:
            _obs.record_shard_route(shard, 1, self.router.queue_depth(shard))
        self._dirty = True

    def insert_many(self, items: Any, times: Any = None) -> None:
        """Insert a batch: resolve times once, scatter by shard hash.

        Each shard's sub-batch preserves stream order and carries the
        items' *global* arrival times, so every replica cleans on the
        plain sketch's exact schedule.
        """
        if not hasattr(items, "__len__"):
            items = list(items)
        count = len(items)
        times_arr = self._insert_times_many(count, times)
        if not count:
            return
        with _trace.span(_names.SPAN_SHARD_SCATTER) as sp:
            if sp.recording:
                sp.set("items", count)
                sp.set("shards", self.shards)
            shard_ids = self.selector.shards_of(items)
            for shard, sub_items, sub_times in self.kernels.scatter_by_shard(
                    items, times_arr, shard_ids):
                self.router.ingest(shard, sub_items, sub_times, ctx=sp.ctx)
                if _obs.ENABLED:
                    _obs.record_shard_route(shard, int(sub_times.shape[0]),
                                            self.router.queue_depth(shard))
        self._items_inserted += count
        self._now = float(times_arr[-1])
        self._dirty = True
        if _obs.ENABLED:
            _obs.record_insert(type(self).__name__, count)

    # ------------------------------------------------------------------
    # Merged global view
    # ------------------------------------------------------------------

    def merged(self, t: "float | None" = None) -> Any:
        """The global sketch at time ``t``: barrier, snapshot, union.

        Synchronises every shard to the query time (for the process
        router this is the flush-and-ack barrier), snapshots shard 0
        and merges the rest in. The view is cached until the next
        insert or a later query time; it is a plain sketch — every
        query method on it works as usual.
        """
        now = self._query_time(t)
        cache = self._cache
        if cache is not None and not self._dirty and cache.now == now:
            return cache
        started = perf_counter()
        with _trace.span(_names.SPAN_SHARD_MERGE) as sp:
            if sp.recording:
                sp.set("shards", self.shards)
            self.router.barrier(now, ctx=sp.ctx)
            replicas = self.router.replicas
            view = replicas[0].snapshot()
            for other in replicas[1:]:
                view.merge(other)
            if sp.recording:
                sp.set("kind", type(view).__name__)
        view._now = float(now)
        view._items_inserted = self._items_inserted
        if _obs.ENABLED:
            _obs.record_shard_merge(type(view).__name__, self.shards,
                                    perf_counter() - started)
        self._cache = view
        self._dirty = False
        return view

    def snapshot(self, t: "float | None" = None) -> Any:
        """A detached copy of the merged global sketch at time ``t``."""
        return self.merged(t).snapshot()

    # ------------------------------------------------------------------
    # Queries (delegate to the merged view)
    # ------------------------------------------------------------------

    def query(self, item: Any, t: "float | None" = None) -> Any:
        """Query the merged global view for one item."""
        return self.merged(t).query(item)

    def query_many(self, items: Any, t: "float | None" = None) -> Any:
        """Query the merged global view for a batch of items."""
        return self.merged(t).query_many(items)

    def contains(self, item: Any, t: "float | None" = None) -> bool:
        """Membership query on the merged view (Bloom-filter kinds)."""
        return self.merged(t).contains(item)

    def contains_many(self, items: Any,
                      t: "float | None" = None) -> np.ndarray:
        """Batch membership query on the merged view."""
        return self.merged(t).contains_many(items)

    def estimate(self, t: "float | None" = None,
                 strict: bool = False) -> float:
        """Cardinality estimate from the merged view (bitmap kind)."""
        return self.merged(t).estimate(strict=strict)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def replicas(self) -> "list[Any]":
        """The per-shard replica sketches (read-only use)."""
        return self.router.replicas

    @property
    def clock(self) -> Any:
        """The merged view's clock (plain sketches expose ``.clock``)."""
        return self.merged().clock

    def memory_bits(self) -> int:
        """Total accounted footprint across all shards, in bits."""
        return sum(r.memory_bits() for r in self.router.replicas)

    def shard_memory_bits(self) -> int:
        """One shard's footprint — the *accuracy-relevant* size.

        The merged view's error behaviour equals a single shard-sized
        sketch (every shard holds the full cell space), so analytic
        predictions must use this, not :meth:`memory_bits`.
        """
        return self.router.replicas[0].memory_bits()

    def metrics(self) -> "dict[str, Any]":
        """Structural metrics for the facade and each shard."""
        replicas = self.router.replicas
        return {
            "sketch": type(self).__name__,
            "kind": type(replicas[0]).__name__,
            "shards": self.shards,
            "router": self.router.kind,
            "memory_bits": self.memory_bits(),
            "shard_memory_bits": self.shard_memory_bits(),
            "items_inserted": self._items_inserted,
            "queue_depths": [self.router.queue_depth(p)
                             for p in range(self.shards)],
        }

    def __getattr__(self, name: str) -> Any:
        # Configuration attributes (n, k, s, width, ...) delegate to the
        # shard-0 replica so callers can introspect a ShardedSketch like
        # a plain sketch. Only the closed _FORWARDED_CONFIG set is
        # forwarded: with a process router the replica is backed by
        # shared memory that worker processes may still be writing, so
        # mutable state (clock, counters, engine) must go through the
        # barrier-synchronised query path, never raw delegation.
        if name not in _FORWARDED_CONFIG:
            raise AttributeError(name)
        router = self.__dict__.get("router")
        if router is None or not router.replicas:
            raise AttributeError(name)
        return getattr(router.replicas[0], name)

    def close(self) -> None:
        """Release router resources (worker processes, shared memory).

        Idempotent; the facade remains queryable afterwards — the
        process router hands each replica a private copy of its final
        state on shutdown.
        """
        self.router.close()

    def __enter__(self) -> "ShardedSketch":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = type(self.router.replicas[0]).__name__
        return (f"ShardedSketch(kind={kind}, shards={self.shards}, "
                f"router={self.router.kind!r}, "
                f"items={self._items_inserted})")
