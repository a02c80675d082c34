"""BF+clock — item batch activeness / membership (paper §4.1).

A Bloom filter whose bit cells are replaced by ``s``-bit clock cells:
the bit is 1 exactly when the clock is non-zero, so only the clock
array is stored. Inserting sets the ``k`` hashed clocks to ``2^s - 1``;
the cleaning pointer decrements them; a batch is reported active when
all ``k`` clocks are non-zero.

Two evaluation paths are provided:

- :class:`ClockBloomFilter` — the faithful incremental structure.
- :func:`snapshot_membership` — a closed-form vectorised evaluation of
  the final clock state after a whole key stream, used by the accuracy
  experiments (identical results, orders of magnitude faster; the
  equivalence is enforced by property tests).
"""

from __future__ import annotations

import numpy as np

from ..engine import BatchEngine
from ..hashing import IndexDeriver
from ..obs import runtime as _obs
from ..timebase import WindowSpec
from ..units import parse_memory
from .base import ClockSketchBase
from .clockarray import ClockArray
from .params import OPTIMAL_S_MEMBERSHIP, cells_for_memory, optimal_k_membership

__all__ = ["ClockBloomFilter", "snapshot_membership"]


class ClockBloomFilter(ClockSketchBase):
    """Clock-sketch for item batch activeness (BF+clock).

    Parameters
    ----------
    n:
        Number of clock cells.
    k:
        Number of hash functions.
    s:
        Bits per clock cell (the paper proves ``s = 2`` optimal here).
    window:
        The sliding window ``T``.
    seed:
        Hash seed; two filters with the same seed are identical maps.
    sweep_mode:
        ``"vector"`` or ``"scalar"`` cleaning (see
        :class:`~repro.core.clockarray.ClockArray`).
    sanitize:
        Wrap this instance with the runtime invariant checks of
        :mod:`repro.qa.sanitizer` (see ``docs/qa.md``).

    Examples
    --------
    >>> from repro.timebase import count_window
    >>> bf = ClockBloomFilter(n=1024, k=4, s=2, window=count_window(64))
    >>> bf.insert("flow-a")
    >>> bf.contains("flow-a")
    True
    """

    def __init__(self, n: int, k: int, s: int, window: WindowSpec,
                 seed: int = 0, sweep_mode: str = "vector",
                 sanitize: bool = False):
        super().__init__(window)
        self.s = int(s)
        self.k = int(k)
        self.clock = ClockArray(n, s, window, sweep_mode=sweep_mode)
        self.deriver = IndexDeriver(n=n, k=k, seed=seed)
        self.seed = seed
        self.engine = BatchEngine(self)
        if sanitize:
            from ..qa.sanitizer import sanitize_sketch
            sanitize_sketch(self)

    @classmethod
    def from_memory(cls, memory, window: WindowSpec, s: int = OPTIMAL_S_MEMBERSHIP,
                    k: "int | None" = None, seed: int = 0,
                    sweep_mode: str = "vector") -> "ClockBloomFilter":
        """Build a filter that fits a memory budget.

        ``memory`` accepts bytes or strings like ``"64KB"``. ``k``
        defaults to the §5.1 optimum for the given ``s`` and window.
        """
        bits = parse_memory(memory)
        n = cells_for_memory(bits, s)
        if k is None:
            k = optimal_k_membership(n, window.length, s)
        return cls(n=n, k=k, s=s, window=window, seed=seed, sweep_mode=sweep_mode)

    @property
    def n(self) -> int:
        """Number of clock cells."""
        return self.clock.n

    def insert(self, item, t=None) -> None:
        """Record an occurrence of ``item`` (at time ``t`` if time-based).

        Semantically the batch-size-1 case of :meth:`insert_many`
        (bit-identical final state, property-tested), kept as a direct
        scalar path so single-item callers skip the batch machinery.
        """
        now = self._insert_time(t)
        self.clock.advance(now)
        self.clock.touch(self.deriver.indexes(item))

    def insert_many(self, items, times=None) -> None:
        """Insert a batch of items through the batch engine.

        ``items`` may be an integer key array (fully vectorised
        hashing) or any sequence of hashable stream items. ``times`` is
        required for time-based windows and must be non-decreasing.
        The final state is bit-identical to the equivalent loop of
        :meth:`insert` calls on the exact sweep modes; with a deferred
        cleaner, inserts are chunk-vectorised under that mode's relaxed
        window guarantee.
        """
        self.engine.ingest_touch(self.deriver.bulk_items(items), times,
                                 items=items)

    def contains(self, item, t=None) -> bool:
        """Is the item's batch active? (May false-positive, never false-negative
        within the window guarantee.)"""
        now = self._query_time(t)
        self.clock.advance(now)
        return self.clock.are_nonzero(self.deriver.indexes(item))

    def contains_many(self, items, t=None) -> np.ndarray:
        """Vectorised :meth:`contains` over a batch of items."""
        now = self._query_time(t)
        self.clock.advance(now)
        index_matrix = self.deriver.bulk_items(items)
        return np.all(self.clock.values[index_matrix] > 0, axis=1)

    def query(self, item, t=None) -> bool:
        """Scalar query alias: activeness of one item (see :meth:`contains`)."""
        return self.contains(item, t)

    def query_many(self, items, t=None) -> np.ndarray:
        """Batch query alias: activeness per item (see :meth:`contains_many`)."""
        return self.contains_many(items, t)

    def snapshot(self) -> "ClockBloomFilter":
        """Deep copy of the current state (cells, cleaner, bookkeeping).

        The copy is detached: mutating either sketch never affects the
        other. Shard routers snapshot one replica and :meth:`merge` the
        rest into it to build a global view.
        """
        clone = ClockBloomFilter(n=self.n, k=self.k, s=self.s,
                                 window=self.window, seed=self.seed,
                                 sweep_mode=self.clock.sweep_mode)
        self._copy_state_into(clone)
        return clone

    def merge(self, other: "ClockBloomFilter") -> "ClockBloomFilter":
        """Fold another filter in: the Bloom union (element-wise clock max).

        With clock cells, the classic bit-OR becomes an element-wise
        max — a cell is live in the union iff it is live on either
        side, and its remaining lifetime is its newest writer's. Both
        sketches must share a configuration and a cleaning-pointer
        position (synchronise to a common stream time first). Returns
        ``self``.

        Examples
        --------
        >>> from repro import time_window
        >>> w = time_window(100.0)
        >>> f1 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
        >>> f2 = ClockBloomFilter(n=256, k=3, s=2, window=w, seed=5)
        >>> f1.insert("left", t=1.0); f2.insert("right", t=2.0)
        >>> f1.contains("right", t=3.0); f2.contains("right", t=3.0)
        False
        True
        >>> merged = f1.merge(f2)
        >>> merged.contains("left"), merged.contains("right")
        (True, True)
        """
        self._merge_check(other, ("n", "k", "s", "window", "seed"))
        self._merge_commit(other)
        return self

    def memory_bits(self) -> int:
        """Accounted footprint in bits (clock cells only, per §4.1)."""
        return self.clock.memory_bits()

    def metrics(self) -> dict:
        """Operational snapshot; publishes gauges while obs is enabled."""
        fill = self.clock.fill_ratio()
        if _obs.ENABLED:
            name = type(self).__name__
            _obs.publish_sketch(name, self.memory_bits(), fill)
            _obs.sample_clock(self.clock, labels={"sketch": name})
        return {
            "task": "activeness",
            "sketch": type(self).__name__,
            "memory_bits": self.memory_bits(),
            "items_inserted": self.items_inserted,
            "fill_ratio": fill,
            "k": self.k,
            "s": self.s,
            "sweep": self.clock.sweep_telemetry(),
        }

    def __repr__(self) -> str:
        return (
            f"ClockBloomFilter(n={self.n}, k={self.k}, s={self.s}, "
            f"window={self.window})"
        )


def snapshot_membership(
    keys: np.ndarray,
    times: "np.ndarray | None",
    query_keys: np.ndarray,
    t_query: float,
    n: int,
    k: int,
    s: int,
    window: WindowSpec,
    seed: int = 0,
) -> np.ndarray:
    """Closed-form BF+clock membership after a whole stream.

    Inserts ``keys`` (count-based: ``times`` None, item ``i`` arrives at
    ``i + 1``; time-based: ``times`` aligned with ``keys``) and returns
    a boolean array: for each query key, whether the filter would report
    it active at ``t_query``. Exactly matches the incremental
    :class:`ClockBloomFilter` on the same inputs.
    """
    keys = np.asarray(keys, dtype=np.int64)
    deriver = IndexDeriver(n=n, k=k, seed=seed)
    probe = ClockArray(n, s, window)  # used only for its step arithmetic
    max_value = probe.max_value

    if times is None:
        insert_times = np.arange(1, len(keys) + 1, dtype=np.int64)
        set_steps_per_item = (
            insert_times * np.int64(n) * np.int64(probe.circles_per_window)
        ) // np.int64(int(window.length))
    else:
        times = np.asarray(times, dtype=float)
        set_steps_per_item = np.floor(
            times * n * probe.circles_per_window / window.length
        ).astype(np.int64)
    query_steps = probe.total_steps_at(t_query)

    index_matrix = deriver.bulk(keys)  # (N, k)
    last_set = np.full(n, -1, dtype=np.int64)
    flat_cells = index_matrix.ravel()
    flat_steps = np.repeat(set_steps_per_item, k)
    np.maximum.at(last_set, flat_cells, flat_steps)

    values = np.zeros(n, dtype=np.int64)
    touched = np.flatnonzero(last_set >= 0)
    values[touched] = probe.kernels.snapshot_values(
        last_set[touched], touched, n, max_value, query_steps
    )

    query_matrix = deriver.bulk(np.asarray(query_keys, dtype=np.int64))
    return np.all(values[query_matrix] > 0, axis=1)
