#!/usr/bin/env python3
"""Distributed measurement via mergeable Clock-sketches (§7 future work).

Three workers each observe a disjoint, key-partitioned shard of the same
logical stream, as a Flink-style keyed pipeline would. At a query
barrier every worker's cleaner is synchronised to the same stream time
and their sketches are merged (``a.merge(b)``: element-wise clock max);
the union answers global activeness and cardinality queries without any
per-item coordination. ``ItemBatchMonitor.sharded`` runs that whole
topology: keyed routing, per-shard replicas, barrier and merge.

Run:  python examples/distributed_merge.py
"""

import numpy as np

from repro import ItemBatchMonitor, time_window
from repro.datasets import caida_like
from repro.streams import split_active_inactive

N_WORKERS = 3


def main() -> None:
    window = time_window(4096.0)
    stream = caida_like(n_items=60_000, window_hint=4096, seed=21)

    monitor = ItemBatchMonitor.sharded(
        window, memory="24KB", tasks=("activeness", "cardinality"),
        split={"activeness": 2, "cardinality": 1}, seed=7,
        shards=N_WORKERS)
    monitor.observe_many(stream.keys, stream.times)

    # The barrier: a query synchronises every worker to the latest
    # stream time and folds the workers' filters into one global view.
    barrier = float(stream.times[-1])
    merged_filter = monitor.activeness.merged(barrier)
    workers = monitor.activeness.replicas
    by_hand = workers[0].snapshot()
    for other in workers[1:]:
        by_hand.merge(other)
    assert np.array_equal(by_hand.clock.values, merged_filter.clock.values)

    active, _ = split_active_inactive(stream.keys, stream.times, barrier,
                                      window)
    rng = np.random.default_rng(0)
    sample = rng.choice(active, size=min(500, active.size), replace=False)
    found = sum(monitor.is_active(int(key)) for key in sample)
    print(f"{N_WORKERS} workers, {len(stream)} items routed by key "
          f"({[w.items_inserted for w in workers]} per worker)")
    print(f"merged activeness: {found}/{len(sample)} active keys found "
          "(no false negatives expected)")
    print(f"merged cardinality: estimated "
          f"{monitor.active_batches():.0f}, exact {active.size}")


if __name__ == "__main__":
    main()
