"""In-memory span recorders around the public entry points of each layer.

The traced server process calls :func:`install` before it builds the
service. Every wrapped call records one span: layer, start, end and the
span that caused it, on the thread CPU clock, so layer self times are
directly comparable with the process CPU time and the layer sum can be
checked against it. Self time is a span's duration minus the time its
child spans cover. Totals are kept online; the first :data:`KEEP_SPANS`
raw spans are kept in memory and written out when the traced window ends.

Layer names follow the stage vocabulary (``decode``, ``admit``,
``hash``, ``index``, ``clock``, ``encode``), extended with the modules
that have no stage name (``monitor``, ``shard``, ``query``,
``checkpoint``). Nothing under ``src/`` is modified: wrappers are
installed on classes and module attributes at run time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Raw spans kept in memory per traced window; totals count every span.
KEEP_SPANS = 100_000

#: Every layer whose self time is reported (``<layer>.self_s``).
LAYERS = (
    "decode", "encode", "admit", "monitor.observe", "monitor.report",
    "shard.route", "shard.merge", "hash.bulk", "hash.route", "hash.scalar",
    "index", "clock.engine", "clock.kernel", "query.core",
    "checkpoint.write", "checkpoint.serialize", "checkpoint.restore",
    "checkpoint.load",
)


class _Frame:
    __slots__ = ("layer", "start", "child_ns", "span_id", "parent_id",
                 "request", "flag")

    def __init__(self, layer: str, start: int, span_id: int,
                 parent_id: int, request: int) -> None:
        self.layer = layer
        self.start = start
        self.child_ns = 0
        self.span_id = span_id
        self.parent_id = parent_id
        self.request = request
        self.flag = False


class SpanRecorder:
    """Records nested spans and per-layer totals while active.

    ``request`` is the id of the frame being served: it advances on
    every ``decode`` span, and each span carries the id current when it
    began, so the spans of one request share it. Sketch work runs
    inline on the event loop between two awaits, so the spans of
    concurrent connections never interleave.
    """

    def __init__(self) -> None:
        self.active = False
        self.reset()

    def reset(self) -> None:
        self._stack: List[_Frame] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.span_count = 0
        self.malformed = 0
        self.request = 0
        self.route_depth = 0

    # -- span bookkeeping ---------------------------------------------

    def enter(self, layer: str) -> _Frame:
        stack = self._stack
        parent = stack[-1].span_id if stack else -1
        self.span_count += 1
        frame = _Frame(layer, time.thread_time_ns(), self.span_count,
                       parent, self.request)
        stack.append(frame)
        return frame

    def leave(self, frame: _Frame) -> None:
        end = time.thread_time_ns()
        stack = self._stack
        duration = end - frame.start
        if not stack or stack[-1] is not frame or frame.child_ns > duration:
            # A child outside its parent's interval, or a span closed
            # out of order: the tree is not well formed.
            self.malformed += 1
            if frame in stack:
                del stack[stack.index(frame):]
        else:
            stack.pop()
        self.self_ns[frame.layer] += duration - frame.child_ns
        if stack:
            stack[-1].child_ns += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame.span_id, frame.parent_id, frame.layer,
                               frame.start, end, frame.request))

    def mark_parent(self, layer: str, skip: int = 0) -> None:
        """Flag the innermost open span, past the ``skip`` innermost
        ones, if it belongs to ``layer``."""
        stack = self._stack
        if len(stack) > skip and stack[-1 - skip].layer == layer:
            stack[-1 - skip].flag = True

    def begin(self) -> None:
        self.reset()
        self.active = True

    def end(self) -> None:
        self.active = False
        # Spans still open when the window closes never finished.
        self.malformed += len(self._stack)
        self._stack = []

    def dump(self, path: str) -> None:
        """Write the kept raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "fields": ["id", "parent", "layer", "start_ns", "end_ns",
                           "request"],
                "clock": "thread_time_ns", "kept": len(self.spans),
                "total": self.span_count}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: "str | Callable[[], str]", fn: Callable,
             on_enter: "Optional[Callable[..., None]]" = None,
             on_exit: "Optional[Callable[..., None]]" = None) -> Callable:
        """A span-recording twin of ``fn``.

        ``layer`` may be a callable resolving the layer at call time.
        ``on_enter(args)`` runs after the span opens, ``on_exit(frame,
        args, result, failed)`` after the call returns or raises.
        """
        rec = self
        resolve = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            frame = rec.enter(resolve() if resolve else layer)
            if on_enter is not None:
                on_enter(args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_exit is not None:
                    on_exit(frame, args, None, True)
                rec.leave(frame)
                raise
            if on_exit is not None:
                on_exit(frame, args, result, False)
            rec.leave(frame)
            return result

        return wrapper

    def marker(self, fn: Callable, before: Callable[[], None],
               after: "Optional[Callable[[], None]]" = None) -> Callable:
        """Run ``before``/``after`` around ``fn`` without opening a span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.active:
                return fn(*args, **kwargs)
            before()
            try:
                return fn(*args, **kwargs)
            finally:
                if after is not None:
                    after()

        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "malformed": self.malformed,
        }


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary of the served ingest path.

    Each line names the public functions wrapped for a layer; the
    counters kept alongside are the layer's work counts.
    """
    from repro.core import (ClockBitmap, ClockBloomFilter, ClockCountMin,
                            ClockTimeSpanSketch)
    from repro.core.clockarray import ClockArray
    from repro.engine.batch import BatchEngine
    from repro.hashing import indexing
    from repro.hashing.indexing import IndexDeriver
    from repro.hashing.sharding import ShardSelector
    from repro.kernels import get_default_backend
    from repro.monitor import ItemBatchMonitor
    from repro.serve import checkpoint, protocol
    from repro.serve.checkpoint import CheckpointManager
    from repro.serve.tenants import Tenant, TenantManager
    from repro.shard.router import ShardedSketch

    def count(name: str, amount: int = 1) -> None:
        rec.counts[name] += amount

    # decode / encode: the wire codec.
    def decode_enter(args: tuple) -> None:
        rec.request += 1
        # The decode span belongs to the request it opens.
        rec._stack[-1].request = rec.request

    def decode_exit(frame: _Frame, args: tuple, result: Any,
                    failed: bool) -> None:
        count("decode.frames")
        if failed:
            count("decode.failed")

    protocol.parse_frame = rec.wrap(
        "decode", protocol.parse_frame, decode_enter, decode_exit)
    protocol.encode = rec.wrap(
        "encode", protocol.encode,
        on_exit=lambda f, a, r, failed: count("encode.frames"))

    # admit: tenant lookup/creation and the tenant-level gate around the
    # monitor (time validation, batch cap, quarantine). Tenant.query is
    # the same gate on the read side.
    def admit_exit(frame: _Frame, args: tuple, result: Any,
                   failed: bool) -> None:
        if failed:
            count("admit.rejected")

    for owner, name in ((TenantManager, "get"), (Tenant, "ingest"),
                        (Tenant, "query")):
        setattr(owner, name, rec.wrap("admit", getattr(owner, name),
                                     on_exit=admit_exit))

    # monitor: the four-task facade.
    ItemBatchMonitor.observe_many = rec.wrap(
        "monitor.observe", ItemBatchMonitor.observe_many)
    ItemBatchMonitor.report = rec.wrap(
        "monitor.report", ItemBatchMonitor.report,
        on_exit=lambda f, a, r, failed: count("monitor.report.calls"))

    # shard: scatter by shard hash, and the merged query view. A merge
    # call that snapshots no replica was answered from the cache.
    ShardedSketch.insert_many = rec.wrap(
        "shard.route", ShardedSketch.insert_many)

    def merge_exit(frame: _Frame, args: tuple, result: Any,
                   failed: bool) -> None:
        count("shard.merge.calls")
        if not frame.flag:
            count("shard.merge.hits")

    ShardedSketch.merged = rec.wrap(
        "shard.merge", ShardedSketch.merged, on_exit=merge_exit)
    for cls in (ClockBloomFilter, ClockBitmap, ClockCountMin,
                ClockTimeSpanSketch):
        cls.snapshot = rec.marker(
            cls.snapshot, lambda: rec.mark_parent("shard.merge"))

    # hash: bulk base hashes under a sketch, the same function under
    # shard routing, and the scalar per-key path queries take.
    def enter_route() -> None:
        rec.route_depth += 1

    def leave_route() -> None:
        rec.route_depth -= 1

    ShardSelector.shards_of = rec.marker(
        ShardSelector.shards_of, enter_route, leave_route)

    def hash_layer() -> str:
        return "hash.route" if rec.route_depth else "hash.bulk"

    def bulk_exit(frame: _Frame, args: tuple, result: Any,
                  failed: bool) -> None:
        if frame.layer == "hash.bulk" and result is not None:
            count("hash.bulk.items", len(result))

    IndexDeriver.base_hashes_many = rec.wrap(
        hash_layer, IndexDeriver.base_hashes_many, on_exit=bulk_exit)
    IndexDeriver.indexes = rec.wrap(
        "hash.scalar", IndexDeriver.indexes,
        on_exit=lambda f, a, r, failed: count("hash.scalar.calls"))

    # index: double hashing from base hashes to cell indexes.
    def index_exit(frame: _Frame, args: tuple, result: Any,
                   failed: bool) -> None:
        if result is not None:
            count("index.rows", len(result))

    for name in ("derive_index_matrix", "derive_index_single"):
        setattr(indexing, name, rec.wrap("index", getattr(indexing, name),
                                        on_exit=index_exit))

    # clock: the batch engine (commit included — it has no public
    # boundary of its own) and the numeric kernels below it. A batch
    # with no fuse_* child ran the per-item loop.
    def engine_exit(frame: _Frame, args: tuple, result: Any,
                    failed: bool) -> None:
        count("clock.items", len(args[1]))
        count("clock.batches")
        if not frame.flag:
            count("clock.loop_batches")

    for name in ("ingest_touch", "ingest_timespan", "ingest_countmin"):
        setattr(BatchEngine, name, rec.wrap(
            "clock.engine", getattr(BatchEngine, name), on_exit=engine_exit))

    backend_cls = type(get_default_backend())
    for name in ("fuse_touch", "fuse_timespan", "fuse_countmin"):
        setattr(backend_cls, name, rec.wrap(
            "clock.kernel", getattr(backend_cls, name),
            on_enter=lambda args: rec.mark_parent("clock.engine", 1)))
    ClockArray.step_targets = rec.wrap(
        "clock.kernel", ClockArray.step_targets)

    # query: point queries on the four core sketches.
    for cls, names in ((ClockBloomFilter, ("contains", "query")),
                       (ClockBitmap, ("query",)),
                       (ClockCountMin, ("query",)),
                       (ClockTimeSpanSketch, ("query",))):
        for name in names:
            setattr(cls, name, rec.wrap("query.core", getattr(cls, name)))

    # checkpoint: archive writes and restores, and the per-task
    # (de)serialisation inside them.
    CheckpointManager.write = rec.wrap(
        "checkpoint.write", CheckpointManager.write)
    CheckpointManager.restore = rec.wrap(
        "checkpoint.restore", CheckpointManager.restore)

    def serialize_exit(frame: _Frame, args: tuple, result: Any,
                       failed: bool) -> None:
        if result is not None:
            count("checkpoint.bytes", len(result))

    checkpoint.dumps_sketch = rec.wrap(
        "checkpoint.serialize", checkpoint.dumps_sketch,
        on_exit=serialize_exit)
    checkpoint.loads_sketch = rec.wrap(
        "checkpoint.load", checkpoint.loads_sketch)
