"""Multiprocessing worker pool for sharded ingestion.

Each shard's replica lives in a dedicated worker process that owns the
shard's cells: the replica's :class:`~repro.core.clockarray.ClockArray`
buffer (and its side arrays — timestamps, counters) are numpy views
over a ``multiprocessing.shared_memory`` block, so the parent process
can *read* the shard's state for merged queries without copying, while
the worker is the sole *writer*. Workers drain ``insert_many`` chunks
from a bounded command queue (back-pressure raises
:class:`~repro.errors.ShardBackpressureError` instead of buffering
unboundedly) and acknowledge every command on a shared ack queue; a
barrier simply waits until every dispatched command is acknowledged,
then adopts each worker's cleaner position from a small shared control
record. A worker that raises (or dies) surfaces as a
:class:`~repro.errors.ShardWorkerError` carrying the partial-result
picture — never a hang.

Time is injectable (``time_source``) exactly as in
:class:`repro.concurrent.BackgroundCleaner`, so the deadline logic is
deterministically testable.
"""

from __future__ import annotations

import queue as queue_mod
import time
from contextlib import nullcontext
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Any, NamedTuple

import numpy as np

from ..errors import ShardBackpressureError, ShardWorkerError
from ..obs import names
from ..obs import runtime as _obs
from ..obs import trace as _trace
from ..serialize import dumps_sketch, loads_sketch

__all__ = ["ProcessShardRouter", "shared_layout"]

#: Bytes reserved at the front of each shard's block for the control
#: record: int64 steps_done, int64 items_inserted, float64 now.
_CONTROL_BYTES = 24

#: Default bound on each worker's command queue (commands, not items).
DEFAULT_QUEUE_CAPACITY = 16

#: Default seconds a dispatch/barrier may wait before declaring
#: back-pressure or a dead worker.
DEFAULT_TIMEOUT = 30.0

#: Real-time seconds per blocking poll step; the *deadline* arithmetic
#: runs on the injectable time source, this only bounds each syscall.
_POLL_INTERVAL = 0.05


class SharedLayout(NamedTuple):
    """Byte layout of one shard's shared-memory block (picklable)."""

    total: int
    #: ``(attribute, dtype string, length, byte offset)`` per array;
    #: the clock buffer uses the pseudo-attribute ``"clock_values"``.
    arrays: "tuple[tuple[str, str, int, int], ...]"


def shared_layout(sketch: Any) -> SharedLayout:
    """Compute the shared block layout for one replica's mutable arrays."""
    arrays: "list[tuple[str, str, int, int]]" = []
    offset = _CONTROL_BYTES

    def add(name: str, arr: np.ndarray) -> None:
        nonlocal offset
        offset = -(-offset // 8) * 8  # 8-byte-align every array
        arrays.append((name, arr.dtype.str, int(arr.shape[0]), offset))
        offset += arr.nbytes

    add("clock_values", sketch.clock.values)
    timestamps = getattr(sketch, "timestamps", None)
    if timestamps is not None:
        add("timestamps", timestamps)
    counters = getattr(sketch, "counters", None)
    if counters is not None:
        add("counters", counters)
    return SharedLayout(total=offset, arrays=tuple(arrays))


def _bind_shared(sketch: Any, buf: Any, layout: SharedLayout) -> None:
    """Point a replica's mutable arrays into a shared-memory block.

    The current contents are copied into the block first (binding is
    state-preserving), the clock buffer through the validating
    :meth:`~repro.core.clockarray.ClockArray.bind_buffer`.
    """
    for attr, dtype, length, offset in layout.arrays:
        view = np.ndarray((length,), dtype=np.dtype(dtype), buffer=buf,
                          offset=offset)
        if attr == "clock_values":
            sketch.clock.bind_buffer(view)
        else:
            view[:] = getattr(sketch, attr)
            setattr(sketch, attr, view)


def _unbind_shared(sketch: Any, layout: SharedLayout) -> None:
    """Detach a replica from shared memory, keeping a private copy."""
    for attr, dtype, length, _offset in layout.arrays:
        if attr == "clock_values":
            private = np.zeros(length, dtype=np.dtype(dtype))
            sketch.clock.bind_buffer(private)
        else:
            setattr(sketch, attr, np.array(getattr(sketch, attr)))


def _close_shm(shm: shared_memory.SharedMemory) -> None:
    """Close a shared block, tolerating exported buffer views.

    A ``BufferError`` here means a numpy view over the block is still
    alive; the mapping is reclaimed when the process exits, so on this
    shutdown path tolerating it is safe (and the only option).
    """
    try:
        shm.close()
    except BufferError:
        pass


def _control_views(buf: Any) -> "tuple[np.ndarray, np.ndarray]":
    ints = np.ndarray((2,), dtype=np.int64, buffer=buf, offset=0)
    now = np.ndarray((1,), dtype=np.float64, buffer=buf, offset=16)
    return ints, now


def _write_control(buf: Any, sketch: Any) -> None:
    ints, now = _control_views(buf)
    ints[0] = sketch.clock.steps_done
    ints[1] = sketch.items_inserted
    now[0] = sketch.clock.now


def _read_control(buf: Any) -> "tuple[int, int, float]":
    ints, now = _control_views(buf)
    return int(ints[0]), int(ints[1]), float(now[0])


def _command_ctx(op: str, command: "tuple[Any, ...]") -> Any:
    """The propagated span context riding on a command, if any.

    Only ingest/advance carry one (as their last element); older-style
    short tuples and the test-only fault hooks yield None.
    """
    if op == "ingest" and len(command) > 4:
        return command[4]
    if op == "advance" and len(command) > 4:
        return command[4]
    return None


def _shard_worker(shard: int, payload: bytes, shm_name: str,
                  layout: SharedLayout, commands: Any, acks: Any) -> None:
    """One shard's worker loop: rebuild the replica, drain commands.

    Command protocol (tuples): ``("ingest", seq, items, times, ctx)``,
    ``("advance", seq, now, flush, ctx)``, ``("stop", seq)``, plus the
    test-only fault hooks ``("stall", seq, seconds)`` and
    ``("crash", seq)``. Every command is acknowledged as
    ``(shard, seq, status, detail, spans)``; an exception acknowledges
    with ``status="error"`` and ends the worker.

    ``ctx`` is an optional propagated span context ``(trace_id,
    span_id)`` from the parent's scatter/merge span. When present, the
    command's handling runs under :func:`repro.obs.trace.capture`, so
    the worker's ingest/advance spans — recorded regardless of this
    process's switchboard — ride back in the ack's ``spans`` payload
    and get stitched into the parent's trace.
    """
    # Attaching re-registers the segment with the (shared, inherited)
    # resource tracker; that is a set-add no-op, and the parent — the
    # sole owner — unregisters it once at unlink(). No child-side
    # unregister, or the tracker sees a double-remove.
    shm = shared_memory.SharedMemory(name=shm_name)
    sketch = loads_sketch(payload)
    sketch._accepts_global_times = True
    # Resolve the kernel backend *in this process*: under spawn the
    # worker re-reads REPRO_KERNEL (and re-checks numba availability)
    # rather than inheriting whatever the parent pickled; every backend
    # writes cells through views, so shared-memory binding works under
    # numpy and numba alike.
    from ..kernels import resolve_backend

    sketch.clock.kernels = resolve_backend()
    _bind_shared(sketch, shm.buf, layout)
    _write_control(shm.buf, sketch)
    running = True
    while running:
        command = commands.get()
        op, seq = command[0], command[1]
        status, detail = "ok", ""
        spans: "list[dict[str, Any]]" = []
        ctx = _command_ctx(op, command)
        capture = (_trace.capture(ctx, spans) if ctx is not None
                   else nullcontext(spans))
        try:
            with capture:
                if op == "ingest":
                    with _trace.span(names.SPAN_SHARD_INGEST,
                                     shard=str(shard)) as sp:
                        sketch.insert_many(command[2], command[3])
                        if sp.recording:
                            sp.set("items", len(command[2]))
                elif op == "advance":
                    with _trace.span(names.SPAN_SHARD_ADVANCE,
                                     shard=str(shard)):
                        now, flush = float(command[2]), bool(command[3])
                        clock = sketch.clock
                        if now > clock.now:
                            clock.advance(now)
                        if flush and clock.is_deferred:
                            clock.flush()
                        if now > sketch._now:
                            sketch._now = now
                elif op == "stall":
                    time.sleep(float(command[2]))
                elif op == "crash":
                    raise RuntimeError("injected worker crash")
                elif op == "stop":
                    running = False
                else:
                    raise ValueError(f"unknown shard command {op!r}")
        except BaseException as exc:  # surface, acknowledge, stop
            status = "error"
            detail = f"{type(exc).__name__}: {exc}"
            running = False
        _write_control(shm.buf, sketch)
        acks.put((shard, seq, status, detail, spans))
    del sketch  # drop the replica's views over the shared block first
    _close_shm(shm)


class ProcessShardRouter:
    """Routes shard sub-batches to a pool of worker processes.

    Parameters
    ----------
    replicas:
        The parent-side replica sketches (read-only views once bound).
    queue_capacity:
        Bound on each worker's command queue; a full queue past
        ``timeout`` raises :class:`~repro.errors.ShardBackpressureError`.
    timeout:
        Seconds a dispatch or barrier waits before declaring failure.
    time_source:
        Clock used for deadlines (default ``time.monotonic``);
        injectable for deterministic tests.
    """

    kind = "process"

    def __init__(self, replicas: "list[Any]", *,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 timeout: float = DEFAULT_TIMEOUT,
                 time_source: Any = None) -> None:
        ctx = get_context()
        self.replicas = list(replicas)
        self.timeout = float(timeout)
        self._time = time_source if time_source is not None else time.monotonic
        self._acks = ctx.Queue()
        self._commands: "list[Any]" = []
        self._shms: "list[shared_memory.SharedMemory]" = []
        self._layouts: "list[SharedLayout]" = []
        self._procs: "list[Any]" = []
        self._pending: "list[list[int]]" = [[] for _ in self.replicas]
        self._failed: "dict[int, str]" = {}
        self._seq = 0
        self._closed = False
        try:
            for shard, replica in enumerate(self.replicas):
                replica._accepts_global_times = True
                payload = dumps_sketch(replica)
                layout = shared_layout(replica)
                shm = shared_memory.SharedMemory(create=True,
                                                 size=layout.total)
                self._shms.append(shm)
                self._layouts.append(layout)
                _bind_shared(replica, shm.buf, layout)
                commands = ctx.Queue(maxsize=int(queue_capacity))
                self._commands.append(commands)
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(shard, payload, shm.name, layout, commands,
                          self._acks),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _raise_failed(self) -> None:
        pending = {i: len(p) for i, p in enumerate(self._pending) if p}
        shards = ", ".join(f"{i} ({reason})"
                           for i, reason in sorted(self._failed.items()))
        raise ShardWorkerError(
            f"shard worker(s) failed: {shards}; "
            f"{sum(pending.values())} command(s) unacknowledged",
            failed=self._failed, pending=pending,
        )

    def _absorb_acks(self, block: bool = False) -> bool:
        """Pull available acks; returns True if any arrived."""
        got = False
        while True:
            try:
                if block and not got:
                    ack = self._acks.get(timeout=_POLL_INTERVAL)
                else:
                    ack = self._acks.get_nowait()
            except queue_mod.Empty:
                return got
            got = True
            shard, seq, status, detail, spans = ack
            if spans and _obs.ENABLED:
                _trace.record_spans(spans)
            try:
                self._pending[shard].remove(seq)
            except ValueError:
                # An ack for a command we never recorded as pending means
                # the seq bookkeeping diverged between parent and worker —
                # mark the shard failed so the next dispatch/barrier
                # surfaces it instead of silently dropping the ack.
                self._failed[shard] = (
                    f"protocol error: unexpected ack for command {seq}")
            if status != "ok":
                self._failed[shard] = detail

    def _dispatch(self, shard: int, command: "tuple[Any, ...]") -> None:
        if self._closed:
            raise ShardWorkerError("shard router is closed")
        if self._failed:
            self._raise_failed()
        self._seq += 1
        seq = self._seq
        full = (command[0], seq) + command[1:]
        deadline = self._time() + self.timeout
        commands = self._commands[shard]
        while True:
            try:
                commands.put(full, timeout=_POLL_INTERVAL)
                break
            except queue_mod.Full:
                self._absorb_acks()
                if self._failed:
                    self._raise_failed()
                if not self._procs[shard].is_alive():
                    self._failed[shard] = "worker process died"
                    self._raise_failed()
                if self._time() >= deadline:
                    raise ShardBackpressureError(
                        f"shard {shard} queue full for {self.timeout}s "
                        f"({len(self._pending[shard])} commands pending); "
                        "the stream is outrunning this worker"
                    )
        self._pending[shard].append(seq)
        self._absorb_acks()

    def ingest(self, shard: int, items: Any, times: np.ndarray,
               ctx: Any = None) -> None:
        """Queue one sub-batch for a shard's worker.

        ``ctx`` is an optional span context to propagate; the worker's
        ingest span comes back on the ack and joins the parent's trace.
        """
        self._dispatch(shard, ("ingest", items,
                               np.asarray(times, dtype=np.float64), ctx))

    def inject(self, shard: int, op: str, *payload: Any) -> None:
        """Send a raw protocol command (test hooks: ``stall``/``crash``)."""
        self._dispatch(shard, (op,) + payload)

    # ------------------------------------------------------------------
    # Barrier and parent-side sync
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Block until every dispatched command is acknowledged."""
        deadline = self._time() + self.timeout
        while any(self._pending):
            if self._absorb_acks(block=True):
                if self._failed:
                    self._raise_failed()
                continue
            if self._failed:
                self._raise_failed()
            for shard, pend in enumerate(self._pending):
                if pend and not self._procs[shard].is_alive():
                    self._failed[shard] = "worker process died"
            if self._failed:
                self._raise_failed()
            if self._time() >= deadline:
                pending = {i: len(p) for i, p in enumerate(self._pending)
                           if p}
                raise ShardWorkerError(
                    f"barrier timed out after {self.timeout}s with "
                    f"{sum(pending.values())} command(s) unacknowledged",
                    pending=pending,
                )
        if self._failed:
            self._raise_failed()

    def barrier(self, now: float, ctx: Any = None) -> None:
        """Advance every shard to ``now``, wait, adopt worker positions."""
        flush = len(self.replicas) > 1
        for shard in range(len(self.replicas)):
            self._dispatch(shard, ("advance", float(now), flush, ctx))
        with _trace.span(names.SPAN_SHARD_ACK):
            self.drain()
        self._sync_replicas()

    def _sync_replicas(self) -> None:
        for replica, shm in zip(self.replicas, self._shms):
            steps, items, now = _read_control(shm.buf)
            clock = replica.clock
            if now > clock.now or steps > clock.steps_done:
                clock.sync_state(max(now, clock.now), steps)
            replica._items_inserted = items
            if now > replica._now:
                replica._now = now

    def queue_depth(self, shard: int) -> int:
        """Commands currently pending in a shard's queue (best effort)."""
        try:
            return int(self._commands[shard].qsize())
        except (NotImplementedError, OSError):
            return len(self._pending[shard])

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop workers, detach replicas, release shared memory.

        Idempotent; replicas keep a private copy of their final state,
        so a closed sharded sketch remains queryable.
        """
        if self._closed:
            return
        self._closed = True
        for shard, commands in enumerate(self._commands):
            proc = self._procs[shard] if shard < len(self._procs) else None
            if proc is not None and proc.is_alive():
                self._seq += 1
                try:
                    commands.put(("stop", self._seq), timeout=_POLL_INTERVAL)
                except queue_mod.Full:
                    pass
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        self._sync_replicas()
        for replica, layout in zip(self.replicas, self._layouts):
            _unbind_shared(replica, layout)
        for commands in self._commands:
            commands.cancel_join_thread()
            commands.close()
        self._acks.cancel_join_thread()
        self._acks.close()
        for shm in self._shms:
            _close_shm(shm)
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shms = []

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
