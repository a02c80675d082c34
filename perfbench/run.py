"""End-to-end and per-layer benchmark of the served ingest path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-str --seed 1 --seconds 18 --trace 0

The real ``repro.serve.IngestService`` runs in its own process
(``perfbench/server.py``); this process is a single-threaded closed-loop
load generator on at most two loopback connections. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the same session
against a server whose layer entry points are wrapped with span
recorders and prints the per-layer metrics. Every answer is checked
against an in-process reference monitor; a wrong answer fails the run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from client import (BenchError, Connection, ServerProcess,  # noqa: E402
                    closed_loop)
from tracing import LAYERS  # noqa: E402
from workloads import (WORKLOADS, QueryKeys, TenantStream,  # noqa: E402
                       Workload, build_streams, checkpoint_bytes,
                       query_bytes, tenant_config)

#: Share of ``--seconds`` spent on served ingest; the rest is the
#: direct (library) run of the same key stream.
SERVED_SHARE = 0.65
#: Served and direct ingest alternate in this many blocks each; after
#: each, a throwaway launch (set-up) or a relaunch on the checkpoint
#: directory (restore) is timed, so those samples span the run too.
BLOCKS = 16
#: Queries per tenant after the restart, checked against the reference.
RESTART_QUERIES = 40
#: Tail percentile of the ack latency over the run: the highest that
#: leaves at least ten samples beyond it on every workload at the parent
#: tree. Fixed, so that a speed change that changes the sample count
#: does not change which percentile a later run reports. The query tail
#: is per workload (``Workload.query_tail``).
ACK_TAIL = 90.0

END_TO_END = (
    ("items_per_s", "items/s"), ("direct_items_per_s", "items/s"),
    ("ack_p50_ms", "ms"), ("ack_tail_ms", "ms"),
    ("query_p50_us", "us"), ("query_tail_us", "us"),
    ("checkpoint_p50_ms", "ms"), ("setup_s", "s"), ("restore_s", "s"),
    ("rss_peak_mb", "MB"),
)

PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("decode.frames", "count"), ("decode.failed", "count"),
    ("encode.frames", "count"), ("admit.rejected", "count"),
    ("monitor.report.calls", "count"), ("shard.merge.calls", "count"),
    ("shard.merge.hit_ratio", "ratio"), ("hash.bulk.items", "count"),
    ("hash.scalar.calls", "count"), ("hash.memo_hit_ratio", "ratio"),
    ("index.rows", "count"), ("clock.items", "count"),
    ("clock.loop_share", "ratio"), ("checkpoint.bytes", "B"),
    ("server.cpu_s", "s"), ("server.idle_share", "ratio"),
    ("server.unexplained_s", "s"), ("client.busy_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    # Answer quality and failures: 0 on a healthy tree, so they are
    # reported here rather than as bounded end-to-end metrics.
    ("activeness_fpr", "ratio"), ("size_are", "ratio"),
    ("error_share", "ratio"),
    # Workload properties, for claims that rely on repeated keys.
    ("workload.frames", "count"), ("workload.items", "count"),
    ("workload.distinct_keys", "count"),
    ("workload.query_never_seen_share", "ratio"),
)
PER_LAYER_UNITS = dict(PER_LAYER)


class WrongAnswer(Exception):
    """A served answer differs from the reference."""


# ----------------------------------------------------------------------
# One served session: launch, timed phase, probes, stop, restart
# ----------------------------------------------------------------------


class Session:
    """The frames sent to one service instance and the answers to them."""

    def __init__(self, workload: Workload, seed: int,
                 streams: List[TenantStream]) -> None:
        self.workload = workload
        self.streams = streams
        self.pickers = [QueryKeys(workload, seed, i)
                        for i in range(len(streams))]
        self.next_frame = [0] * len(streams)
        self.next_checkpoint = [workload.checkpoint_every] * len(streams)
        #: Per tenant, in send order: (kind, argument, answer).
        self.log: List[List[Tuple[str, Any, Dict[str, Any]]]] = \
            [[] for _ in streams]
        self.latency: Dict[str, List[float]] = {
            "INSERT_BATCH": [], "QUERY": [], "CHECKPOINT": []}
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.timed_wall = 0.0
        self.timed_idle = 0.0
        self.block_rates: List[float] = []
        #: Per timed block: the median ack and query latency.
        self.block_p50: Dict[str, List[float]] = {"INSERT_BATCH": [],
                                                   "QUERY": []}
        #: Per timed block: the tail query latency and the query count.
        self.block_query_tail: List[float] = []
        self.block_queries: List[int] = []
        self.port = 0

    def record(self, op: Tuple[str, int, Any, bytes],
               answer: Dict[str, Any], latency: float,
               phase: str = "timed") -> None:
        """Log one answer; latency and items count in the timed phase."""
        kind, tenant, arg, _ = op
        self.attempted += 1
        if not answer.get("ok"):
            self.failed += 1
        self.log[tenant].append((kind, arg, answer))
        if phase == "timed":
            self.latency[kind].append(latency)
        if kind == "INSERT_BATCH" and phase == "timed" and answer.get("ok"):
            self.items += int(answer["count"])

    def insert_op(self, tenant: int) -> Tuple[str, int, Any, bytes]:
        j = self.next_frame[tenant]
        self.next_frame[tenant] += 1
        return ("INSERT_BATCH", tenant, j, self.streams[tenant].frame_bytes(j))

    def query_ops(self, tenant: int, count: int) -> List[Tuple]:
        """Queries for keys of the tenant's last frame and fresh keys."""
        stream = self.streams[tenant]
        frame = self.next_frame[tenant] - 1
        _, start, end = stream.span(frame)
        return [("QUERY", tenant, (wire, key, seen, frame),
                 query_bytes(stream.name, wire))
                for wire, key, seen in self.pickers[tenant].pick(
                    stream.keys[start:end], count)]

    def cycles(self, owned: List[int], until: Optional[int] = None):
        """The cycle of one connection over its tenants, endless or
        until each tenant's next frame is ``until``."""
        w = self.workload
        while until is None or self.next_frame[owned[0]] < until:
            for tenant in owned:
                yield self.insert_op(tenant)
                yield from self.query_ops(tenant, w.queries)
                stream = self.streams[tenant]
                position = stream.position_after(self.next_frame[tenant] - 1)
                if w.checkpoint_every and \
                        position >= self.next_checkpoint[tenant]:
                    while position >= self.next_checkpoint[tenant]:
                        self.next_checkpoint[tenant] += w.checkpoint_every
                    yield ("CHECKPOINT", tenant, None,
                           checkpoint_bytes(stream.name))

    def first_frames(self, server: ServerProcess,
                     record: bool = True) -> List[Dict[str, Any]]:
        """Each tenant's frame 0; returns the acks."""
        conn = Connection(server.port)
        try:
            answers = []
            for tenant, stream in enumerate(self.streams):
                op = ("INSERT_BATCH", tenant, 0, stream.frame_bytes(0))
                answer = conn.request(op[3])
                answers.append(answer)
                if record:
                    self.record(op, answer, 0.0, phase="setup")
        finally:
            conn.close()
        if record:
            self.next_frame = [1] * len(self.streams)
            self.port = server.port
        return answers

    def _drive(self, seconds: float, phase: str,
               until: Optional[int] = None) -> Dict[str, float]:
        """Every connection cycles over the tenants it owns."""
        w = self.workload
        per_conn = len(self.streams) // w.connections
        conns = [Connection(self.port) for _ in range(w.connections)]
        try:
            ops = [self.cycles(list(range(c * per_conn, (c + 1) * per_conn)),
                               until) for c in range(w.connections)]
            return closed_loop(conns, ops, seconds,
                               functools.partial(self.record, phase=phase))
        finally:
            for conn in conns:
                conn.close()

    def timed_phase(self, seconds: float) -> None:
        """One block of timed closed-loop traffic; blocks add up."""
        if not self.timed_wall:
            # The first timed cycle of every tenant checkpoints, so even
            # a short run measures one.
            self.next_checkpoint = [
                stream.position_after(j - 1)
                for stream, j in zip(self.streams, self.next_frame)]
        items = self.items
        before = {kind: len(self.latency[kind]) for kind in self.block_p50}
        loop = self._drive(seconds, "timed")
        self.timed_wall += loop["wall_s"]
        self.timed_idle += loop["wall_s"] * (1.0 - loop["busy_share"])
        self.block_rates.append((self.items - items) / loop["wall_s"])
        for kind, medians in self.block_p50.items():
            block = self.latency[kind][before[kind]:]
            if block:
                medians.append(statistics.median(block))
        queries = self.latency["QUERY"][before["QUERY"]:]
        if queries:
            self.block_query_tail.append(
                percentile(queries, self.workload.query_tail))
            self.block_queries.append(len(queries))

    @property
    def items_per_s(self) -> float:
        return second_worst(self.block_rates, higher_is_better=True)

    @property
    def busy_share(self) -> float:
        """Share of the timed wall time the generator was not waiting."""
        return 1.0 - self.timed_idle / self.timed_wall

    def warmup(self) -> None:
        """Untimed warm-up cycles, then the accuracy probe queries.

        Both end at a fixed stream position, so their answers depend on
        the seed alone.
        """
        w = self.workload
        self._drive(float("inf"), "warmup", until=w.warmup_frames)
        ops = [op for tenant in range(len(self.streams))
               for op in self.query_ops(tenant, w.probe_queries)]
        conn = Connection(self.port)
        try:
            closed_loop([conn], [iter(ops)], float("inf"),
                        functools.partial(self.record, phase="warmup"))
        finally:
            conn.close()

    def restart_queries(self, server: ServerProcess,
                        ) -> List[Tuple[int, Any, Dict[str, Any]]]:
        """Query every tenant after a restart; (tenant, arg, answer)."""
        answers = []
        conn = Connection(server.port)
        try:
            for tenant in range(len(self.streams)):
                for op in self.query_ops(tenant, RESTART_QUERIES):
                    answers.append((tenant, op[2], conn.request(op[3])))
        finally:
            conn.close()
        return answers


def server_spec(workload: Workload, checkpoint_dir: Optional[str],
                trace: bool = False, from_start: bool = False
                ) -> Dict[str, Any]:
    meta = tenant_config(workload).to_meta()
    return {"tenants": {name: meta for name in workload.tenants},
            "checkpoint_dir": checkpoint_dir, "trace": trace,
            "trace_from_start": from_start}


def setup_once(workload: Workload, session: Session, work: str,
               label: str) -> Tuple[float, List[Dict[str, Any]]]:
    """Launch-to-first-ack time of a throwaway instance, and its acks."""
    server = ServerProcess(ROOT, work, server_spec(workload, None), label)
    try:
        acks = session.first_frames(server, record=False)
        took = time.perf_counter() - server.started
        server.stop()
    finally:
        server.kill()
    return took, acks


def restore_once(workload: Workload, session: Session, work: str,
                 checkpoint_dir: str, label: str, queries: bool = False,
                 trace: bool = False
                 ) -> Tuple[float, List[Tuple], Dict[str, Any]]:
    """Relaunch on the checkpoint directory.

    Returns the time from launch to the answer of a first query with
    every tenant restored, then (if asked) the answers to the restart
    queries and, traced, the span summary of the instance's life.
    """
    answers: List[Tuple] = []
    summary: Dict[str, Any] = {}
    spec = server_spec(workload, checkpoint_dir, trace, from_start=trace)
    server = ServerProcess(ROOT, work, spec, label)
    try:
        expected = {name: "restored" for name in workload.tenants}
        if server.restore_outcomes != expected:
            raise WrongAnswer(
                f"workload {workload.name}: restart restored "
                f"{server.restore_outcomes}, expected {expected}")
        conn = Connection(server.port)
        try:
            first = conn.request(query_bytes(workload.tenants[0], "probe"))
        finally:
            conn.close()
        took = time.perf_counter() - server.started
        if not first.get("ok"):
            raise WrongAnswer(f"workload {workload.name}: first query "
                              f"after restart failed: {first}")
        if queries:
            answers = session.restart_queries(server)
        if trace:
            summary = json.loads(server.command(
                "END " + os.path.join(work, "spans-restore.jsonl"), "END"))
        server.stop()
    finally:
        server.kill()
    return took, answers, summary


# ----------------------------------------------------------------------
# Correctness: replay every accepted frame into a reference monitor
# ----------------------------------------------------------------------


def _wire_report(report: Any) -> Dict[str, Any]:
    from repro.serve import protocol

    fields = {"key": report.key, "active": report.active,
              "size": report.size, "span": report.span,
              "begin": report.begin}
    return json.loads(protocol.encode(protocol.ok_response("QUERY", **fields)))


def _barrier(monitor: Any) -> None:
    """What a checkpoint does to live state: serialise every task."""
    from repro.serialize import dumps_sketch

    for sketch in (monitor.activeness, monitor.cardinality,
                   monitor.size_sketch, monitor.span_sketch):
        if sketch is not None:
            dumps_sketch(sketch)


class ReferenceCheck:
    """Replays a session into reference monitors; raises on a mismatch.

    Each tenant's reference is built with the tenant's own
    ``TenantConfig.build_monitor()``. :meth:`advance` replays what the
    session logged since the last call, so the replay can run between
    timed blocks; :meth:`finish` checks the restart and set-up answers.
    Accuracy is scored against ``BatchTracker`` ground truth on the
    queries sent before the timed phase. ``extra_key`` corrupts the
    reference with one extra key (the check must then fail).
    """

    def __init__(self, workload: Workload, session: Session,
                 extra_key: bool = False) -> None:
        from repro.streams.groundtruth import BatchTracker
        from repro.timebase import time_window

        self.workload = workload
        self.session = session
        config = tenant_config(workload)
        self.references = [config.build_monitor() for _ in session.streams]
        if extra_key:
            self.references[0].observe_many(
                ["corrupt"], np.ones(1) if workload.has_times else None)
        # A count window of length T is a time window of length T over
        # item numbers.
        self.truth = [BatchTracker(time_window(config.window_length))
                      for _ in session.streams]
        self.seen_ids: List[Optional[np.ndarray]] = [None] * len(self.truth)
        self.replayed = [0] * len(self.truth)
        self.items = [0] * len(self.truth)
        self.never_seen = self.false_positives = 0
        self.errors: List[float] = []

    def advance(self) -> None:
        for tenant, stream in enumerate(self.session.streams):
            log = self.session.log[tenant]
            if self.seen_ids[tenant] is None:
                # Ground truth only for the keys queried as seen before
                # the timed phase; all of them are logged by now.
                self.seen_ids[tenant] = np.array(sorted(
                    {arg[1] for kind, arg, _ in log
                     if kind == "QUERY" and arg[2]}), dtype=np.int64)
            for entry in log[self.replayed[tenant]:]:
                self._replay(tenant, stream, *entry)
            self.replayed[tenant] = len(log)

    def _replay(self, tenant: int, stream: TenantStream, kind: str,
                arg: Any, answer: Dict[str, Any]) -> None:
        reference = self.references[tenant]
        where = f"workload {self.workload.name}, tenant {stream.name}"
        if not answer.get("ok"):
            raise WrongAnswer(f"{where}: {kind} failed: {answer}")
        if kind == "INSERT_BATCH":
            keys, times = stream.frame(arg)
            reference.observe_many(keys, times)
            position = reference.activeness.now
            if answer["count"] != len(keys) or answer["position"] != position:
                raise WrongAnswer(
                    f"{where}: ack of frame {arg} (first key {keys[0]!r}) is "
                    f"count={answer['count']} position={answer['position']},"
                    f" reference count={len(keys)} position={position}")
            _, start, end = stream.span(arg)
            raw = stream.keys[start:end]
            hit = np.nonzero(np.isin(raw, self.seen_ids[tenant]))[0]
            stamps = hit + self.items[tenant] + 1.0 if times is None \
                else times[hit]
            for key, t in zip(raw[hit].tolist(), stamps.tolist()):
                self.truth[tenant].observe(key, t)
            self.items[tenant] += len(keys)
        elif kind == "QUERY":
            wire, key, seen, frame = arg
            expected = _wire_report(reference.report(wire))
            if answer != expected:
                raise WrongAnswer(f"{where}: QUERY for key {wire!r} answered "
                                  f"{answer}, reference {expected}")
            if frame >= self.workload.warmup_frames:
                return  # a timed-phase query: its state depends on speed
            if not seen:
                self.never_seen += 1
                self.false_positives += bool(answer["active"])
                return
            true_size = self.truth[tenant].size(key,
                                                now=reference.activeness.now)
            if true_size:
                served = answer["size"] or 0
                self.errors.append(abs(served - true_size) / true_size)
        else:
            _barrier(reference)
            if answer["position"] != reference.activeness.now:
                raise WrongAnswer(
                    f"{where}: CHECKPOINT position {answer['position']} != "
                    f"reference {reference.activeness.now}")

    def finish(self, setup_acks: List[List[Dict[str, Any]]],
               restart: List[Tuple]) -> Dict[str, float]:
        """Check the rest; return the accuracy of the served answers:
        the share of never-seen queried keys reported active, and the
        mean relative error of ``size`` over queried keys whose batch
        is truly active."""
        self.advance()
        name = self.workload.name
        for reference in self.references:
            _barrier(reference)  # the final checkpoint at stop
        for tenant, arg, answer in restart:
            expected = _wire_report(self.references[tenant].report(arg[0]))
            if answer != expected:
                raise WrongAnswer(
                    f"workload {name}, tenant {self.workload.tenants[tenant]}"
                    f": after restart QUERY for key {arg[0]!r} answered "
                    f"{answer}, reference {expected}")
        for reference in self.references:
            reference.close()
        first = [log[0][2] for log in self.session.log]
        for acks in setup_acks:
            if acks != first:
                raise WrongAnswer(f"workload {name}: a set-up instance acked "
                                  f"{acks}, the measured instance {first}")
        errors = self.errors
        return {"activeness_fpr":
                self.false_positives / max(self.never_seen, 1),
                "size_are": statistics.fmean(errors) if errors else 0.0,
                "never_seen": float(self.never_seen),
                "sized": float(len(errors))}


# ----------------------------------------------------------------------
# Direct ingest: the same key stream through the library
# ----------------------------------------------------------------------


class DirectIngest:
    """``ItemBatchMonitor.observe_many`` over the same frames, in order.

    Frames are decoded to the lists the service would receive before
    the clock runs; only ``observe_many`` is timed. Calls to
    :meth:`run` continue the stream and add up.
    """

    def __init__(self, workload: Workload,
                 streams: List[TenantStream]) -> None:
        from repro.monitor import ItemBatchMonitor

        config = tenant_config(workload)
        self.streams = streams
        self.monitors = [ItemBatchMonitor(
            config.window(), memory=config.memory, tasks=config.tasks,
            split=dict(config.split) if config.split else None,
            seed=config.seed) for _ in streams]
        self.next_frame = 0
        self.items = 0
        self.seconds = 0.0
        self.block_rates: List[float] = []

    def run(self, seconds: float) -> None:
        spent = 0.0
        items = self.items
        while spent < seconds:
            j = self.next_frame
            self.next_frame += 8
            batch = [(m, s.frame(j + d)) for d in range(8)
                     for m, s in zip(self.monitors, self.streams)]
            started = time.perf_counter()
            for monitor, (keys, times) in batch:
                monitor.observe_many(keys, times)
            spent += time.perf_counter() - started
            self.items += sum(len(keys) for _, (keys, _) in batch)
        self.seconds += spent
        self.block_rates.append((self.items - items) / spent)

    @property
    def items_per_s(self) -> float:
        return second_worst(self.block_rates, higher_is_better=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def second_worst(values: List[float], higher_is_better: bool) -> float:
    """The second-worst of several samples spread over a run.

    On a shared host a stretch of the run either runs undisturbed or
    beside a busy neighbour, and runs differ mostly in how often. Every
    run sees the disturbed level, so its second-worst sample repeats
    from run to run where a median jumps between the two levels; one
    hiccup is ignored.
    """
    ordered = sorted(values, reverse=not higher_is_better)
    return ordered[min(1, len(ordered) - 1)]


def percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(pct / 100.0 *
                                                 (len(ordered) - 1)))))
    return ordered[rank]


def tail_note(count: int, pct: float, what: str) -> str:
    note = f"p{pct:g} of {count} {what}"
    if count * (1.0 - pct / 100.0) < 10:
        note += " (fewer than 10 beyond it)"
    return note


def workload_properties(session: Session) -> Dict[str, float]:
    frames = items = distinct = 0
    queries = never = 0
    for stream, log in zip(session.streams, session.log):
        seen = set()
        for kind, arg, _ in log:
            if kind == "INSERT_BATCH":
                _, start, end = stream.span(arg)
                seen.update(stream.keys[start:end].tolist())
                frames += 1
                items += end - start
            elif kind == "QUERY":
                queries += 1
                never += not arg[2]
        distinct += len(seen)
    return {
        "workload.frames": frames, "workload.items": items,
        "workload.distinct_keys": distinct,
        "workload.query_never_seen_share": never / queries if queries else 0.0,
        # Occurrences of a key already seen earlier in the run, per
        # tenant: the share a per-monitor hash memo can answer.
        "hash.memo_hit_ratio": 1.0 - distinct / items if items else 0.0,
    }


def host_facts(seed: int) -> Dict[str, Any]:
    """Facts two result sets must share to be comparable."""
    from repro.kernels import kernel_info

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"nproc": os.cpu_count(), "kernel": kernel_info(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "seed": seed}


def _layer_metrics(summaries: List[Dict[str, Any]]) -> Dict[str, float]:
    self_ns: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    cpu = wall = 0.0
    for summary in summaries:
        for layer, ns in summary["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + ns
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        cpu += summary["cpu_s"]
        wall += summary["wall_s"]
    out = {f"{layer}.self_s": self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    for name in ("decode.frames", "decode.failed", "encode.frames",
                 "admit.rejected", "monitor.report.calls",
                 "shard.merge.calls", "hash.bulk.items", "hash.scalar.calls",
                 "index.rows", "clock.items", "checkpoint.bytes"):
        out[name] = float(counts.get(name, 0))
    merges = counts.get("shard.merge.calls", 0)
    out["shard.merge.hit_ratio"] = \
        counts.get("shard.merge.hits", 0) / merges if merges else 0.0
    batches = counts.get("clock.batches", 0)
    out["clock.loop_share"] = \
        counts.get("clock.loop_batches", 0) / batches if batches else 0.0
    explained = sum(self_ns.values()) / 1e9
    out["server.cpu_s"] = cpu
    out["server.idle_share"] = 1.0 - cpu / wall
    out["server.unexplained_s"] = cpu - explained
    return out


def layer_sum_check(summaries: List[Dict[str, Any]]) -> None:
    """Span trees well formed; self times plus unexplained = CPU."""
    for summary in summaries:
        if summary["malformed"]:
            raise WrongAnswer(f"{summary['malformed']} spans lie outside "
                              "their parent span")
        explained = sum(summary["self_ns"].values()) / 1e9
        unexplained = summary["cpu_s"] - explained
        # Spans use the thread CPU clock, so they cannot exceed the
        # process CPU time (1 ms slack for clock reads at the edges).
        if unexplained < -1e-3 or \
                abs(explained + unexplained - summary["cpu_s"]) > 1e-9:
            raise WrongAnswer(f"layer self times {explained:.4f}s exceed "
                              f"server CPU {summary['cpu_s']:.4f}s")


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   work: str, corrupt: bool,
                   sessions: List[Session]) -> Tuple[Dict, Dict]:
    """Served ingest, restarts and direct ingest, untraced."""
    streams = build_streams(workload, seed)
    session = Session(workload, seed, streams)
    sessions.append(session)
    setup: List[float] = []
    setup_acks: List[List[Dict[str, Any]]] = []
    restore: List[float] = []
    checkpoints = os.path.join(work, "checkpoints")
    direct = DirectIngest(workload, streams)
    check = ReferenceCheck(workload, session, corrupt)
    server = ServerProcess(ROOT, work, server_spec(workload, checkpoints),
                           "main")
    try:
        session.first_frames(server)
        setup.append(time.perf_counter() - server.started)
        session.warmup()
        # Between served blocks the service idles (no frame is in
        # flight, so it takes no CPU) while this process runs direct
        # ingest, the reference replay and a launch sample.
        for block in range(BLOCKS):
            session.timed_phase(seconds * SERVED_SHARE / BLOCKS)
            direct.run(seconds * (1.0 - SERVED_SHARE) / BLOCKS)
            check.advance()
            if block % 2:
                restore.append(restore_once(workload, session, work,
                                            checkpoints, f"restore{block}")[0])
            else:
                took, acks = setup_once(workload, session, work,
                                        f"setup{block}")
                setup.append(took)
                setup_acks.append(acks)
        rss = server.stop()["rss_peak_mb"]
    finally:
        server.kill()
    took, restart, _ = restore_once(workload, session, work, checkpoints,
                                    "final", queries=True)
    restore.append(took)
    accuracy = check.finish(setup_acks, restart)
    ack = [x * 1e3 for x in session.latency["INSERT_BATCH"]]
    query = [x * 1e6 for x in session.latency["QUERY"]]
    ckpt = [x * 1e3 for x in session.latency["CHECKPOINT"]]
    metrics = {
        "items_per_s": session.items_per_s,
        "direct_items_per_s": direct.items_per_s,
        "ack_p50_ms": second_worst(session.block_p50["INSERT_BATCH"],
                                   higher_is_better=False) * 1e3,
        "ack_tail_ms": percentile(ack, ACK_TAIL),
        "query_p50_us": second_worst(session.block_p50["QUERY"],
                                     higher_is_better=False) * 1e6,
        "query_tail_us": second_worst(session.block_query_tail,
                                      higher_is_better=False) * 1e6,
        "checkpoint_p50_ms": statistics.median(ckpt),
        "setup_s": second_worst(setup, higher_is_better=False),
        "restore_s": second_worst(restore, higher_is_better=False),
        "rss_peak_mb": rss,
    }
    notes = {
        "ack_tail_ms": tail_note(len(ack), ACK_TAIL, "acks"),
        "ack_p50_ms": f"second-worst of {BLOCKS} block medians, "
                      f"{len(ack)} acks",
        "query_tail_us": f"second-worst of {BLOCKS} block tails, each the "
                         + tail_note(min(session.block_queries),
                                     workload.query_tail, "or more queries"),
        "query_p50_us": f"second-worst of {BLOCKS} block medians, "
                        f"{len(query)} queries",
        "checkpoint_p50_ms": f"{len(ckpt)} checkpoints",
        "setup_s": f"second-worst of {len(setup)} launches",
        "restore_s": f"second-worst of {len(restore)} relaunches",
        "items_per_s": f"second-worst of {BLOCKS} blocks, {session.items} "
                       f"items in {session.timed_wall:.2f}s",
        "direct_items_per_s": f"second-worst of {BLOCKS} blocks, "
                              f"{direct.items} items in {direct.seconds:.2f}s",
    }
    units = dict(END_TO_END)
    measured = {name: (metrics[name], units[name], notes.get(name, ""))
                for name, _ in END_TO_END}
    # Reported, but not end-to-end metrics of the contract: they are 0
    # on a healthy tree (see BENCHMARK.json per_layer).
    extra = _quality(session, accuracy)
    extra.update((name, (value, PER_LAYER_UNITS[name], ""))
                 for name, value in workload_properties(session).items())
    return measured, extra


def _quality(session: Session, accuracy: Dict[str, float]
             ) -> Dict[str, Tuple[float, str, str]]:
    return {
        "activeness_fpr": (accuracy["activeness_fpr"], "ratio",
                           f"{accuracy['never_seen']:.0f} never-seen keys"),
        "size_are": (accuracy["size_are"], "ratio",
                     f"{accuracy['sized']:.0f} truly active keys"),
        "error_share": (session.failed / session.attempted, "ratio",
                        f"{session.failed} of {session.attempted} frames"),
    }


def run_traced(workload: Workload, seed: int, seconds: float,
               work: str, corrupt: bool,
               sessions: List[Session]) -> Tuple[Dict, Dict]:
    """An untraced and a traced session, half the time each."""
    half = seconds / 2.0
    # Untraced baseline for the tracing overhead.
    plain = Session(workload, seed, build_streams(workload, seed))
    sessions.append(plain)
    server = ServerProcess(
        ROOT, work, server_spec(workload, os.path.join(work, "plain")),
        "plain")
    try:
        plain.first_frames(server)
        plain.warmup()
        plain.timed_phase(half)
        server.stop()
    finally:
        server.kill()

    session = Session(workload, seed, plain.streams)
    sessions.append(session)
    checkpoints = os.path.join(work, "checkpoints")
    server = ServerProcess(ROOT, work,
                           server_spec(workload, checkpoints, trace=True),
                           "traced")
    try:
        session.first_frames(server)
        server.command("BEGIN", "BEGUN")
        session.warmup()
        session.timed_phase(half)
        main = json.loads(server.command(
            "END " + os.path.join(work, "spans-main.jsonl"), "END"))
        server.stop()
    finally:
        server.kill()
    _, restart, restored = restore_once(workload, session, work,
                                        checkpoints, "restore", queries=True,
                                        trace=True)
    accuracy = ReferenceCheck(workload, session, corrupt).finish([], restart)
    summaries = [main, restored]
    layer_sum_check(summaries)
    metrics = _layer_metrics(summaries)
    metrics.update(workload_properties(session))
    metrics["client.busy_share"] = plain.busy_share
    metrics["trace.overhead_share"] = \
        1.0 - session.items_per_s / plain.items_per_s
    measured = {name: (value, PER_LAYER_UNITS[name], "")
                for name, value in metrics.items()}
    measured.update(_quality(session, accuracy))
    return measured, {}


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        corrupt_reference: bool = False
        ) -> Tuple[Dict[str, Any], List[str], Dict[str, float]]:
    """One benchmark run.

    Returns the result object, the report lines and every reported
    value by name. ``corrupt_reference`` adds one extra key to the
    reference, which must make the run fail.
    """
    workload = WORKLOADS[workload_name]
    work = os.path.join(ROOT, ".perfbench-work",
                        f"{workload_name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    lines = [f"# workload {workload.name}: {workload.why}",
             "# host " + json.dumps(host_facts(seed), sort_keys=True)]
    sessions: List[Session] = []
    correct = True
    metrics: Dict[str, Any] = {}
    values: Dict[str, float] = {}
    try:
        runner = run_traced if trace else run_end_to_end
        measured, extra = runner(workload, seed, seconds, work,
                                 corrupt_reference, sessions)
        for name, (value, unit, note) in measured.items():
            metrics[name] = {"value": value, "unit": unit}
        for name, (value, unit, note) in {**measured, **extra}.items():
            lines.append(f"{name:34s} {value:16.6g} {unit:8s} {note}")
            values[name] = value
    except WrongAnswer as exc:
        correct = False
        lines.append(f"WRONG ANSWER: {exc}")
    finally:
        spans = os.path.join(work, "spans-main.jsonl")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(
                ROOT, ".perfbench-work",
                f"spans-{workload_name}-{seed}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct,
              "attempted": sum(s.attempted for s in sessions),
              "failed": sum(s.failed for s in sessions),
              "metrics": metrics if correct else {}}
    return result, lines, values


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result, lines, _ = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
