"""Serve-throughput: the network front door vs the in-process engine.

Not a paper figure — this measures what the :mod:`repro.serve` layer
costs: one synthetic trace is ingested (a) directly through
``ItemBatchMonitor.observe_many`` and (b) through a live
:class:`~repro.serve.IngestService` over loopback TCP by ``P``
concurrent load-generator clients, each driving its own tenant with
newline-delimited ``INSERT_BATCH`` frames. The ``overhead`` column is
the honest ratio ``direct_ips / served_ips`` — JSON framing, socket
hops, per-tenant locking and the event loop, all included.

Two served shapes are driven over the same tenant configuration and
work (the direct row's four tasks at one shard): a ``serial``-router
tenant (sketch work runs inline on the event loop — the single-core
floor) and a ``process``-router tenant (each task's sketch work runs in
its own worker process, so on a multi-core host the load generator can
saturate the engine through the network layer). As with the
shard-scaling bench, process-router numbers only mean parallelism when
the host has the cores; ``cpus`` rides along so the ledger can tell.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from time import perf_counter

from ...serve import TenantConfig
from ...serve.testing import LineClient, ServiceThread
from ..harness import ExperimentResult, cached_trace

#: Table 3's activeness configuration, reused for comparability.
MEMORY = "64KB"
WINDOW = 4096

DEFAULT_ITEMS = 400_000
#: Keys per INSERT_BATCH frame — the protocol's amortisation knob.
BATCH = 2_000

_SERIAL = TenantConfig(window_length=WINDOW, memory=MEMORY, seed=1)
#: The same tenant and work as ``_SERIAL``; only the router differs.
_PROCESS = replace(_SERIAL, router="process")


def _direct_ips(keys, batch: int) -> float:
    monitor = _SERIAL.build_monitor()
    try:
        started = perf_counter()
        for lo in range(0, len(keys), batch):
            monitor.observe_many(keys[lo:lo + batch])
        return len(keys) / (perf_counter() - started)
    finally:
        monitor.close()


def _client_worker(hosted, tenant, keys, batch, go, failures):
    try:
        with LineClient.for_service(hosted, timeout=600.0) as client:
            go.wait()
            for lo in range(0, len(keys), batch):
                response = client.request(
                    {"op": "INSERT_BATCH", "tenant": tenant,
                     "keys": keys[lo:lo + batch]})
                if not response.get("ok"):
                    failures.append(response)
                    return
    except Exception as exc:  # noqa: BLE001 - report, don't hang the bench
        failures.append({"error": repr(exc)})


def _served_ips(config: TenantConfig, keys, clients: int,
                batch: int) -> float:
    with ServiceThread(default_config=config) as hosted:
        share = (len(keys) + clients - 1) // clients
        go = threading.Event()
        failures: list = []
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(hosted, f"load-{i}", keys[i * share:(i + 1) * share],
                      batch, go, failures))
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        started = perf_counter()
        go.set()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - started
        if failures:
            raise RuntimeError(f"load generator hit errors: {failures[:3]}")
    return len(keys) / elapsed


def run(quick: bool = False, seed: int = 1, n_items: int = DEFAULT_ITEMS,
        client_counts: "tuple[int, ...]" = (1, 2), batch: int = BATCH,
        ) -> ExperimentResult:
    """Measure served vs direct ingestion throughput."""
    if quick:
        n_items = 30_000
        batch = 1_000
    cpus = os.cpu_count() or 1
    result = ExperimentResult(
        title="Serve throughput: loopback NDJSON ingest vs direct "
              "observe_many",
        columns=["mode", "router", "clients", "batch", "n_items", "ips",
                 "overhead", "cpus"],
        notes=[
            "overhead = direct_ips / served_ips (JSON framing + sockets "
            "+ event loop included)",
            "each client drives its own tenant; served ips is the "
            "aggregate across clients",
            f"host has {cpus} cpu(s); process-router saturation needs "
            "one core per shard worker plus the event loop",
        ],
    )
    stream = cached_trace("caida", n_items=n_items, window_hint=WINDOW,
                          seed=seed)
    # JSON-framable python scalars, shared by both paths for fairness.
    keys = [str(key) for key in stream.keys]
    direct = _direct_ips(keys, batch)
    result.add(mode="direct", router="serial", clients=0, batch=batch,
               n_items=len(keys), ips=direct, overhead=1.0, cpus=cpus)
    for config, router in ((_SERIAL, "serial"), (_PROCESS, "process")):
        for clients in client_counts:
            ips = _served_ips(config, keys, clients, batch)
            result.add(mode="served", router=router, clients=clients,
                       batch=batch, n_items=len(keys), ips=ips,
                       overhead=direct / ips, cpus=cpus)
    return result
