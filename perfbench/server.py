"""Launch one ``repro.serve.IngestService`` for the benchmark.

Run as ``python3 perfbench/server.py SPEC.json`` with ``src`` on
``PYTHONPATH``. The spec names the tenants (``TenantConfig`` mappings),
the checkpoint directory and whether to trace. The process prints
``READY <port>`` once it serves, then obeys one command per stdin line,
answering each on stdout:

- ``BEGIN``: start the traced window (reset spans, note CPU and wall).
- ``END <path>``: close the window, write its raw spans to ``path`` and
  answer ``END <json>`` with layer totals, CPU and wall seconds.
- ``STOP``: graceful stop with final checkpoint; answers
  ``STOPPED <json>`` with the peak resident memory, then exits.

End of stdin (the benchmark went away) also stops the service.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from typing import Any, Dict


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


async def _serve(spec: Dict[str, Any], recorder: Any) -> None:
    from repro.serve import IngestService, TenantConfig

    window: Dict[str, float] = {}
    if recorder is not None and recorder.active:
        window = {"cpu": time.process_time(), "wall": time.perf_counter()}
    tenants = {name: TenantConfig.from_meta(meta)
               for name, meta in spec["tenants"].items()}
    service = IngestService(
        tenants=tenants, auto_create=False,
        checkpoint_dir=spec.get("checkpoint_dir"),
        # Checkpoints come only from CHECKPOINT frames and the final
        # stop, so checkpoint work never depends on wall time.
        checkpoint_poll=1e9)
    await service.start()
    _say(f"READY {service.port} {json.dumps(service.restore_outcomes)}")

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    while True:
        line = (await reader.readline()).decode().strip()
        command, _, arg = line.partition(" ")
        if command == "BEGIN" and recorder is not None:
            recorder.begin()
            window = {"cpu": time.process_time(), "wall": time.perf_counter()}
            _say("BEGUN")
        elif command == "END" and recorder is not None:
            cpu = time.process_time() - window["cpu"]
            wall = time.perf_counter() - window["wall"]
            recorder.end()
            recorder.dump(arg)
            summary = recorder.summary()
            summary.update(cpu_s=cpu, wall_s=wall)
            _say("END " + json.dumps(summary))
        elif command in ("STOP", ""):
            # "" is end of stdin: the benchmark is gone, stop anyway.
            await service.stop(final_checkpoint=True)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _say("STOPPED " + json.dumps({"rss_peak_mb": peak_kb / 1024.0}))
            return
        else:
            _say(f"ERROR unknown command {line!r}")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = None
    if spec.get("trace"):
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
        if spec.get("trace_from_start"):
            # Restart runs trace from launch, so restore work is seen.
            recorder.begin()
    asyncio.run(_serve(spec, recorder))
    return 0


if __name__ == "__main__":
    sys.exit(main())
