"""Benchmark-owned server launcher: ``repro-er serve`` defaults in a process of its own.

    python3 perfbench/server_main.py --graph dblp-half --seed 1 [--trace 1]

Builds the graph, then serves it exactly as ``repro-er serve --port 0
--net-workers 1`` would: static router, GEER, answer cache and landmark sketch
on, one shared-memory pool worker.  Prints ``listening <url>`` once the socket
is bound, serves until SIGTERM or SIGINT, drains, and prints ``spans <json>``
as its last line (an empty list unless ``--trace 1`` installed the span
wrappers before anything was built).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--graph", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    recorder = None
    if args.trace:
        from spans import CORE_TARGETS, NET_ROOTS, SERVICE_TARGETS, SpanRecorder

        recorder = SpanRecorder()
        recorder.install(CORE_TARGETS + SERVICE_TARGETS)
        recorder.install(NET_ROOTS, trace_of=lambda a, k: a[1].get("trace_id"))

    from repro.net.server import NetServer, NetServerConfig
    from repro.service import ResistanceService, ServiceConfig

    from graphs import build_graph

    graph = build_graph(args.graph, args.size)
    service = ResistanceService(graph, config=ServiceConfig(), rng=args.seed)
    server = NetServer(service, NetServerConfig(port=0, workers=1))

    async def serve() -> None:
        await server.start()
        print("listening " + server.url, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await server.stop()

    asyncio.run(serve())
    service.close()
    print("spans " + json.dumps(recorder.spans if recorder is not None else []), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
