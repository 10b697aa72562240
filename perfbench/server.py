"""HTTP server process of the ``http_open`` workload.

    python3 -m perfbench.server --gallery DIR [--spans DIR] [--cpu N]

Loads the saved gallery, serves it with ``HttpServiceServer`` on an
ephemeral port, prints ``READY <port>`` and runs until SIGTERM.  With
``--spans`` the layer functions are wrapped and the spans are written to
that directory on exit; with ``--cpu`` the process runs on that CPU only.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
from pathlib import Path

from repro.gallery.reference import ReferenceGallery
from repro.runtime.cache import ArtifactCache
from repro.service import GalleryRegistry, HttpServiceServer, IdentificationService, ServiceConfig

from perfbench import gen, instrument
from perfbench.spans import Tracer

GALLERY = "g"
#: Pipelined requests admitted per connection; deep enough that the open
#: loop's backlog queues in the server, where latency-from-due sees it.
PIPELINE_DEPTH = 512


async def serve(gallery_dir: Path) -> None:
    config = ServiceConfig(n_features=gen.N_FEATURES)
    registry = GalleryRegistry(config=config, cache=ArtifactCache())
    registry.register(GALLERY, ReferenceGallery.load(gallery_dir, cache=registry.cache))
    service = IdentificationService(registry=registry, config=config)
    server = HttpServiceServer(service, host="127.0.0.1", port=0, pipeline_depth=PIPELINE_DEPTH)
    await server.start()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, server.stop)
    print(f"READY {server.port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        service.close()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--gallery", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    tracer = None
    if args.spans is not None:
        tracer = Tracer(dump_dir=args.spans)
        instrument.install(tracer)
    asyncio.run(serve(args.gallery))
    if tracer is not None:
        tracer.dump()


if __name__ == "__main__":
    main()
