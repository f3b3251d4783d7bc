"""repro: reproduction of "Large-Scale Distributed Storage for Highly
Concurrent MapReduce Applications" (Moise, Antoniu, Bougé — IPDPS 2010
Workshops).

The package is organised in two layers (see DESIGN.md):

* a **functional layer** that stores real bytes in process —
  :mod:`repro.core` (BlobSeer), :mod:`repro.bsfs` (the BlobSeer File
  System), :mod:`repro.hdfs` (the HDFS-like baseline) and
  :mod:`repro.mapreduce` (a Hadoop-style MapReduce engine); and
* a **simulation layer** — :mod:`repro.simulation` — that replays the
  paper's Grid'5000-scale experiments (270 nodes, up to 250 concurrent
  clients) with a flow-level cluster model driven by the same placement
  policies as the functional layer.

Quickstart::

    from repro import BlobSeer

    blobseer = BlobSeer()
    blob = blobseer.create_blob(page_size=64 * 1024)
    v1 = blobseer.append(blob, b"hello, blobseer")
    print(blobseer.read(blob, 0, 5))          # b"hello"
    v2 = blobseer.write(blob, 0, b"HELLO")
    print(blobseer.read(blob, 0, 5, version=v1))  # still b"hello"
"""

from .core import GB, KB, MB, BlobSeer, BlobSeerConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BlobSeer",
    "BlobSeerConfig",
    "KB",
    "MB",
    "GB",
    "Session",
    "connect",
]


def __getattr__(name: str):
    # Lazy: the session facade pulls in the whole MapReduce stack, which
    # pure-storage users of the package should not pay for at import time.
    if name in ("Session", "connect"):
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
