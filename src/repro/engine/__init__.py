"""Batch-ingestion engine: vectorised ``insert_many`` for every sketch.

The engine turns batches of items into sketch state through one of
three strategies — closed-form fused application, the reference
per-item loop, or the deferred chunked scatter — chosen per batch so
that results are bit-identical to the scalar ``insert`` path on the
exact sweep modes. See :mod:`repro.engine.batch` for the orchestration;
the closed-form math is the kernel backend's (:mod:`repro.kernels`).
"""

from .batch import DEFAULT_MIN_FUSED, BatchEngine

__all__ = ["BatchEngine", "DEFAULT_MIN_FUSED"]
