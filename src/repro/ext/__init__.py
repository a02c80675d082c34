"""Extensions implementing the paper's §7 future-work directions.

- :mod:`repro.ext.similar` — item batches of *similar* (not identical)
  items: a mapper canonicalises items into equivalence classes before
  they reach any sketch ("beef and steak are similar items").
- :mod:`repro.ext.adaptive` — per-key learned batch thresholds: "the
  threshold T for two different item batches may differ and an
  algorithm should learn the proper thresholds".

The third direction, distributed measurement over mergeable sketches,
is :mod:`repro.shard` (keyed replicas merged at a query barrier).
"""

from .similar import KeyedMapper, SimilarItemSketch, TokenPrefixMapper
from .adaptive import AdaptiveBatchTracker, GapThresholdLearner

__all__ = [
    "KeyedMapper",
    "TokenPrefixMapper",
    "SimilarItemSketch",
    "GapThresholdLearner",
    "AdaptiveBatchTracker",
]
