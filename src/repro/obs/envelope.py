"""The worker-telemetry envelope: how telemetry crosses a ``fork``.

The :func:`repro.parallel.parallel_map` pool, the ``repro serve``
workers and the frontier-shard workers all run each unit of work inside
a :class:`Capture` and send its :class:`Envelope` back with the result.
The capture resets the child's metrics registry and cache lookup
tallies (``fork`` copies the parent's, which would otherwise be counted
again once per worker) and records trace events only when the parent
traces, so untraced workers keep the engine's free ``SINK is None``
path.  :func:`merge` folds an envelope into the parent; callers merge in
submission (or worker-id) order, so a merged trace does not depend on
scheduling.
"""

from __future__ import annotations

import os
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.obs import metrics, tracer

#: Per-unit event cap when the parent's sink does not set one.
DEFAULT_CAP = 100_000


class Envelope(NamedTuple):
    """One unit of work's telemetry, shipped from worker to parent."""

    events: Tuple[tracer.TraceEvent, ...]
    dropped: int                                 # events past the cap
    metrics_snapshot: Optional[Dict[str, Any]]   # None: metrics off
    lookup_delta: Dict[str, Dict[str, int]]      # cache.lookup_stats() shape


def init_worker() -> None:
    """Pool/serve worker set-up, run in the child after ``fork``: pin
    ``REPRO_SHARD=0``, since a pooled worker fanning out shard processes
    of its own would multiply the fan-out."""
    os.environ["REPRO_SHARD"] = "0"


def trace_cap() -> int:
    """The event cap for this process's workers: 0 (record nothing)
    without a sink, else the sink's own cap."""
    if tracer.SINK is None:
        return 0
    return getattr(tracer.SINK, "max_events", DEFAULT_CAP)


class Capture:
    """Context manager around one unit of work in a worker.

    Records up to *cap* events (none when *cap* is 0), only those whose
    kind is in *kinds* if given.  :attr:`envelope` is set on exit, also
    when the unit raised.
    """

    def __init__(self, cap: int,
                 kinds: Optional[Tuple[str, ...]] = None) -> None:
        self.cap = cap
        self._sink = tracer.RecordingSink(cap, kinds)
        self._previous: Optional[tracer.TraceSink] = None
        self.envelope: Optional[Envelope] = None

    def __enter__(self) -> "Capture":
        from repro.memory import cache

        metrics.REGISTRY.reset()
        cache.reset_lookup_stats()
        if self.cap > 0:
            self._previous = tracer.SINK
            tracer.SINK = self._sink
        return self

    def __exit__(self, *exc_info: Any) -> None:
        from repro.memory import cache

        if self.cap > 0:
            tracer.SINK = self._previous
        self.envelope = Envelope(
            tuple(self._sink.events), self._sink.dropped,
            metrics.REGISTRY.snapshot() if metrics.ENABLED else None,
            cache.lookup_stats(),
        )


def add_lookups(totals: Dict[str, Dict[str, int]],
                delta: Dict[str, Dict[str, int]]) -> None:
    """Add a lookup delta into *totals* (both ``lookup_stats()`` shape)."""
    for bucket, layers in delta.items():
        counts = totals.setdefault(bucket, {})
        for layer, count in layers.items():
            counts[layer] = counts.get(layer, 0) + count


def merge(envelope: Envelope) -> None:
    """Fold a worker's envelope into this (parent) process: replay its
    events into the installed sink, merge its metrics, add its lookups."""
    from repro.memory import cache

    sink = tracer.SINK
    if sink is not None:
        sink.replay(envelope.events)
        if isinstance(sink, tracer.RecordingSink):
            sink.dropped += envelope.dropped
    if envelope.metrics_snapshot is not None:
        metrics.REGISTRY.merge(envelope.metrics_snapshot)
    # The tallies lookup_stats() copies; the cache module exposes no adder.
    add_lookups(cache._lookup_stats, envelope.lookup_delta)
