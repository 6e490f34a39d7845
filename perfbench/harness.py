"""Measurement plumbing shared by every workload: spans, statistics, host facts.

Nothing here imports :mod:`repro`; the calibration loop in particular must
run no package code, so that host drift can be told apart from a
regression in the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes every span a no-op.

    Spans are opened only by the benchmark's own code, around calls into
    the package's public functions.  The layer of a span is the part of
    its name before the first dot (``"simulator.execute"`` -> simulator).
    Each thread nests its spans on its own stack, so client threads of
    the serving workload can record side by side.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            span = Span(name, time.perf_counter(), math.nan, stack[-1] if stack else -1)
            self.spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            span.end = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_time_by_layer(self) -> Dict[str, float]:
        """Per-layer self time: each span's length minus its children's.

        A span's children run on its own thread, one after another, so
        their summed length is the part of the span they cover.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        totals: Dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            layer = s.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s.end - s.start) - child
        return totals

    def overhead_s(self) -> float:
        """What recording the spans so far cost: their count times :func:`span_cost_s`."""
        return len(self.spans) * span_cost_s()

    def write_jsonl(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start - origin, "end": s.end - origin,
                }) + "\n")


def span_cost_s(batch: int = 2000, repeats: int = 5) -> float:
    """Seconds one enabled span costs over a disabled one, on this thread.

    Traced and untraced runs execute the same code and differ only in
    whether the spans record, so this cost times the span count is the
    time tracing added.  The median of ``repeats`` paired batches; each
    pair times the same empty ``with`` loop both ways back to back.
    """
    def timed(tracer: "Tracer") -> float:
        start = time.perf_counter()
        for _ in range(batch):
            with tracer.span("bench.empty"):
                pass
        return time.perf_counter() - start

    diffs = [timed(Tracer(enabled=True)) - timed(Tracer(enabled=False))
             for _ in range(repeats)]
    return statistics.median(diffs) / batch


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); ``inf`` entries count."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: What one :meth:`HostSpeed.sample` takes on the reference host.  Times
#: reported as end-to-end metrics are scaled to that host speed.
REF_SAMPLE_S = 0.0075


class HostSpeed:
    """Samples a fixed pure-Python loop (no package code) between operations.

    This host's speed swings by up to 1.6x, on scales from a fraction of
    a second to minutes, with the load of its neighbours.  The mean of the
    samples taken between a phase's operations tracks the phase's speed;
    :meth:`factor` turns it into the scale that maps the phase's measured
    seconds onto the reference host's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        self.samples.append(time.perf_counter() - start)

    def timed(self, fn, *args):
        """``fn(*args)`` and its wall seconds, minus the samples taken inside it."""
        mark, start = len(self.samples), time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start - sum(self.samples[mark:])

    def scaled(self, seconds: float) -> float:
        """``seconds`` just measured, scaled by the samples either side of it.

        Call it right after the operation whose start :meth:`sample`
        preceded; it takes the sample that closes the operation.
        """
        self.sample()
        return seconds * REF_SAMPLE_S / statistics.fmean(self.samples[-2:])

    def scaled_call(self, fn, *args):
        """``fn(*args)`` and its seconds, scaled by the samples either side.

        The last sample taken opens the call; the one taken after it
        closes it and opens the next, so a long operation timed as a chain
        of calls is scaled piece by piece.
        """
        start = time.perf_counter()
        result = fn(*args)
        return result, self.scaled(time.perf_counter() - start)

    def factor(self, since: int = 0) -> float:
        """Reference seconds per measured second, from samples ``since`` on."""
        return REF_SAMPLE_S / statistics.fmean(self.samples[since:])


def host_fingerprint() -> Dict[str, object]:
    uname = platform.uname()
    return {
        "system": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
    }
