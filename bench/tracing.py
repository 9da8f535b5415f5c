"""Span wrappers around public ltclab entry points, installed from outside the package.

A ``Tracer`` replaces each entry point listed in ``SPANS`` with a wrapper, at
every place a caller looks the name up (``harness`` imports several functions
by name, so those are patched in ``harness`` too), and restores the originals
afterwards.  Each wrapper records the call count, the total time and the self
time, which is the span's duration minus the time its wrapped callees took.
Work counts are computed from argument and return shapes.  The benchmark
marks its own phases (setup, run, serialise); the time a phase spends outside
every top-level span is reported as that phase's unattributed remainder.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from contextlib import contextmanager

from ltclab import code, harness, linalg, reports, tanner, tensor, tester
from ltclab.errors import TooLargeToEnumerateError

PHASES = ("setup", "run", "serialise")
# Percentiles tried for the certify tail, highest first; the tail is the
# highest one with at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def _count_compares(tracer, args, result):
    """Symbols compared by the broadcast kernel: batch x table rows x length."""
    self, words = args[0], args[1]
    if isinstance(self, code.LinearCode):
        tracer.count("code.symbol_compares", words.shape[0] * self.num_codewords() * self.n)
    else:
        rows = self.field.q ** self.dimension
        tracer.count("tensor.symbol_compares", words.shape[0] * rows * self.block_length)


def _count_table(tracer, args, result):
    """A codeword table is a cache hit when the same array object came back before."""
    seen = tracer.seen_tables.get(id(result))
    if seen is not None and seen() is result:
        tracer.count("code.codewords.hits", 1)
    else:
        tracer.seen_tables[id(result)] = weakref.ref(result)
        tracer.count("code.codewords.misses", 1)
        tracer.count("code.table_cells", result.size)


def _count_words(tracer, args, result):
    tracer.count("corpus.words", len(result))


def _count_bytes(tracer, args, result):
    tracer.count("reports.bytes", len(result))


# (span name, [(owner, attribute), ...], counter, keep per-call samples, count refusals)
SPANS = (
    ("harness.run_sweep", [(harness, "run_sweep")], None, False, False),
    ("harness.run_compose_check", [(harness, "run_compose_check")], None, False, False),
    ("harness.run_expansion_check", [(harness, "run_expansion_check")], None, False, False),
    ("corpus.generate_corpus", [(harness, "generate_corpus")], _count_words, False, False),
    ("reports.json_bytes", [(reports, "json_bytes"), (harness, "json_bytes")], _count_bytes, False, False),
    ("tester.certify", [(tester.TestInstance, "certify")], None, True, True),
    ("tester.expected_robustness", [(tester.TestInstance, "expected_robustness")], None, False, True),
    ("tester.view_hammings", [(tester.TestInstance, "view_hammings")], None, False, True),
    ("tester.delta_exact", [(tester.TestInstance, "delta_exact")], None, False, True),
    ("code.nearest_distance_batch", [(code.LinearCode, "nearest_distance_batch")], _count_compares, False, False),
    ("code.codewords", [(code.LinearCode, "codewords")], _count_table, False, False),
    ("tensor.nearest_distance_batch", [(tensor.TensorCode, "nearest_distance_batch")], _count_compares, False, False),
    ("tensor.encode_tensor", [(tensor.TensorCode, "encode_tensor")], None, False, False),
    ("tanner.boundary_edge_count", [(tanner, "boundary_edge_count"), (harness, "boundary_edge_count")], None, False, False),
    ("tanner.tpc_linear_code", [(tanner, "tpc_linear_code"), (harness, "tpc_linear_code")], None, False, False),
    ("tanner.compose", [(tanner.OrderedGraph, "compose")], None, False, False),
    ("linalg.null_space", [(linalg, "null_space")], None, False, False),
)

# Per-layer metrics, as (name, unit, better).  Per-job values are divided by
# the number of traced jobs.
METRICS = (
    [
        (f"{name}.{field}", unit, "lower")
        for name, *_ in SPANS
        for field, unit in (("calls", "calls/job"), ("s", "s/job"), ("self_s", "s/job"))
    ]
    + [
        ("code.symbol_compares", "cmp/job", "lower"),
        ("code.compares_per_s", "cmp/s", "higher"),
        ("code.codewords.hits", "hits/job", "higher"),
        ("code.codewords.misses", "misses/job", "lower"),
        ("code.table_cells", "cells/job", "lower"),
        ("tensor.symbol_compares", "cmp/job", "lower"),
        ("tensor.compares_per_s", "cmp/s", "higher"),
        ("tester.certify.p50_ms", "ms", "lower"),
        ("tester.certify.tail_ms", "ms", "lower"),
        ("tester.certify.tail_pct", "%", "higher"),
        ("tester.certify.samples", "count", "higher"),
        ("tester.refusals", "refusals/job", "lower"),
        ("corpus.words", "words/job", "higher"),
        ("reports.bytes", "B/job", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    + [
        (f"phase.{phase}.{field}", "s/job", "lower")
        for phase in PHASES
        for field in ("s", "unattributed_s")
    ]
)


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in SPANS}
        self.total = {name: 0.0 for name, *_ in SPANS}
        self.self_s = {name: 0.0 for name, *_ in SPANS}
        self.samples = {name: [] for name, *_ in SPANS}
        self.counts: dict[str, int] = {}
        self.phase_s = {phase: 0.0 for phase in PHASES}
        self.phase_attributed = {phase: 0.0 for phase in PHASES}
        self.seen_tables: dict[int, weakref.ref] = {}
        self._stack: list[list[float]] = []  # [start, time in child spans]

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def _wrap(self, name, fn, counter, keep_samples, refusals):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except TooLargeToEnumerateError as exc:
                # Nested tester spans see the same refusal; count it once.
                if refusals and not getattr(exc, "_counted_refusal", False):
                    exc._counted_refusal = True
                    tracer.count("tester.refusals", 1)
                raise
            finally:
                duration = time.perf_counter() - frame[0]
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if keep_samples:
                    tracer.samples[name].append(duration)
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every span target for the duration of the block."""
        originals = []
        try:
            for name, targets, counter, keep_samples, refusals in SPANS:
                for owner, attr in targets:
                    fn = owner.__dict__[attr]
                    originals.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, counter, keep_samples, refusals))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @contextmanager
    def phase(self, name: str):
        """A benchmark phase; its top-level spans are its attributed time."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.phase_s[name] += time.perf_counter() - frame[0]
            self.phase_attributed[name] += frame[1]

    def metrics(self, jobs: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics, normalised per traced job."""
        out = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = self.calls[name] / jobs
            out[f"{name}.s"] = self.total[name] / jobs
            out[f"{name}.self_s"] = self.self_s[name] / jobs
        for key in (
            "code.symbol_compares",
            "code.codewords.hits",
            "code.codewords.misses",
            "code.table_cells",
            "tensor.symbol_compares",
            "tester.refusals",
            "corpus.words",
            "reports.bytes",
        ):
            out[key] = self.counts.get(key, 0) / jobs
        for layer in ("code", "tensor"):
            busy = self.self_s[f"{layer}.nearest_distance_batch"]
            compares = self.counts.get(f"{layer}.symbol_compares", 0)
            out[f"{layer}.compares_per_s"] = compares / busy if busy > 0 else 0.0
        out.update(self._certify_latency())
        out["trace.overhead_frac"] = overhead
        for phase in PHASES:
            out[f"phase.{phase}.s"] = self.phase_s[phase] / jobs
            unattributed = self.phase_s[phase] - self.phase_attributed[phase]
            out[f"phase.{phase}.unattributed_s"] = unattributed / jobs
        return out

    def _certify_latency(self) -> dict[str, float]:
        samples = sorted(self.samples["tester.certify"])
        n = len(samples)
        out = {
            "tester.certify.p50_ms": 0.0,
            "tester.certify.tail_ms": 0.0,
            "tester.certify.tail_pct": 0.0,
            "tester.certify.samples": n,
        }
        if n == 0:
            return out
        out["tester.certify.p50_ms"] = statistics.median(samples) * 1e3
        for pct in TAIL_PERCENTILES:
            rank = int(n * pct / 100)
            if n - rank - 1 >= TAIL_BEYOND:
                out["tester.certify.tail_ms"] = samples[rank] * 1e3
                out["tester.certify.tail_pct"] = pct
                break
        return out
