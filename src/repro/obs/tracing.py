"""Span-based tracing for the write path.

A :class:`Span` times one stage of work on the monotonic clock
(``time.perf_counter_ns``).  Spans are context managers and nest: the
:class:`Tracer` keeps a per-thread stack, so a span opened while another
is active becomes its child and shares its trace id.  The full PRINS
write path therefore shows up as one tree per write::

    write (lba=17)
    ├─ write.local
    ├─ write.delta
    ├─ write.encode
    └─ write.send (link=0)
       └─ replica.apply
          └─ replica.decode

A finished span goes one place on the hot path: it is appended to a
bounded ring of :class:`Span` objects.  Everything else is derived
lazily — spans are converted to JSON-safe records only when
:meth:`Tracer.export_spans` is called, and the per-name aggregates
(count / total / min / max plus a log2 latency histogram) are folded
from the ring in batches when spans are evicted past ``capacity`` or
when :meth:`Tracer.summary` reads them.  A fold watermark guarantees
each span is folded exactly once, so summary timings stay exact over
the whole run even though only the last ``capacity`` traces are kept.

Spans can also adopt a :class:`~repro.obs.dist.TraceContext` captured on
another thread or node (:meth:`Tracer.span_in`): when the local stack is
empty the context supplies the trace id and parent, so scheduler worker
threads and remote replicas join the originating write's tree instead of
starting orphan traces of their own.

The ring buffer evicts silently by design (aggregates stay exact), but
eviction is *counted*: :attr:`Tracer.dropped_spans` says how many span
records fell off the ring, and the trace report surfaces it so a
truncated trace never masquerades as a complete one.

Tracing has two detail levels.  The default records the *coarse* stage
spans — ``write``, ``write.encode``, ``write.send``, ``replica.apply``
(the stages critical-path attribution needs) — while sub-stage spans
(``write.local``, ``write.delta``, ``replica.decode``) are opened via
:meth:`Tracer.fine_span` and only materialize when the tracer was built
with ``detail=True``.  Like a DEBUG log level, fine detail is an opt-in
trade: prettier trees for roughly double the per-write tracing cost.

:data:`NULL_SPAN` / :class:`NullTracer` are the disabled twins: a single
shared span object whose enter/exit do nothing.  The replication hot
paths (engine write, fan-out send, replica apply, encode) do not rely on
them: each decides once, when its telemetry is bound, whether spans are
live, and with tracing off it opens no span and makes no telemetry call
at all.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from time import perf_counter_ns

from repro.obs.dist import TraceContext
from repro.obs.registry import Histogram

__all__ = ["Span", "Tracer", "NULL_SPAN", "NullSpan", "NullTracer"]


class Span:
    """One timed stage, started by :meth:`Tracer.span` and ended by :meth:`end`.

    The tracer's factory starts the span — ids, trace linkage, the push
    onto this thread's stack and the start time — so ``with`` only adds
    a trivial ``__enter__``, and a hot path can skip ``with`` altogether:
    ``span = tracer.span(...)`` … ``span.end()`` in a ``finally`` is two
    calls per span.  A live PRINS write opens four spans (``write``,
    ``write.encode``, ``write.send``, ``replica.apply``), seven with fine
    detail, so every saved call frame is visible on the hot path.
    """

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "duration_ns",
        "_tracer",
        "_stack",
    )

    @property
    def context(self) -> TraceContext:
        """This span's coordinates, for handing to another thread or node."""
        # What ``TraceContext(trace_id, span_id)`` does, minus the Python
        # ``__new__`` frame the NamedTuple puts in front of it.
        return tuple.__new__(TraceContext, (self.trace_id, self.span_id))

    def set(self, key: str, value) -> None:
        """Attach one attribute (JSON-safe values only, by convention)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        return self  # started by the factory

    def end(self, exc_type=None, exc=None, tb=None) -> bool:
        """Stop the clock, pop the span and keep it in the tracer's ring.

        ``exc_type`` (the ``with`` protocol's first argument) marks the
        span with an ``error`` attribute; ``__exit__`` is this method.
        """
        self.duration_ns = perf_counter_ns() - self.start_ns
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        tracer = self._tracer
        stack = self._stack  # the stack this span was pushed onto at enter
        # normal case: LIFO discipline; tolerate misuse by searching back
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        finished = tracer.finished
        finished.append(self)
        if len(finished) > tracer._high_water:
            tracer._evict()
        return False

    __exit__ = end

    def to_dict(self) -> dict:
        """JSON-safe record of the finished span."""
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class _SpanStats:
    """Aggregate timing for one span name.

    A thin wrapper over the log2 :class:`~repro.obs.registry.Histogram`
    (count / sum / min / max plus quantile buckets).  Nothing records
    into it on the span hot path — the :class:`Tracer` folds finished
    spans out of its ring in batches (at eviction and at read time), so
    :meth:`record` only ever runs amortized and cache-warm.
    """

    __slots__ = ("histogram",)

    def __init__(self, name: str) -> None:
        self.histogram = Histogram(f"span.{name}.ns", max_exponent=48)

    def snapshot(self) -> dict:
        """JSON-safe aggregate: count, total/min/max/mean, quantiles, buckets."""
        histogram = self.histogram
        count = histogram.count
        return {
            "count": count,
            "total_ns": histogram.sum,
            "mean_ns": histogram.sum / count if count else 0.0,
            "min_ns": histogram.min or 0,
            "max_ns": histogram.max or 0,
            "p50_ns": histogram.quantile(0.50),
            "p95_ns": histogram.quantile(0.95),
            "p99_ns": histogram.quantile(0.99),
            "buckets": histogram.snapshot()["buckets"],
        }


def _fine_span_off(name: str, ctx=None, **attrs) -> "NullSpan":  # noqa: ARG001
    """Stand-in for :meth:`Tracer.fine_span` when ``detail`` is off."""
    return NULL_SPAN


class Tracer:
    """Creates spans, tracks nesting, buffers and aggregates them."""

    def __init__(
        self, capacity: int = 2048, node: str = "", detail: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.node = node
        self.detail = detail
        # The ring is a plain list trimmed in batches: a span exit only
        # appends, and once the list grows past ``_high_water`` the
        # oldest spans are folded into the per-name aggregates and cut
        # off in one amortized sweep (see :meth:`_evict`).
        self.finished: list[Span] = []
        self._high_water = capacity + max(64, capacity // 4)
        self._evicted = 0  # spans cut from the front of the ring, ever
        self._folded = 0  # absolute count of spans folded into _stats
        self._folding = False
        self._stats: dict[str, _SpanStats] = {}
        self._local = threading.local()
        # next(counter) is atomic in CPython — no lock on the span hot path.
        # A labelled node offsets its id space by crc32(node) so spans
        # stitched across nodes keep distinct ids (deterministic per label).
        base = (zlib.crc32(node.encode()) << 20) if node else 0
        self._ids = itertools.count(base + 1)
        # hot-path shortcut: one factory covers both entry points, since
        # span(name, **attrs) and span_in(name, ctx, **attrs) both map
        # onto ``(name, ctx=None, **attrs)``.  The instance attributes
        # shadow the documented methods below.
        self.span = self.span_in = self._open
        self.fine_span = self._open if detail else _fine_span_off

    # -- span lifecycle ------------------------------------------------------

    def _open(self, name: str, ctx: TraceContext | None = None, **attrs) -> Span:
        """Build and start one span, field by field, in one call.

        The span nests under this thread's innermost open span, or joins
        ``ctx`` when none is open, or starts a trace of its own.
        Building it here rather than through ``type.__call__`` and an
        ``__init__`` saves the argument packing and a frame, a visible
        share of a live span's cost (four per PRINS write).
        """
        span = object.__new__(Span)
        span._tracer = self
        span.name = name
        span.attrs = attrs
        span.span_id = sid = next(self._ids)
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        span._stack = stack
        if stack:
            top = stack[-1]
            span.parent_id = top.span_id
            span.trace_id = top.trace_id
        elif ctx is not None:
            span.parent_id = ctx.span_id
            span.trace_id = ctx.trace_id
        else:
            span.parent_id = None
            span.trace_id = sid
        stack.append(span)
        span.start_ns = perf_counter_ns()
        return span

    def span(self, name: str, **attrs) -> Span:
        """Start a span; ``with tracer.span("stage"): ...`` ends it."""
        return self._open(name, None, **attrs)

    def span_in(self, name: str, ctx: TraceContext | None, **attrs) -> Span:
        """Open a span that joins ``ctx`` when no local span is active.

        The per-thread stack still wins — a span opened while another is
        active on this thread nests under it as usual.  Only a stack-empty
        open (scheduler worker thread, remote replica) adopts the carried
        context, becoming a child of the originating write span.  With
        ``ctx=None`` this is exactly :meth:`span`.
        """
        return self._open(name, ctx, **attrs)

    def fine_span(self, name: str, ctx: TraceContext | None = None, **attrs):
        """Open a sub-stage span; a real span only with ``detail=True``.

        The coarse stage spans cover critical-path attribution; fine
        spans (``write.local``, ``write.delta``, ``replica.decode``)
        refine them and cost a real span each, so without ``detail``
        this returns :data:`NULL_SPAN` and the call is ~free.
        """
        return NULL_SPAN

    @property
    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """Coordinates of the innermost open span, for cross-gap handoff."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1].context

    @property
    def spans_finished(self) -> int:
        """Spans that have exited, ever (ring survivors plus evicted).

        Derived rather than counted — every exit appends to the ring and
        eviction counts what it cuts, so the total is exactly
        ``_evicted + len(finished)`` with no increment on the hot path.
        """
        return self._evicted + len(self.finished)

    @property
    def spans_started(self) -> int:
        """Finished spans plus those still open on the calling thread.

        Spans left open on *other* threads are not visible here (the
        open-span stacks are thread-local); the difference only matters
        while a cross-thread write is mid-flight.
        """
        return self.spans_finished + len(getattr(self._local, "stack", ()))

    @property
    def dropped_spans(self) -> int:
        """Span records no longer exportable (aggregates remain exact).

        The ring trims lazily in batches, so spans past ``capacity`` may
        physically linger until the next sweep — they still count as
        dropped here because :meth:`export_spans` will never return them.
        """
        return self.spans_finished - min(len(self.finished), self.capacity)

    # -- ring maintenance ----------------------------------------------------

    def _evict(self) -> None:
        """Cut the ring back to ``capacity``, folding what falls off.

        Runs every ``_high_water - capacity`` span exits, so the fold is
        amortized and cache-warm instead of a per-exit cost.  The
        ``_folding`` flag keeps concurrent exits from double-cutting —
        the same pragmatic lock-free stance the histograms take.
        """
        if self._folding:
            return
        self._folding = True
        try:
            cut = len(self.finished) - self.capacity
            if cut > 0:
                self._fold_upto(self._evicted + cut)
                del self.finished[:cut]
                self._evicted += cut
        finally:
            self._folding = False

    def _fold_upto(self, upto: int) -> None:
        """Fold spans with absolute index below ``upto`` into the stats.

        ``_folded`` is the watermark: spans below it are already in the
        per-name histograms, so each span is folded exactly once no
        matter whether eviction or a summary read gets to it first.
        Durations are grouped by name first so each histogram takes one
        :meth:`~repro.obs.registry.Histogram.record_batch` bulk update.
        """
        start = self._folded - self._evicted
        stop = upto - self._evicted
        finished = self.finished
        groups: dict[str, list[int]] = {}
        for i in range(start, stop):
            span = finished[i]
            values = groups.get(span.name)
            if values is None:
                values = groups[span.name] = []
            values.append(span.duration_ns)
        stats = self._stats
        for name, values in groups.items():
            per_name = stats.get(name)
            if per_name is None:
                per_name = stats[name] = _SpanStats(name)
            per_name.histogram.record_batch(values)
        self._folded = upto

    # -- reading -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregate timings (exact over the whole run).

        When the ring buffer has evicted spans the reserved ``"_tracer"``
        entry reports ``dropped_spans`` so truncation is visible next to
        the (still exact) aggregates.
        """
        if not self._folding:
            self._folding = True
            try:
                self._fold_upto(self._evicted + len(self.finished))
            finally:
                self._folding = False
        out = {
            name: stats.snapshot() for name, stats in sorted(self._stats.items())
        }
        if self.dropped_spans:
            out["_tracer"] = {"dropped_spans": self.dropped_spans}
        return out

    def meta(self) -> dict:
        """Ring-buffer bookkeeping: capacity, started/finished/dropped."""
        return {
            "capacity": self.capacity,
            "node": self.node,
            "detail": self.detail,
            "spans_started": self.spans_started,
            "spans_finished": self.spans_finished,
            "dropped_spans": self.dropped_spans,
        }

    def export_spans(self, max_spans: int | None = None) -> list[dict]:
        """The most recent finished spans (oldest first), JSON-safe.

        Conversion from :class:`Span` objects to dict records (including
        the ``node`` label) happens here, at read time, not on the span
        hot path.
        """
        # the ring trims lazily; never expose more than capacity
        spans = self.finished[-self.capacity :]
        if max_spans is not None and len(spans) > max_spans:
            spans = spans[-max_spans:]
        node = self.node
        records = []
        for span in spans:
            record = span.to_dict()
            if node:
                record["node"] = node
            records.append(record)
        return records

    def reset(self) -> None:
        """Drop buffered spans and aggregates (open spans unaffected)."""
        self.finished.clear()
        self._stats.clear()
        self._evicted = 0
        self._folded = 0


# ---------------------------------------------------------------------------
# Null twins
# ---------------------------------------------------------------------------


class NullSpan:
    """Shared do-nothing span: enter/exit/set are no-ops."""

    __slots__ = ()
    name = "null"
    duration_ns = 0
    #: no coordinates to hand off — mirrors :attr:`Span.context` being a
    #: real :class:`~repro.obs.dist.TraceContext` on enabled spans
    context = None

    def set(self, key: str, value) -> None:  # noqa: ARG002
        """Discard the attribute (disabled tracing)."""
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def end(self, exc_type=None, exc=None, tb=None) -> bool:  # noqa: ARG002
        """Nothing to stop (disabled tracing)."""
        return False

    __exit__ = end


NULL_SPAN = NullSpan()


class NullTracer:
    """Tracer twin whose spans are the shared :data:`NULL_SPAN`."""

    capacity = 0
    node = ""
    detail = False
    spans_started = 0
    spans_finished = 0
    dropped_spans = 0

    def span(self, name: str, **attrs) -> NullSpan:  # noqa: ARG002
        """Return the shared no-op span context."""
        return NULL_SPAN

    def span_in(self, name: str, ctx, **attrs) -> NullSpan:  # noqa: ARG002
        """Return the shared no-op span context (context discarded)."""
        return NULL_SPAN

    def fine_span(self, name: str, ctx=None, **attrs) -> NullSpan:  # noqa: ARG002
        """Return the shared no-op span context (disabled tracing)."""
        return NULL_SPAN

    @property
    def current_span(self) -> None:
        """Always the no-op span (disabled tracing)."""
        return None

    def current_context(self) -> None:
        """Always ``None`` (disabled tracing propagates nothing)."""
        return None

    def meta(self) -> dict:
        """Always empty (disabled tracing)."""
        return {}

    def summary(self) -> dict:
        """Always empty (disabled tracing)."""
        return {}

    def export_spans(self, max_spans: int | None = None) -> list:  # noqa: ARG002
        """Always empty (disabled tracing)."""
        return []

    def reset(self) -> None:
        """No-op (disabled tracing)."""
        pass
