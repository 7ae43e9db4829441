"""The single telemetry front door: metrics + tracing + sources.

:class:`Telemetry` bundles a :class:`~repro.obs.registry.MetricsRegistry`
and a :class:`~repro.obs.tracing.Tracer` behind one object, plus named
*sources* — callbacks returning JSON-safe dicts that are evaluated lazily
at :meth:`Telemetry.snapshot` time.  Sources are how the repo's existing
accounting state (:class:`~repro.engine.accounting.TrafficAccountant`,
per-link resilience health, cluster totals)
surfaces through the telemetry API without duplicating any bookkeeping:
the engine registers ``engine.<strategy>`` → ``accountant.snapshot`` once
and every later snapshot reads live values.

:data:`NULL_TELEMETRY` is the disabled twin — the default everywhere —
whose spans, counters, and histograms are shared no-op singletons, so
instrumented code costs ~nothing until someone opts in.  A process-wide
default can be installed with :func:`set_telemetry` (or scoped with
:func:`use_telemetry`); components constructed with ``telemetry=None``
pick it up via :func:`get_telemetry`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

from repro.obs.flightrec import NULL_FLIGHTREC, FlightRecorder
from repro.obs.registry import MetricsRegistry, NullMetricsRegistry
from repro.obs.tracing import NULL_SPAN, NullTracer, Tracer

__all__ = [
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

#: JSON-safe dict producer evaluated at snapshot time
SourceFn = Callable[[], dict]


class Telemetry:
    """Enabled telemetry: live registry, tracer, and snapshot sources."""

    enabled = True

    def __init__(
        self,
        trace_capacity: int = 2048,
        node: str = "",
        flightrec_capacity: int = 1024,
        flightrec_dump: str | None = None,
        detail: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity, node=node, detail=detail)
        self.flightrec = FlightRecorder(
            capacity=flightrec_capacity, node=node, dump_path=flightrec_dump
        )
        self.node = node
        self._sources: dict[str, SourceFn] = {}
        # hot-path passthroughs: bound tracer methods as instance
        # attributes shadow the class methods below, saving a call frame
        # on every span open (the class methods remain for the API docs)
        self.span = self.tracer.span
        self.span_in = self.tracer.span_in
        self.fine_span = self.tracer.fine_span
        self.current_context = self.tracer.current_context

    # -- convenience passthroughs -------------------------------------------

    def span(self, name: str, **attrs):
        """Open a span (see :meth:`~repro.obs.tracing.Tracer.span`)."""
        return self.tracer.span(name, **attrs)

    def span_in(self, name: str, ctx, **attrs):
        """Open a span joining a carried :class:`~repro.obs.dist.TraceContext`."""
        return self.tracer.span_in(name, ctx, **attrs)

    def fine_span(self, name: str, ctx=None, **attrs):
        """Open a sub-stage span (real only when built with ``detail=True``)."""
        return self.tracer.fine_span(name, ctx, **attrs)

    def current_context(self):
        """Coordinates of this thread's innermost open span (or ``None``)."""
        return self.tracer.current_context()

    def event(self, kind: str, **data) -> None:
        """Record a flight-recorder event (see :mod:`repro.obs.flightrec`)."""
        self.flightrec.record(kind, **data)

    def fault(self, reason: str, **data) -> str | None:
        """Record a fault event and trigger the flight-recorder auto-dump.

        Returns the dump path written, or ``None`` when no dump path is
        configured (the recording stays readable via the snapshot).
        """
        self.flightrec.record(f"fault.{reason}", **data)
        return self.flightrec.auto_dump(reason)

    def counter(self, name: str):
        """Get or create a counter in the registry."""
        return self.registry.counter(name)

    def gauge(self, name: str):
        """Get or create a settable gauge in the registry."""
        return self.registry.gauge(name)

    def histogram(self, name: str, max_exponent: int = 40):
        """Get or create a histogram in the registry."""
        return self.registry.histogram(name, max_exponent)

    # -- sources -------------------------------------------------------------

    def register_source(self, name: str, fn: SourceFn) -> str:
        """Attach a snapshot source; returns the (unique-ified) name.

        A second registration under a taken name gets ``name#2`` etc., so
        several engines can coexist in one snapshot without clobbering.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"source name must be a non-empty str, got {name!r}")
        final = name
        n = 2
        while final in self._sources:
            final = f"{name}#{n}"
            n += 1
        self._sources[final] = fn
        return final

    def unregister_source(self, name: str) -> None:
        """Detach a source (missing names are ignored)."""
        self._sources.pop(name, None)

    @property
    def source_names(self) -> list[str]:
        """Registered source names, sorted."""
        return sorted(self._sources)

    # -- reading -------------------------------------------------------------

    def snapshot(self, max_spans: int = 512) -> dict:
        """One JSON-safe dict covering everything telemetry knows.

        Layout::

            {"enabled": true,
             "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
             "spans":   {name: {count, total_ns, mean_ns, p50_ns, p99_ns, ...}},
             "traces":  [ {name, trace_id, span_id, parent_id, ...}, ... ],
             "tracer":  {capacity, spans_started, spans_finished, dropped_spans},
             "flightrec": {events: [...], recorded, dropped, ...},
             "sources": {name: <source dict>, ...}}
        """
        return {
            "enabled": True,
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.summary(),
            "traces": self.tracer.export_spans(max_spans),
            "tracer": self.tracer.meta(),
            "flightrec": self.flightrec.dump(),
            "sources": {
                name: fn() for name, fn in sorted(self._sources.items())
            },
        }

    def reset(self) -> None:
        """Zero metrics and drop buffered spans/events (sources stay)."""
        self.registry.reset()
        self.tracer.reset()
        self.flightrec.clear()


class NullTelemetry:
    """Disabled telemetry: every operation is a shared no-op."""

    enabled = False
    node = ""

    def __init__(self) -> None:
        self.registry = NullMetricsRegistry()
        self.tracer = NullTracer()
        self.flightrec = NULL_FLIGHTREC

    def span(self, name: str, **attrs):  # noqa: ARG002
        """Return the shared no-op span (no timing recorded)."""
        return NULL_SPAN

    def span_in(self, name: str, ctx, **attrs):  # noqa: ARG002
        """Return the shared no-op span (context discarded)."""
        return NULL_SPAN

    def fine_span(self, name: str, ctx=None, **attrs):  # noqa: ARG002
        """Return the shared no-op span (disabled telemetry)."""
        return NULL_SPAN

    def current_context(self) -> None:
        """Always ``None`` (disabled telemetry propagates nothing)."""
        return None

    def event(self, kind: str, **data) -> None:  # noqa: ARG002
        """Discard the event (disabled telemetry)."""
        pass

    def fault(self, reason: str, **data) -> None:  # noqa: ARG002
        """Discard the fault; never dumps, so always returns ``None``."""
        return None

    def counter(self, name: str):
        """Return the shared no-op counter."""
        return self.registry.counter(name)

    def gauge(self, name: str):
        """Return the shared no-op gauge."""
        return self.registry.gauge(name)

    def histogram(self, name: str, max_exponent: int = 40):
        """Return the shared no-op histogram."""
        return self.registry.histogram(name, max_exponent)

    def register_source(self, name: str, fn: SourceFn) -> str:  # noqa: ARG002
        """Ignore the source; return its name unchanged."""
        return name

    def unregister_source(self, name: str) -> None:
        """No-op (disabled telemetry)."""
        pass

    @property
    def source_names(self) -> list[str]:
        """Always empty (disabled telemetry)."""
        return []

    def snapshot(self, max_spans: int = 512) -> dict:  # noqa: ARG002
        """Return an empty, well-formed snapshot shell."""
        return {
            "enabled": False,
            "metrics": self.registry.snapshot(),
            "spans": {},
            "traces": [],
            "tracer": {},
            "flightrec": self.flightrec.dump(),
            "sources": {},
        }

    def reset(self) -> None:
        """No-op (disabled telemetry)."""
        pass


#: the process-wide disabled singleton (identity-comparable)
NULL_TELEMETRY = NullTelemetry()

_default: Telemetry | NullTelemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry | NullTelemetry:
    """The process-wide default telemetry (NULL unless installed)."""
    return _default


def set_telemetry(telemetry: Telemetry | NullTelemetry | None) -> None:
    """Install (or, with ``None``, clear) the process-wide default."""
    global _default
    _default = telemetry if telemetry is not None else NULL_TELEMETRY


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry | NullTelemetry) -> Iterator:
    """Scope the process-wide default to a ``with`` block."""
    previous = _default
    set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
