"""Per-layer tracing for the traced run, done entirely from ``bench/``.

The layers are this repository's modules.  A traced run wraps the public
callables at each layer boundary (class attributes patched for the run,
restored after), records one span per call — layer, name, start, end,
parent, op id, thread — keeps them in memory, and reduces them to a
table of *self* time per layer: a span's duration minus the part its
child spans cover.  ``repro.obs`` spans inside the program are not used.

Wrap targets are dotted names resolved when the session opens.  A target
that no longer exists turns its layer into ``null`` with one warning, so
renaming an internal cannot break the end-to-end run.

Replica-side spans run on ``TargetServer`` threads and have no parent on
their own thread; they are parented to the ``iscsi`` send whose interval
contains them.  One frame is outstanding per link and the client sends
from one thread, so containment is unambiguous.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, NamedTuple

#: two 48-byte basic header segments ride with every frame and its ack
_BHS_PAIR = 96


class Span(NamedTuple):
    """One call at a layer boundary."""

    sid: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    parent: int  # span id on the same thread, or -1
    op: int  # index of the op being served, or -1 (the final drain)
    thread: int


@dataclass(frozen=True)
class Target:
    """One callable to wrap: its layer, dotted name, optional count hook."""

    layer: str
    dotted: str
    count: Callable[[dict, tuple, Any], None] | None = None


def _count_encode(counts: dict, args: tuple, result: Any) -> None:
    counts["parity.block_bytes"] += len(args[1])
    counts["parity.encoded_bytes"] += len(result)


def _count_frame(counts: dict, args: tuple, result: Any) -> None:
    counts["iscsi.pdus"] += 1
    counts["iscsi.wire_bytes"] += len(args[2]) + len(result) + _BHS_PAIR


def _count_queue(counts: dict, args: tuple, result: Any) -> None:
    depth = max(channel.queue_depth for channel in args[0].channels)
    if depth > counts["scheduler.max_queue"]:
        counts["scheduler.max_queue"] = depth


def _count_heal(counts: dict, args: tuple, result: Any) -> None:
    counts["engine.resilience.heals"] += 1
    if result.reconcile is not None:
        counts["engine.resilience.rounds"] += result.reconcile.rounds


_BLOCK = "repro.block.memory.MemoryBlockDevice."
_PARITY = "repro.engine.strategy.PrinsStrategy."
_GUARD = "repro.engine.resilience.GuardedLink."

#: layer -> the callables that bound it (see bench/README.md)
TARGETS: tuple[Target, ...] = (
    Target("block", _BLOCK + "read_block"),
    Target("block", _BLOCK + "read_block_into"),
    Target("block", _BLOCK + "write_block"),
    Target("block", _BLOCK + "write_block_from"),
    Target("parity", _PARITY + "make_update"),
    Target("parity", _PARITY + "encode_payload", _count_encode),
    Target("parity", _PARITY + "apply_update_into"),
    Target("engine.primary", "repro.engine.primary.PrimaryEngine.write_block"),
    Target("engine.primary", "repro.engine.primary.PrimaryEngine.read_block"),
    Target(
        "iscsi",
        "repro.iscsi.initiator.Initiator.send_replication_frame",
        _count_frame,
    ),
    Target("engine.replica", "repro.engine.replica.ReplicaEngine.receive"),
    Target("engine.replica", "repro.engine.replica.ReplicaEngine.receive_batch"),
    Target(
        "engine.scheduler",
        "repro.engine.scheduler.FanoutScheduler.submit",
        _count_queue,
    ),
    Target("engine.scheduler", "repro.engine.scheduler.FanoutScheduler.drain"),
    Target("engine.router", "repro.engine.router.ReadRouter.read"),
    Target("engine.resilience", _GUARD + "fail"),
    Target("engine.resilience", _GUARD + "submit"),
    Target("engine.resilience", _GUARD + "heal", _count_heal),
)

#: layers in report order (``workloads`` runs in set-up and has no spans)
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))


def resolve(dotted: str) -> tuple[Any, str] | None:
    """Find ``(owner, attribute)`` for a dotted name, or ``None``.

    The longest importable prefix is the module; the rest are attributes.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        if owner is not None and callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        return None
    return None


def self_times(
    spans: list[tuple], client_thread: int
) -> tuple[dict[str, int], dict[str, int]]:
    """Per layer: total self time in ns, and number of calls.

    ``spans`` are :class:`Span` tuples (plain tuples in field order do).
    A span's self time is its duration minus its children's durations.
    Children are the spans that name it as parent; a span with no parent
    on a thread other than the client's is adopted by the ``iscsi`` span
    whose interval contains it.
    """
    sends = sorted(
        (start, end, sid)
        for sid, layer, _, start, end, _, _, _ in spans
        if layer == "iscsi"
    )
    starts = [send[0] for send in sends]
    covered: dict[int, int] = defaultdict(int)
    for _, _, _, start, end, parent, _, thread in spans:
        if parent < 0 and thread != client_thread:
            i = bisect.bisect_right(starts, start) - 1
            if i >= 0 and sends[i][1] >= end:
                parent = sends[i][2]
        if parent >= 0:
            covered[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for sid, layer, _, start, end, _, _, _ in spans:
        self_ns[layer] += end - start - covered[sid]
        calls[layer] += 1
    return dict(self_ns), dict(calls)


class TraceSession:
    """Patches the targets in, records spans, and reports the layer table.

    The runner drives it through four calls: :meth:`wrap_op` around the
    workload's op, :meth:`start`/:meth:`stop` around each timed region,
    and :meth:`read_counts` before a stack closes.  Use as a context
    manager so the patched attributes are always restored.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.spans: list[tuple] = []  # Span fields, as plain tuples
        self.counts: dict[str, int] = defaultdict(int)
        #: layers with a missing wrap target / a count hook that broke
        self.null_layers: set[str] = set()
        self.null_counts: set[str] = set()
        self._targets = targets
        self._ids = itertools.count()
        self._local = threading.local()
        self._on = False
        self._op = -1
        self._client = threading.get_ident()
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "TraceSession":
        """Wrap every resolvable target; null the layers of the others."""
        for target in self._targets:
            found = resolve(target.dotted)
            if found is None:
                if target.layer not in self.null_layers:
                    print(
                        f"bench.trace: {target.dotted} not found; layer "
                        f"{target.layer!r} is reported as null",
                        file=sys.stderr,
                    )
                self.null_layers.add(target.layer)
                continue
            owner, attr = found
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(target, attr, original))
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Restore every patched attribute."""
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # it was inherited: uncover it again
        self._undo.clear()

    def _wrap(self, target: Target, name: str, fn: Callable) -> Callable:
        layer, count = target.layer, target.count
        local, ids, counts = self._local, self._ids, self.counts
        record = self.spans.append

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._on:
                return fn(*args, **kwargs)
            # clock first and last: a wrapper's own bookkeeping is charged
            # to the layer it wraps, not to the caller's self time
            start = perf_counter_ns()
            try:
                stack = local.stack
            except AttributeError:  # first span on this thread
                stack = local.stack = []
                local.thread = threading.get_ident()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                op, thread = self._op, local.thread
                record(
                    (sid, layer, name, start, perf_counter_ns(), parent, op, thread)
                )
            if count is not None:
                try:
                    count(counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.null_counts.add(layer)
            return result

        return traced

    # -- the runner's probe interface -----------------------------------------

    def wrap_op(self, step: Callable) -> Callable:
        """The workload's op, numbering the ops so spans can name theirs."""

        def op(engine: Any, item: Any) -> Any:
            self._op += 1
            return step(engine, item)

        return op

    def start(self) -> None:
        """Begin recording: the timed region starts."""
        self._op = -1
        self._on = True

    def stop(self) -> None:
        """Stop recording: the timed region ended."""
        self._on = False
        self._op = -1

    def reset(self) -> None:
        """Drop what the warm-up repetition recorded."""
        self.spans.clear()
        self.counts.clear()

    def read_counts(self, stack: Any) -> dict[str, Any]:
        """Counters the program keeps itself, read at its public surface."""
        engine = stack.engine
        books = engine.accountant
        out: dict[str, Any] = {
            "copies": books.writes_total * len(stack.links),
            "journaled_records": books.journaled_records,
            "sketch_bytes": books.reconcile_sketch_bytes,
            "digest_bytes": books.reconcile_digest_bytes,
            "diff_bytes": books.reconcile_diff_bytes,
        }
        if engine.scheduler is not None:
            channels = engine.scheduler.snapshot()["channels"]
            out["stalls"] = sum(c["stalls"] for c in channels)
        if engine.router is not None:
            routed = engine.router.snapshot()
            for key in ("reads_primary", "reads_replica", "reads_conflict"):
                out[key] = routed[key]
        return out

    # -- reporting ------------------------------------------------------------

    def report(
        self, repetitions: list, traced: dict[str, Any], plain: dict[str, Any]
    ) -> dict[str, Any]:
        """The per-layer table and its companion ratios for one workload.

        Shares are of traced op latency: the time the loop's own clock saw
        inside the op calls, plus the final drain.  ``coverage`` is their
        sum; what is left is the benchmark's own op function and the entry
        cost of the outermost wrapper.
        """
        ops = traced["attempted"]
        in_ops = sum(int(r.latencies_ns.sum()) + r.drain_ns for r in repetitions)
        self_ns, calls = self_times(self.spans, self._client)
        table: dict[str, Any] = {}
        for layer in LAYERS:
            if layer in self.null_layers:
                table[layer] = None
                continue
            spent = self_ns.get(layer, 0)
            table[layer] = {
                "calls": calls.get(layer, 0),
                "self_us_per_op": spent / ops / 1e3,
                "share": spent / in_ops,
            }
        totals: dict[str, float] = defaultdict(float)
        for rep in repetitions:
            for key, value in rep.counts.items():
                totals[key] += value
        counts = self.counts
        heals = counts["engine.resilience.heals"]
        reads = totals["reads_primary"] + totals["reads_replica"]
        extras: dict[str, float | None] = {
            "parity.payload_ratio": _ratio(
                counts["parity.encoded_bytes"], counts["parity.block_bytes"]
            ),
            "iscsi.pdus_per_op": counts["iscsi.pdus"] / ops,
            "iscsi.wire_bytes_per_op": counts["iscsi.wire_bytes"] / ops,
            "engine.scheduler.stalls": totals["stalls"],
            "engine.scheduler.max_queue_depth": counts["scheduler.max_queue"],
            "engine.router.replica_share": _ratio(totals["reads_replica"], reads),
            "engine.router.conflict_share": _ratio(
                totals["reads_conflict"], reads
            ),
            "engine.resilience.journaled_share": _ratio(
                totals["journaled_records"], totals["copies"]
            ),
            "engine.resilience.rounds_per_heal": _ratio(
                counts["engine.resilience.rounds"], heals
            ),
            "engine.resilience.sketch_bytes_per_heal": _ratio(
                totals["sketch_bytes"], heals
            ),
            "engine.resilience.digest_bytes_per_heal": _ratio(
                totals["digest_bytes"], heals
            ),
            "engine.resilience.diff_bytes_per_heal": _ratio(
                totals["diff_bytes"], heals
            ),
        }
        for key in extras:
            layer = key.rsplit(".", 1)[0]
            if layer in self.null_layers or layer in self.null_counts:
                extras[key] = None
        in_layers = sum(self_ns.get(layer, 0) for layer in LAYERS)
        return {
            "table": table,
            "extras": extras,
            "trace_coverage": in_layers / in_ops,
            "traced_op_mean_us": in_ops / ops / 1e3,
            "trace_overhead": traced["op_p50_us"] / plain["op_p50_us"],
            "traced_ops": ops,
            "spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON (the run has ended)."""
        with open(path, "w") as out:
            json.dump([Span._make(s)._asdict() for s in self.spans], out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
