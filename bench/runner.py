"""The measurement loop: set-up, warm-up, timed repetitions, checks.

Load model: a closed loop of one client thread in one process.  The
networked workloads cross the host's TCP loopback to in-process
``TargetServer`` threads; link rate and wire latency are not measured.

One run = set-up (repeated: its median is steady, and each set-up draws
another op stream from the seed) -> one discarded warm-up repetition ->
timed repetitions until ``seconds`` have passed, each on a fresh stack
built from its stream's start image.  After every repetition the stack is
drained, replicas are compared byte for byte with the primary, and the
traffic ledger must balance; every returned read must equal the contents
fixed at set-up.  This module never imports the tracing module: a traced
run hands in a ``probe`` object instead.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import statistics
import time
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any

import numpy as np

from bench.stats import percentile
from bench.workloads import WORKLOADS, Prepared
from repro.api import open_primary
from repro.common.errors import ReplicationError

#: set-ups per run, and the time cheap set-ups keep repeating for (at most
#: ``MAX_SETUPS`` of them); ``setup_s`` is the median of them all
SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 30
#: a run never reports fewer repetitions than this, however slow
MIN_REPETITIONS = 3


def pin_to_one_cpu() -> int | None:
    """Confine this process and its replica threads to one CPU; return it.

    On this 2-core host the three-replica workload otherwise flips between
    two speeds (~2.0 k and ~3.5 k ops/s) with where the kernel happens to
    wake the ``TargetServer`` threads, and no run length averages that out.
    None of the gated configurations overlaps primary and replica work —
    the client blocks on every ack — so one CPU loses nothing they could
    use.  ``sweep`` pins too, except when it overrides ``workers``: thread
    and process backends exist to use the other cores.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Repetition:
    """What one timed repetition measured."""

    #: which of the run's op streams it replayed
    stream: int
    attempted: int
    #: the op loop plus the final drain
    timed_ns: int
    #: the final drain alone
    drain_ns: int
    latencies_ns: np.ndarray
    #: bytes put on replica links, and logical bytes the user wrote
    wire_bytes: int
    user_bytes: int
    #: first failure (an op raised, or a post-repetition check failed)
    error: str | None = None
    #: counters read from the stack before it was closed (traced runs)
    counts: dict[str, Any] = field(default_factory=dict)


def set_up(name: str, seed: int, smoke: bool) -> tuple[Prepared, float]:
    """Generate the inputs and open (then close) one stack; time both.

    ``setup_s`` covers everything a run needs before its first timed
    operation: trace generation, start image, and ``open_primary``
    including the iSCSI login.  Work moved out of the timed region into
    any of those shows here.
    """
    started = time.perf_counter()
    prepared = WORKLOADS[name](seed, smoke)
    stack = open_primary(prepared.config, initial_image=prepared.image)
    elapsed = time.perf_counter() - started
    stack.close()
    return prepared, elapsed


def check(stack: Any, wrong_returns: int) -> str | None:
    """The correctness gate of one repetition; ``None`` means it passed."""
    stack.drain()
    if not stack.verify():
        return "a replica differs from the primary after drain"
    try:
        outstanding = stack.engine.verify_traffic_conservation()
    except ReplicationError as exc:
        return f"traffic conservation: {exc}"
    if any(outstanding.values()):
        return f"traffic ledger left bytes outstanding: {outstanding}"
    if wrong_returns:
        return f"{wrong_returns} reads returned stale or foreign contents"
    return None


def run_repetition(
    prepared: Prepared, stream: int = 0, probe: Any = None
) -> Repetition:
    """Replay one op stream once on a fresh stack and check the outcome.

    The timed region is the op loop plus the final ``drain()``; building
    the stack, collecting garbage, checking and closing are outside it.
    What an op returns is compared with the contents fixed at set-up
    between two ops — outside the op's latency, and without keeping
    40 000 returned blocks alive until the repetition ends.
    """
    stack = open_primary(prepared.config, initial_image=prepared.image)
    try:
        engine = stack.engine
        step = prepared.step if probe is None else probe.wrap_op(prepared.step)
        expected = prepared.expected or itertools.repeat(None)
        latencies: list[int] = []
        wrong_returns = 0
        error = None
        drain_began = 0
        gc.collect()
        if probe is not None:
            probe.start()
        began = perf_counter_ns()
        try:
            for op, want in zip(prepared.ops, expected):
                t0 = perf_counter_ns()
                out = step(engine, op)
                latencies.append(perf_counter_ns() - t0)
                if out != want:
                    wrong_returns += 1
            drain_began = perf_counter_ns()
            engine.drain()
        except Exception as exc:  # noqa: BLE001 - any failure fails the op
            error = f"op {len(latencies)} raised {type(exc).__name__}: {exc}"
        ended = perf_counter_ns()
        if probe is not None:
            probe.stop()
        attempted = min(len(latencies) + (error is not None), len(prepared.ops))
        if error is None:
            error = check(stack, wrong_returns)
        books = engine.accountant
        return Repetition(
            stream=stream,
            attempted=attempted,
            timed_ns=ended - began,
            drain_ns=ended - drain_began if drain_began else 0,
            latencies_ns=np.array(latencies, dtype=np.int64),
            wire_bytes=books.pdu_bytes + books.recovery_bytes,
            user_bytes=books.data_bytes,
            error=error,
            counts={} if probe is None else probe.read_counts(stack),
        )
    finally:
        stack.close()


def run_repetitions(
    streams: list[Prepared], seconds: float, probe: Any = None
) -> list[Repetition]:
    """One discarded warm-up, then repetitions until ``seconds`` passed.

    Repetitions take the run's op streams in turn, so every stream is
    replayed at least once and all of them equally often.
    """
    run_repetition(streams[0], 0, probe)
    if probe is not None:
        probe.reset()
    repetitions: list[Repetition] = []
    deadline = time.perf_counter() + seconds
    while len(repetitions) < MIN_REPETITIONS or time.perf_counter() < deadline:
        stream = len(repetitions) % len(streams)
        repetitions.append(run_repetition(streams[stream], stream, probe))
    return repetitions


def summarize(repetitions: list[Repetition]) -> dict[str, Any]:
    """Reduce repetitions to the timing metrics and the failure count.

    Each timing metric is the median over repetitions of that repetition's
    value (throughput, nearest-rank p50, nearest-rank p95): a repetition
    disturbed by the host moves a pooled p95 but not a median of p95s.
    Wire bytes are an exact count: every replay of one op stream must
    report the same bytes, and the ratio is taken over one replay of each.
    A failed repetition fails every operation it attempted: once a replica
    diverges or the ledger is off, none of its operations can be trusted.
    """
    failed = sum(r.attempted for r in repetitions if r.error is not None)
    errors = [r.error for r in repetitions if r.error is not None]
    traffic: dict[int, set[tuple[int, int]]] = {}
    for r in repetitions:
        traffic.setdefault(r.stream, set()).add((r.wire_bytes, r.user_bytes))
    for stream, seen in traffic.items():
        if len(seen) > 1:
            errors.append(
                f"wire bytes of op stream {stream} differ between its "
                f"repetitions: {sorted(seen)}"
            )
    wire = sum(min(seen)[0] for seen in traffic.values())
    user = sum(min(seen)[1] for seen in traffic.values())
    ordered = [np.sort(r.latencies_ns) for r in repetitions if len(r.latencies_ns)]
    per_repetition = {
        "ops_per_s": [r.attempted / (r.timed_ns / 1e9) for r in repetitions],
        "op_p50_us": [float(percentile(lat, 50)) / 1e3 for lat in ordered],
        "op_p95_us": [float(percentile(lat, 95)) / 1e3 for lat in ordered],
    }
    return {
        **{
            k: statistics.median(v) if v else 0.0
            for k, v in per_repetition.items()
        },
        "per_repetition": per_repetition,
        "wire_bytes_per_user_byte": wire / max(user, 1),
        "attempted": sum(r.attempted for r in repetitions),
        "failed": failed,
        "samples": sum(len(lat) for lat in ordered),
        "repetitions": len(repetitions),
        "errors": errors,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    probe: Any = None,
) -> dict[str, Any]:
    """Run one workload end to end; returns its result record.

    A run draws ``SETUPS`` op streams from ``seed`` (one per set-up, from
    the derived seeds ``seed * SETUPS + i``) and replays them in turn, so
    one run already averages over several traces: the TPC traces are short
    and heavy-tailed, and a single one moves the wire-byte ratio by a
    tenth between seeds.  Set-ups beyond ``SETUPS`` regenerate the same
    streams and must reproduce their hashes.

    ``probe`` is ``None`` for the untraced run that yields the end-to-end
    metrics.  A traced run passes a ``bench.trace.TraceSession``: the
    untraced repetitions then take half of ``seconds`` (their p50 is the
    base of ``trace_overhead``), followed by one traced warm-up and
    ``MIN_REPETITIONS`` traced repetitions — few, because every span is
    kept in memory until the run ends.
    """
    wanted = 1 if smoke else SETUPS
    streams: list[Prepared] = []
    setup_times: list[float] = []
    generate_times: list[float] = []
    errors: list[str] = []
    while len(setup_times) < wanted or (
        not smoke
        and sum(setup_times) < SETUP_BUDGET_S
        and len(setup_times) < MAX_SETUPS
    ):
        index = len(setup_times) % wanted
        prepared, elapsed = set_up(name, seed * SETUPS + index, smoke)
        setup_times.append(elapsed)
        generate_times.append(prepared.generate_s)
        if len(streams) < wanted:
            streams.append(prepared)
        elif prepared.stream_hash != streams[index].stream_hash:
            errors.append(f"op stream {index} changed when generated again")
    plain = summarize(
        run_repetitions(streams, seconds * (0.5 if probe else 1.0))
    )
    errors += plain.pop("errors")
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "description": streams[0].description,
        "transport": streams[0].config.transport,
        "stream_hash": hashlib.sha256(
            "".join(p.stream_hash for p in streams).encode()
        ).hexdigest(),
        "setup_s": statistics.median(setup_times),
        "generate_s": statistics.median(generate_times),
        **plain,
    }
    result["per_repetition"]["setup_s"] = setup_times
    if probe is not None:
        with probe:
            traced = run_repetitions(streams, 0.0, probe)
        summary = summarize(traced)
        errors += summary.pop("errors")
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        result["layers"] = probe.report(traced, summary, result)
        result["layers"]["workloads"] = {
            "calls": len(setup_times),
            "generate_ms": result["generate_s"] * 1e3,
            "setup_share": result["generate_s"] / result["setup_s"],
        }
    result["errors"] = errors
    result["correct"] = not errors and result["failed"] == 0
    return result
