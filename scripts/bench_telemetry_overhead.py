#!/usr/bin/env python
"""Telemetry-overhead smoke gate: live tracing must stay cheap.

Times the PRINS engine write path through the shared no-op telemetry
singletons (``NULL_TELEMETRY``, the library default), under a live
:class:`repro.obs.Telemetry` recording the coarse causal stage spans
(the default detail level), and under ``Telemetry(detail=True)``
recording every sub-stage span — then gates on the live/null ratio::

    PYTHONPATH=src python scripts/bench_telemetry_overhead.py --max-slowdown 1.15

(``--smoke`` times 500 writes per mode instead of 3000, for a quick look.)

The three engines are interleaved at *single-write* granularity — every
round issues one timed write per mode, mode order rotating — and the
gated ratio compares **median per-write times**.  Interleaving this
finely makes drift on a shared runner (thermal throttling, noisy
neighbours) land on all modes symmetrically, and the median discards
the writes an interrupt or migration spiked outright.  The gate applies
to the default detail level; the ``detail=True`` ratio is reported (and
written to the JSON) as documentation of what the opt-in fine spans
cost.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from time import perf_counter_ns

sys.path.insert(0, "src")

from repro.block import MemoryBlockDevice  # noqa: E402
from repro.common.rng import make_rng  # noqa: E402
from repro.engine import (  # noqa: E402
    DirectLink,
    PrimaryEngine,
    ReplicaEngine,
    make_strategy,
)
from repro.obs import NULL_TELEMETRY, Telemetry  # noqa: E402
from repro.workloads.content import mutate_fraction, random_bytes  # noqa: E402

BLOCK_SIZE = 8192
#: interleaved timed writes per mode, and untimed warm-up writes
FULL_WRITES, FULL_WARMUP = 3000, 200
SMOKE_WRITES, SMOKE_WARMUP = 500, 50


class _Mode:
    """One timed configuration: an engine and its per-write times."""

    def __init__(self, name: str, telemetry) -> None:
        self.name = name
        rng = make_rng(5, "telemetry-overhead")
        old = random_bytes(rng, BLOCK_SIZE)
        new = mutate_fraction(old, 0.10, rng)
        primary = MemoryBlockDevice(BLOCK_SIZE, 16)
        replica = MemoryBlockDevice(BLOCK_SIZE, 16)
        primary.write_block(3, old)
        replica.write_block(3, old)
        strategy = make_strategy("prins")
        self.engine = PrimaryEngine(
            primary,
            strategy,
            [DirectLink(ReplicaEngine(replica, strategy))],
            telemetry=telemetry,
        )
        self.old = old
        self.new = new
        self.flip = False
        self.times_ns: list[int] = []

    def write_once(self) -> None:
        """Run and record one timed write (alternating content)."""
        self.flip = flip = not self.flip
        data = self.new if flip else self.old
        engine = self.engine
        start = perf_counter_ns()
        engine.write_block(3, data)
        self.times_ns.append(perf_counter_ns() - start)


def run_modes(writes: int, warmup: int) -> dict:
    """Interleave single writes across modes; compare median write times."""
    modes = [
        _Mode("null", NULL_TELEMETRY),
        _Mode("live", Telemetry()),
        _Mode("detail", Telemetry(detail=True)),
    ]
    for mode in modes:
        for _ in range(warmup):
            mode.write_once()
        mode.times_ns.clear()
    gc.disable()
    try:
        for round_no in range(writes):
            # rotate who goes first so periodic noise (timer interrupts,
            # neighbours) cancels across modes instead of always taxing
            # the same one
            lead = round_no % len(modes)
            for mode in modes[lead:] + modes[:lead]:
                mode.write_once()
    finally:
        gc.enable()
    null, live, detail = (
        statistics.median(mode.times_ns) for mode in modes
    )
    return {
        "null_write_us": null / 1e3,
        "live_write_us": live / 1e3,
        "detail_write_us": detail / 1e3,
        "slowdown": live / null,
        "detail_slowdown": detail / null,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--writes", type=int, default=None)
    parser.add_argument("--warmup", type=int, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"a quick run: {SMOKE_WRITES} interleaved writes per mode "
        f"instead of {FULL_WRITES} (explicit --writes/--warmup still win)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when live/null (default detail) exceeds RATIO (e.g. 1.15)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write results JSON"
    )
    args = parser.parse_args(argv)
    if args.writes is None:
        args.writes = SMOKE_WRITES if args.smoke else FULL_WRITES
    if args.warmup is None:
        args.warmup = SMOKE_WARMUP if args.smoke else FULL_WARMUP

    result = run_modes(args.writes, args.warmup)
    ratio = result["slowdown"]
    detail_ratio = result["detail_slowdown"]
    for name in ("null", "live", "detail"):
        print(
            f"{name:>6} telemetry: "
            f"{result[f'{name}_write_us']:8.2f} us/write "
            f"(median of {args.writes} interleaved writes)"
        )
    print(
        f"slowdown (median write time ratio): {ratio:.3f}x  "
        f"(detail: {detail_ratio:.3f}x)"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"writes": args.writes, **result}, handle, indent=2)
        print(f"results written to {args.out}")
    if args.max_slowdown is not None and ratio > args.max_slowdown:
        print(
            f"FAIL: live telemetry slows the write path {ratio:.3f}x "
            f"(budget {args.max_slowdown:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
