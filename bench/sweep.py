"""``python -m bench sweep``: a workload under config overrides, A/B interleaved.

An ungated developer tool.  It reruns one named workload with
``ReplicationConfig`` fields replaced (``transport=asyncio``,
``workers=threads``, ``old_block_cache=64``, ``batch_records=16``, ...)
and alternates base (A) and override (B) repetitions so drift on a shared
host lands on both sides.  It makes no claim and feeds no gate;
``bench/DECISIONS.md`` records what it showed on this host.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any

from bench import report
from bench.runner import (
    Repetition,
    pin_to_one_cpu,
    run_repetition,
    summarize,
)
from bench.stats import quartile_spread
from bench.workloads import WORKLOADS, Prepared


def parse_override(text: str) -> tuple[str, Any]:
    """``key=value`` with the value read as int, bool, none or string."""
    key, _, raw = text.partition("=")
    if not key or not raw:
        raise ValueError(f"expected KEY=VALUE, got {text!r}")
    lowered = raw.lower()
    if lowered in ("none", "true", "false"):
        return key, {"none": None, "true": True, "false": False}[lowered]
    try:
        return key, int(raw)
    except ValueError:
        return key, raw


def sweep(name: str, overrides: list[str], seed: int, seconds: float) -> int:
    """Alternate base and override repetitions for ``seconds``; print both.

    Pinned to one CPU like the gated runs, unless ``workers`` is among the
    overrides: thread and process backends exist to use the other cores.
    """
    changes = dict(parse_override(text) for text in overrides)
    cpu = None if "workers" in changes else pin_to_one_cpu()
    base = WORKLOADS[name](seed, False)
    changed = dataclasses.replace(
        base, config=dataclasses.replace(base.config, **changes)
    )
    sides: dict[str, tuple[Prepared, list[Repetition]]] = {
        "A": (base, []),
        "B": (changed, []),
    }
    for prepared, _ in sides.values():
        run_repetition(prepared)  # warm-up, discarded
    order = ["A", "B"]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(sides["B"][1]) < 3:
        for side in order:
            prepared, repetitions = sides[side]
            repetitions.append(run_repetition(prepared))
        order.reverse()
    summaries = {side: summarize(reps) for side, (_, reps) in sides.items()}
    pairs = list(
        zip(
            summaries["A"]["per_repetition"]["ops_per_s"],
            summaries["B"]["per_repetition"]["ops_per_s"],
        )
    )
    where = "unpinned" if cpu is None else f"pinned to CPU {cpu}"
    print(f"sweep {name} seed {seed} ({where}): B = A with {' '.join(overrides)}")
    print(f"{'metric':<28}{'A':>14}{'B':>14}{'B/A':>8}")
    for key in ("ops_per_s", "op_p50_us", "op_p95_us", "wire_bytes_per_user_byte"):
        a, b = summaries["A"][key], summaries["B"][key]
        print(f"{key:<28}{a:>14.4f}{b:>14.4f}{b / a:>8.3f}")
    spread_a, spread_b = (
        quartile_spread(summaries[side]["per_repetition"]["ops_per_s"])
        for side in ("A", "B")
    )
    print(
        f"B beat A on ops_per_s in {sum(b > a for a, b in pairs)} of "
        f"{len(pairs)} interleaved pairs; quartile spread of A "
        f"{spread_a:.3f}, of B {spread_b:.3f}"
    )
    line = {
        "meta": report.meta(seed, seconds, False, cpu),
        "workload": name,
        "overrides": overrides,
        **{
            side: {k: v for k, v in s.items() if k != "per_repetition"}
            for side, s in summaries.items()
        },
    }
    print(json.dumps(line))
    failed = any(s["failed"] or s["errors"] for s in summaries.values())
    return 1 if failed else 0
