"""Result records: the ``meta`` block, metric tables, and comparisons."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Any

from bench.spec import ROOT, Metric, Spec
from bench.stats import quartile_spread

def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def meta(
    seed: int, seconds: float, smoke: bool, pinned_cpu: int | None = None
) -> dict[str, Any]:
    """The one ``meta`` block every result file carries."""
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "argv": sys.argv[1:],
        "load_model": "closed loop, 1 client thread, 1 process"
        + ("" if pinned_cpu is None else ", pinned to one CPU"),
        "network": "TCP loopback to in-process TargetServer threads "
        "(tcp workloads) or in-process calls (inline workloads); link rate "
        "and wire latency are not measured",
    }


def end_to_end(result: dict[str, Any], spec: Spec) -> dict[str, dict]:
    """Every end-to-end metric of one result, by name, with its unit."""
    return {
        m.name: {"value": result[m.name], "unit": m.unit}
        for m in spec.end_to_end
    }


def per_layer(result: dict[str, Any], spec: Spec) -> dict[str, dict]:
    """Every per-layer metric of one traced result, by name, with its unit.

    A layer whose wrap target is missing is ``null`` in the result record;
    here it reads 0 so the line stays numeric (the warning already went to
    standard error).
    """
    layers = result["layers"]
    flat: dict[str, Any] = dict(layers["extras"])
    for layer, row in layers["table"].items():
        for key in ("calls", "self_us_per_op", "share"):
            flat[f"{layer}.{key}"] = None if row is None else row[key]
    for key, value in layers["workloads"].items():
        flat[f"workloads.{key}"] = value
    for key in ("trace_overhead", "trace_coverage", "traced_op_mean_us"):
        flat[key] = layers[key]
    return {
        m.name: {"value": flat[m.name] or 0, "unit": m.unit}
        for m in spec.per_layer
    }


def print_result(result: dict[str, Any], spec: Spec) -> None:
    """Print one workload's metrics by name, with units, for a reader."""
    name = result["workload"]
    print(f"== {name}: {result['description']}")
    print(
        f"   seed {result['seed']}, {result['transport']} transport, "
        f"{result['repetitions']} repetitions, {result['samples']} latency "
        f"samples, op stream {result['stream_hash'][:12]}"
    )
    for metric in spec.end_to_end:
        print(
            f"   {metric.name:<28}{result[metric.name]:>14.4f} {metric.unit:<6}"
            f"({metric.better} is better, bound {metric.bound:g})"
        )
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':<28}{share:>14.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in result["errors"]:
        print(f"   ERROR: {error}")
    if "layers" in result:
        print_layers(result["layers"])


def print_layers(layers: dict[str, Any]) -> None:
    """Print the per-layer table of one traced result."""
    print(f"   {'layer':<20}{'calls':>10}{'self us/op':>14}{'share':>9}")
    for layer, row in layers["table"].items():
        if row is None:
            print(f"   {layer:<20}{'null':>10}{'null':>14}{'null':>9}")
        else:
            print(
                f"   {layer:<20}{row['calls']:>10}"
                f"{row['self_us_per_op']:>14.3f}{row['share']:>9.3f}"
            )
    print(
        f"   layers cover {layers['trace_coverage']:.3f} of traced op latency "
        f"({layers['traced_op_mean_us']:.3f} us/op over {layers['traced_ops']} "
        f"ops, {layers['spans']} spans); trace_overhead "
        f"{layers['trace_overhead']:.3f}x of untraced op_p50_us"
    )
    for key, value in layers["extras"].items():
        if value:
            print(f"   {key:<44}{value:>14.4f}")
    work = layers["workloads"]
    print(
        f"   workloads: {work['generate_ms']:.1f} ms per set-up in trace "
        f"generation, {work['setup_share']:.3f} of setup_s"
    )


def spread_within(result: dict[str, Any], name: str) -> float:
    """Quartile spread of one metric's per-repetition values (0 if exact)."""
    values = result["per_repetition"].get(name, ())
    return quartile_spread(values) if len(values) > 1 else 0.0


def verdict(metric: Metric, base: dict, new: dict) -> str:
    """Classify one workload x metric pair against the metric's bound.

    ``unresolved`` when either side's own per-repetition spread exceeds
    the bound: such a pair can show neither a change nor its absence.
    Otherwise ``worse``/``better`` when the medians differ by more than
    the bound, else ``same``.
    """
    bound = metric.bound or 0.0
    noisy = max(
        spread_within(base, metric.name), spread_within(new, metric.name)
    )
    if noisy > bound:
        return "unresolved"
    worsening = metric.worsening(base[metric.name], new[metric.name])
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: Spec) -> list[tuple[str, str, str]]:
    """Print one row per workload x metric of B against A; return the rows.

    Ratios are printed with their base: ``B/A`` next to A's value.  Each
    returned row is ``(workload, metric, verdict)``; a same-seed pair whose
    op stream or wire bytes differ, and a B that failed operations, add a
    row with the verdict ``broken``.
    """
    rows = []
    print(f"{'workload':<14}{'metric':<26}{'A':>14}{'B':>14}{'B/A':>8}  verdict")
    for name in spec.workloads:
        if name not in a["results"] or name not in b["results"]:
            continue
        base, new = a["results"][name], b["results"][name]
        for metric in spec.end_to_end:
            kind = verdict(metric, base, new)
            va, vb = base[metric.name], new[metric.name]
            print(
                f"{name:<14}{metric.name:<26}{va:>14.4f}{vb:>14.4f}"
                f"{vb / va:>8.3f}  {kind} (bound {metric.bound:g} of A)"
            )
            rows.append((name, metric.name, kind))
        if base["seed"] == new["seed"]:
            for key in ("stream_hash", "wire_bytes_per_user_byte"):
                if base[key] != new[key]:
                    print(f"{name:<14}{key} differs for the same seed")
                    rows.append((name, key, "broken"))
        if not new["correct"]:
            print(f"{name:<14}B failed {new['failed']} operations")
            rows.append((name, "failed_share", "broken"))
    return rows
