#!/usr/bin/env python
"""Read-scaling benchmark: conflict-aware replica routing vs primary-only.

Replays a read-heavy TPC-W-style browsing mix (95% reads / 5% writes,
80/20 hot set) against one volume and counts, per storage server, how
many reads it served.  Read service time is uniform across servers, so
the deterministic makespan model is simply ``max(reads per server)`` and

    speedup = total_reads / max(reads per server)

normalized to 1.0x for ``read_policy="primary"`` (every read funnels
through the primary).  Counts are deterministic under the fixed seeds —
the sim-clock scheduler, round-robin router, and workload RNG have no
wall-clock dependence — so the CI gate checks them exactly, plus two
headline gates:

* **scaling** — with 4 replicas the routed policies must reach at least
  ``--min-read-speedup`` (default 3.0x);
* **identity** — every routed read must return byte-identical data to a
  primary read (asserted inline during the run), and the shipped
  payload bytes + final primary/replica images must be identical across
  every policy (routing changes *where reads are served*, never what is
  written or stored).

Usage::

    # refresh the tracked artifact (full sweep + smoke keys)
    PYTHONPATH=src python scripts/bench_read_scaling.py --out BENCH_read.json

    # CI smoke: re-run the smoke configs and gate against the artifact
    PYTHONPATH=src python scripts/bench_read_scaling.py --smoke \
        --check BENCH_read.json --min-read-speedup 3.0

Only the standard library + the repo itself are required.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import ReplicationConfig, open_primary  # noqa: E402
from repro.common.rng import make_rng  # noqa: E402
from repro.workloads.content import random_bytes  # noqa: E402

BLOCK = 4096
BLOCKS = 512
OPS = 8000
SMOKE_OPS = 2000
READ_FRACTION = 0.95  # TPC-W browsing mix: ~95% of ops are page reads
HOT_FRACTION = 0.2  # 20% of the volume takes 80% of the traffic
HOT_WEIGHT = 0.8

READ_SERVICE_S = 0.0002  # simulated read service time per op

POLICIES = ("primary", "replica", "least_loaded")
REPLICA_COUNTS = (2, 4)

SMOKE_POLICIES = ("primary", "replica")
SMOKE_REPLICA_COUNTS = (4,)


def _key(policy: str, replicas: int, ops: int) -> str:
    return f"{policy}/r{replicas}/{ops}"


def _build(policy: str, replicas: int):
    config = ReplicationConfig(
        block_size=BLOCK,
        num_blocks=BLOCKS,
        replicas=replicas,
        resilient=True,
        fanout="pipelined",
        window=8,
        link_latency_s=0.001,  # sim-clock latency: keeps work in flight
        read_policy=policy,
    )
    return open_primary(config)


def _count_reads(stack):
    """Wrap every server's read path with a gated counter.

    ``serving[0]`` is raised only around benchmark reads, so the
    engine's own device reads (A_old fetches on the write path) are
    not charged to read service.
    """
    serving = [False]
    counts: dict[str, int] = {}
    truth = stack.device.read_block  # unwrapped: ground-truth reads

    def wrap(device, name):
        counts[name] = 0
        original = device.read_block

        def counting(lba, _original=original, _name=name):
            if serving[0]:
                counts[_name] += 1
            return _original(lba)

        device.read_block = counting

    wrap(stack.device, "primary")
    for index, device in enumerate(stack.replica_devices):
        wrap(device, f"replica{index}")
    return serving, counts, truth


def _pump(engine):
    """A callable advancing the engine's sim clock by one read's service.

    Reads take time on whichever server serves them; while they run,
    in-flight acks land.  Without this, sim time would stand still
    through read-only stretches and every written LBA would stay dirty
    until the final drain — unrealistically inflating the conflict rate
    (identically across policies, but still).
    """
    sim = engine.scheduler.sim

    def pump() -> None:
        sim.run(sim.now + READ_SERVICE_S)

    return pump


def _workload(ops: int):
    """The deterministic op stream: ("read", lba) / ("write", lba, data)."""
    rng = make_rng(12, "tpcw-read-mix", ops)
    hot_blocks = max(1, int(BLOCKS * HOT_FRACTION))
    stream = []
    for _ in range(ops):
        if rng.random() < HOT_WEIGHT:
            lba = int(rng.integers(0, hot_blocks))
        else:
            lba = int(rng.integers(hot_blocks, BLOCKS))
        if rng.random() < READ_FRACTION:
            stream.append(("read", lba))
        else:
            stream.append(("write", lba, random_bytes(rng, BLOCK)))
    return stream


def _measure(policy: str, replicas: int, ops: int) -> dict:
    stack = _build(policy, replicas)
    serving, counts, truth = _count_reads(stack)
    engine = stack.engine
    # warm the volume so reads have real bytes to disagree about
    warm_rng = make_rng(5, "tpcw-warm")
    for lba in range(BLOCKS):
        engine.write_block(lba, random_bytes(warm_rng, BLOCK))
    engine.drain()

    pump = _pump(engine)
    total_reads = 0
    t0 = time.perf_counter()
    for step in _workload(ops):
        if step[0] == "read":
            total_reads += 1
            pump()
            serving[0] = True
            data = engine.read_block(step[1])
            serving[0] = False
            if data != truth(step[1]):
                raise AssertionError(
                    f"routed read of LBA {step[1]} diverged from the "
                    f"primary's bytes ({policy}, r={replicas})"
                )
        else:
            engine.write_block(step[1], step[2])
    wall_ms = (time.perf_counter() - t0) * 1e3
    engine.drain()

    image = hashlib.sha256(stack.device.snapshot())
    for device in stack.replica_devices:
        image.update(device.snapshot())
    if policy == "primary":
        router = {"reads_primary": total_reads, "reads_replica": 0,
                  "reads_conflict": 0}
    else:
        router = {k: v for k, v in engine.router.snapshot().items()
                  if k != "policy"}
    makespan = max(counts.values())
    result = {
        "total_reads": total_reads,
        "server_reads": dict(sorted(counts.items())),
        "makespan_reads": makespan,
        "speedup": round(total_reads / makespan, 3),
        "payload_bytes": int(engine.accountant.payload_bytes),
        "image_sha": image.hexdigest(),
        "wall_ms": round(wall_ms, 2),
        **router,
    }
    stack.engine.close()
    return result


def bench_all(ops: int, policies, replica_counts) -> dict:
    results: dict[str, dict] = {}
    for replicas in replica_counts:
        for policy in policies:
            key = _key(policy, replicas, ops)
            results[key] = _measure(policy, replicas, ops)
            r = results[key]
            print(
                f"  {key:28s} speedup {r['speedup']:>6.3f}x"
                f"  conflicts {r['reads_conflict']:>5,}"
                f"  {r['wall_ms']:>8.1f} ms"
            )
    return results


def _identity_failures(results: dict) -> list[str]:
    """Payload bytes and images must agree across every same-shape cell."""
    failures = []
    by_shape: dict[tuple, dict[str, tuple]] = {}
    for key, r in results.items():
        policy, rr, ops = key.split("/")
        by_shape.setdefault((rr, ops), {})[key] = (
            r["payload_bytes"], r["image_sha"],
        )
    for shape, cells in sorted(by_shape.items()):
        if len({v for v in cells.values()}) > 1:
            failures.append(
                f"r={shape[0]} ops={shape[1]}: payload/image identity "
                f"broken across {sorted(cells)}"
            )
    return failures


def _check(results: dict, recorded_path: str, min_speedup: float) -> int:
    """Gate a fresh run against the tracked artifact.

    (1) all counts are deterministic, so every fresh number must match
    the recorded one exactly; (2) routed policies must hit the read
    speedup floor at 4 replicas; (3) payload bytes and final images
    must be identical across every policy of a shape.
    """
    recorded = json.loads(Path(recorded_path).read_text()).get("results", {})
    failures = []
    for key, fresh in sorted(results.items()):
        ref = recorded.get(key)
        if ref is None:
            failures.append(f"{key}: missing from {recorded_path}")
            continue
        for field in ("server_reads", "payload_bytes", "image_sha",
                      "reads_conflict"):
            if fresh[field] != ref[field]:
                failures.append(
                    f"{key}: {field} {fresh[field]} != recorded "
                    f"{ref[field]} (routing changed? refresh artifact)"
                )
    for key, fresh in sorted(results.items()):
        policy, rr, _ = key.split("/")
        if policy == "primary" or rr != "r4":
            continue
        marker = "FAIL" if fresh["speedup"] < min_speedup else "ok"
        print(
            f"  gate {key:28s} {fresh['speedup']:6.3f}x "
            f"(floor {min_speedup:.1f}x)   [{marker}]"
        )
        if fresh["speedup"] < min_speedup:
            failures.append(
                f"{key}: read speedup {fresh['speedup']:.3f}x below the "
                f"{min_speedup:.1f}x floor"
            )
    failures.extend(_identity_failures(results))
    if failures:
        print("READ-SCALING GATE FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"all read-scaling benchmarks match {recorded_path}; routed reads "
        f"scale >= {min_speedup:.1f}x at 4 replicas with byte-identical "
        f"payloads and images"
    )
    return 0


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_read.json"),
        help="JSON artifact to write (full runs also record smoke keys)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller op count / reduced grid for CI",
    )
    parser.add_argument(
        "--check", metavar="PATH", default=None,
        help="gate this run against the artifact at PATH instead of writing",
    )
    parser.add_argument(
        "--min-read-speedup", type=float, default=3.0,
        help="with --check: read speedup floor at 4 replicas (default 3.0)",
    )
    args = parser.parse_args(argv)

    print(f"read-scaling benchmark (smoke={args.smoke})")
    if args.smoke:
        results = bench_all(SMOKE_OPS, SMOKE_POLICIES, SMOKE_REPLICA_COUNTS)
    else:
        results = bench_all(OPS, POLICIES, REPLICA_COUNTS)
        # full runs also capture the smoke keys so CI can gate exactly
        results.update(
            bench_all(SMOKE_OPS, SMOKE_POLICIES, SMOKE_REPLICA_COUNTS)
        )

    if args.check:
        return _check(results, args.check, args.min_read_speedup)

    failures = _identity_failures(results)
    if failures:
        print("IDENTITY CHECK FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1

    doc = {
        "schema": 1,
        "config": {
            "block_size": BLOCK,
            "volume_blocks": BLOCKS,
            "read_fraction": READ_FRACTION,
            "hot_fraction": HOT_FRACTION,
            "hot_weight": HOT_WEIGHT,
            "ops": {"full": OPS, "smoke": SMOKE_OPS},
            "units": {
                "speedup": "total_reads / max reads served by one server",
                "wall_ms": "replay wall-clock, informational only",
            },
            "key": "policy/r<replicas>/<ops>",
        },
        "results": results,
        "meta": {
            "git": _git_rev(),
            "python": sys.version.split()[0],
            "captured_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "smoke": args.smoke,
        },
    }
    Path(args.out).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nresults written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
