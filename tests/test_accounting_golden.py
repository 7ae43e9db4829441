"""Golden pin of ``TrafficAccountant.snapshot()`` across every charging path.

Each cell drives one engine shape — mirror (1 and 3 replicas), a batch
window, the erasure tier with a survivor repair, a strict partial
failure and a resilient fail → degraded writes → heal cycle on each heal
tier — and compares the accountant's full snapshot with the dict stored
in ``accountant_golden.json``.  Any change to what the ledger books,
where, or how the snapshot is shaped shows up here as a diff.

The pins were recorded from the engine itself; to re-record them after a
deliberate accounting change, run ``PYTHONPATH=src python
tests/test_accounting_golden.py`` and review the JSON diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ReplicationConfig, open_primary
from repro.block import MemoryBlockDevice
from repro.common.errors import PartialReplicationError
from repro.common.rng import make_rng
from repro.engine import (
    DirectLink,
    FaultyLink,
    PrimaryEngine,
    ReplicaEngine,
    ResilienceConfig,
    make_strategy,
)

GOLDEN = Path(__file__).with_name("accountant_golden.json")
BS = 512
N = 16


def _writes(count: int, seed: int) -> list[tuple[int, bytes]]:
    """Sparse page edits over a few hot LBAs, with one no-op rewrite."""
    rng = make_rng(seed, "accountant-golden")
    image = {lba: bytes(BS) for lba in range(N)}
    out: list[tuple[int, bytes]] = []
    for i in range(count):
        lba = int(rng.integers(0, 6))
        page = bytearray(image[lba])
        if i % 7 != 3:  # every seventh write rewrites the page unchanged
            start = int(rng.integers(0, BS - 40))
            page[start : start + 24] = rng.integers(
                0, 256, 24, dtype="u1"
            ).tobytes()
        image[lba] = bytes(page)
        out.append((lba, image[lba]))
    return out


def _stack_cell(**overrides) -> dict:
    config = ReplicationConfig(block_size=BS, num_blocks=N, **overrides)
    with open_primary(config) as stack:
        for lba, data in _writes(21, seed=1):
            stack.engine.write_block(lba, data)
        # an edit and its undo: a batch window of its own merges them
        # to a no-op (flush_batch is a no-op on unbatched engines)
        stack.engine.flush_batch()
        stack.engine.write_block(N - 1, b"\x01" * BS)
        stack.engine.write_block(N - 1, bytes(BS))
        stack.drain()
        if config.redundancy == "erasure":
            stack.repair_fragment(1)
        stack.engine.verify_traffic_conservation()
        return stack.engine.accountant.snapshot()


def _engine(links, **kwargs) -> PrimaryEngine:
    return PrimaryEngine(
        MemoryBlockDevice(BS, N), make_strategy("prins"), links, **kwargs
    )


def _replica_link() -> FaultyLink:
    replica = ReplicaEngine(MemoryBlockDevice(BS, N), make_strategy("prins"))
    return FaultyLink(DirectLink(replica))


def _strict_partial() -> dict:
    healthy, flaky = _replica_link(), _replica_link()
    engine = _engine([healthy, flaky])
    writes = _writes(10, seed=2)
    for lba, data in writes[:6]:
        engine.write_block(lba, data)
    flaky.kill()
    for i, (lba, data) in enumerate(writes[6:]):
        if i == 3:
            healthy.kill()  # nothing delivers: a failed write
        with pytest.raises(PartialReplicationError):
            engine.write_block(lba, data)
    return engine.accountant.snapshot()


def _resilient_heal(resync: str, capacity: int) -> dict:
    """Two guarded replicas; replica 1 fails, takes degraded writes, heals.

    Replica 0 drops two ships meanwhile: one costs a retry, the other
    exhausts its retries, so one write is journaled on both replicas and
    replica 0 replays it on the next write.  ``capacity`` below the
    degraded backlog forces the resync tiers; above it the heal replays.
    """
    healthy, flaky = _replica_link(), _replica_link()
    engine = _engine(
        [healthy, flaky],
        resilience=ResilienceConfig(
            backlog_capacity_bytes=capacity, resync=resync
        ),
    )
    writes = _writes(24, seed=3)
    for lba, data in writes[:8]:
        engine.write_block(lba, data)
    engine.fail_link(1)
    for i, (lba, data) in enumerate(writes[8:]):
        if i == 0:
            healthy.fail_next(1, "drop")  # one retry, then delivered
        elif i == 1:
            healthy.fail_next(4, "drop")  # retries exhausted: journaled
        engine.write_block(lba, data)
    engine.heal_link(1)
    engine.verify_traffic_conservation()
    return engine.accountant.snapshot()


CELLS = {
    "mirror_r1": lambda: _stack_cell(),
    "mirror_r3": lambda: _stack_cell(replicas=3),
    "mirror_r3_batch4": lambda: _stack_cell(replicas=3, batch_records=4),
    "erasure_k2_n3_repair": lambda: _stack_cell(
        redundancy="erasure", k=2, n=3
    ),
    "strict_partial": _strict_partial,
    "resilient_replay": lambda: _resilient_heal("reconcile", 1 << 20),
    "resilient_reconcile": lambda: _resilient_heal("reconcile", 300),
    "resilient_digest": lambda: _resilient_heal("digest", 300),
}


def _normalize(snapshot: dict) -> dict:
    """Round-trip through JSON, as the pins are stored."""
    return json.loads(json.dumps(snapshot))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_snapshot_matches_golden(cell):
    golden = json.loads(GOLDEN.read_text())
    assert _normalize(CELLS[cell]()) == golden[cell]


def test_cells_exercise_every_flow():
    """The pins only prove something if each flow is non-zero somewhere."""
    golden = json.loads(GOLDEN.read_text())
    rows = [
        row
        for snap in golden.values()
        for row in snap["per_replica"].values()
    ]
    for key in (
        "ships",
        "fragment_ships",
        "journaled_bytes",
        "replayed_bytes",
        "dropped_bytes",
        "retry_bytes",
        "resync_bytes",
        "reconciles",
        "reconcile_sketch_bytes",
        "reconcile_digest_bytes",
        "reconcile_diff_bytes",
        "repair_read_bytes",
        "repair_write_bytes",
    ):
        assert any(row[key] for row in rows), key
    totals = list(golden.values())
    for key in ("writes_skipped", "writes_failed", "writes_journaled"):
        assert any(snap[key] for snap in totals), key
    assert any(snap["batching"]["records_elided"] for snap in totals)
    assert any(snap["erasure"]["fragments_elided"] for snap in totals)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: _normalize(CELLS[name]()) for name in sorted(CELLS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
