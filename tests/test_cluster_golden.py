"""Golden pin of the multi-node cluster's ledgers, checks and images.

Each cell builds a cluster through :func:`repro.api.open_cluster` — mirror
4 × 2 with the PRINS and the traditional strategy, a batched pipelined
mirror, a resilient mirror behind seeded 30 % faulty links healed with
``heal_all``, and an erasure cluster taken through fail → failover read →
heal → lost holder → ``repair_node`` — and compares, with the dict stored
in ``cluster_golden.json``:

* every node's ``engine.accountant.snapshot()``;
* ``verify()`` and ``verify_detailed()``;
* the cluster's ``total_*`` counters and ``mean_payload_per_write()``;
* a sha256 of every primary image and of every hosted replica image,
  keyed ``"<primary>-><host>"``.

Any change to how a cluster wires, ships, books or heals shows up here
as a diff.  To re-record after a deliberate change, run
``PYTHONPATH=src python tests/test_cluster_golden.py`` and review the
JSON diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import ReplicationConfig, open_cluster
from repro.common.rng import make_rng
from repro.engine import FaultyLink, ResilienceConfig

GOLDEN = Path(__file__).with_name("cluster_golden.json")
BS = 512
N = 16


def _writes(count: int, nodes: int, seed: int) -> list[tuple[int, int, bytes]]:
    """Sparse page edits on random nodes, with an unchanged rewrite now and then."""
    rng = make_rng(seed, "cluster-golden")
    images = {(node, lba): bytes(BS) for node in range(nodes) for lba in range(N)}
    out: list[tuple[int, int, bytes]] = []
    for i in range(count):
        node = int(rng.integers(0, nodes))
        lba = int(rng.integers(0, N))
        page = bytearray(images[(node, lba)])
        if i % 9 != 4:  # every ninth write rewrites the page unchanged
            start = int(rng.integers(0, BS - 64))
            page[start : start + 40] = rng.integers(
                0, 256, 40, dtype="u1"
            ).tobytes()
        images[(node, lba)] = bytes(page)
        out.append((node, lba, images[(node, lba)]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pairs(mapping: dict) -> dict:
    return {f"{p}->{r}": value for (p, r), value in sorted(mapping.items())}


def _checks(cluster) -> dict:
    report = cluster.verify_detailed()
    return {
        "verify": _pairs(cluster.verify()),
        "verify_detailed": {
            "diverged": _pairs(report.diverged),
            "pending": _pairs(report.pending),
        },
    }


def _pin(cluster) -> dict:
    """Everything the cell pins, read through the engines' own devices."""
    images = {}
    for primary_id, node in enumerate(cluster.nodes):
        engine = node.engine
        images[f"{primary_id}"] = _sha(engine.device.snapshot())
        for index, host in enumerate(cluster.placement[primary_id]):
            hosted = engine.links[index].sync_device()
            images[f"{primary_id}->{host}"] = _sha(hosted.snapshot())
    return {
        **_checks(cluster),
        "accountants": [
            node.engine.accountant.snapshot() for node in cluster.nodes
        ],
        "totals": {
            "payload_bytes": cluster.total_payload_bytes,
            "data_bytes": cluster.total_data_bytes,
            "retry_bytes": cluster.total_retry_bytes,
            "resync_bytes": cluster.total_resync_bytes,
            "recovery_bytes": cluster.total_recovery_bytes,
            "mean_payload_per_write": cluster.mean_payload_per_write(),
        },
        "images": images,
    }


def _mirror_cell(**overrides) -> dict:
    config = ReplicationConfig(
        block_size=BS, num_blocks=N, nodes=4, replicas=2, **overrides
    )
    cluster = open_cluster(config)
    try:
        for node, lba, data in _writes(120, nodes=4, seed=1):
            cluster.write(node, lba, data)
        cluster.drain()
        return _pin(cluster)
    finally:
        cluster.close()


def _faulty_cell() -> dict:
    def factory(primary_id, replica_id, link):
        return FaultyLink(
            link,
            drop_probability=0.2,
            error_probability=0.1,
            rng=make_rng(11, "golden-flaky", primary_id, replica_id),
        )

    config = ReplicationConfig(
        block_size=BS, num_blocks=N, nodes=4, replicas=2
    )
    cluster = open_cluster(
        config, link_factory=factory, resilience=ResilienceConfig()
    )
    try:
        for node, lba, data in _writes(120, nodes=4, seed=2):
            cluster.write(node, lba, data)
        outcomes = cluster.heal_all()
        return {
            "heal_modes": _pairs(
                {pair: outcome.mode for pair, outcome in outcomes.items()}
            ),
            **_pin(cluster),
        }
    finally:
        cluster.close()


def _erasure_cell() -> dict:
    config = ReplicationConfig(
        block_size=BS,
        num_blocks=N,
        nodes=8,
        redundancy="erasure",
        k=4,
        n=6,
        resilient=True,
    )
    cluster = open_cluster(config)
    try:
        for node, lba, data in _writes(80, nodes=8, seed=3):
            cluster.write(node, lba, data)
        pinned = {}
        cluster.fail_node(0)
        for node, lba, data in _writes(40, nodes=8, seed=4):
            if node != 0:
                cluster.write(node, lba, data)
        pinned["failover_reads"] = [
            _sha(cluster.read_from_replica(0, lba)) for lba in range(N)
        ]
        pinned["degraded"] = _checks(cluster)
        pinned["heal_modes"] = {
            str(primary): outcome.mode
            for primary, outcome in sorted(cluster.heal_node(0).items())
        }
        victim = cluster.placement[0][2]
        for primary_id, hosts in cluster.placement.items():
            if victim in hosts:  # the victim's disk is lost
                lost = cluster.nodes[primary_id].engine.links[
                    hosts.index(victim)
                ].sync_device()
                lost.load(bytes(lost.block_size * lost.num_blocks))
        pinned["lost"] = _checks(cluster)
        pinned["repairs"] = {
            str(primary): dataclasses.asdict(report)
            for primary, report in sorted(cluster.repair_node(victim).items())
        }
        pinned.update(_pin(cluster))
        return pinned
    finally:
        cluster.close()


CELLS = {
    "mirror_prins": lambda: _mirror_cell(),
    "mirror_traditional": lambda: _mirror_cell(strategy="traditional"),
    "mirror_batch4_pipelined": lambda: _mirror_cell(
        batch_records=4, fanout="pipelined", window=2
    ),
    "resilient_faulty_heal_all": _faulty_cell,
    "erasure_k4_n6_repair": _erasure_cell,
}


def _normalize(pinned: dict) -> dict:
    """Round-trip through JSON, as the pins are stored."""
    return json.loads(json.dumps(pinned))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cluster_matches_golden(cell):
    golden = json.loads(GOLDEN.read_text())
    assert _normalize(CELLS[cell]()) == golden[cell]


def test_cells_exercise_recovery():
    """The pins only prove something if the faults actually bit."""
    golden = json.loads(GOLDEN.read_text())
    faulty = golden["resilient_faulty_heal_all"]
    assert faulty["totals"]["retry_bytes"] and faulty["totals"]["resync_bytes"]
    assert faulty["verify"] == {}
    erasure = golden["erasure_k4_n6_repair"]
    assert erasure["degraded"]["verify_detailed"]["pending"]
    assert erasure["lost"]["verify"]
    assert all(r["written_bytes"] for r in erasure["repairs"].values())
    assert erasure["verify"] == {}


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: _normalize(CELLS[name]()) for name in sorted(CELLS)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
