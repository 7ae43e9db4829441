"""The five workloads: op streams made from a seed, and the op that runs them.

Every workload is a closed loop of one client: the caller waits for each
operation before issuing the next, as a block device under a DBMS is used.
A workload's set-up turns ``--seed`` into a start image plus a fixed op
stream; the program under test only ever sees those generated inputs.
``bench/README.md`` records why each workload exists and which layer it
stresses.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api import ReplicationConfig
from repro.experiments.harness import capture_tpcc_trace, capture_tpcw_trace
from repro.workloads.tpcc import TpccConfig
from repro.workloads.tpcw import TpcwConfig

PAGE = 8192  # the DBMS page size of the TPC traces
#: the TPC traces touch < 200 blocks; a 1024-block (8 MiB) volume keeps a
#: fresh stack per repetition at ~10 ms instead of ~200 ms
TPC_BLOCKS = 1024
BULK_BLOCK = 65536
#: 256 x 64 KiB = 16 MiB per device: beyond this host's last-level cache
BULK_LBAS = 256
#: distinct payload blocks; coprime with BULK_LBAS so an LBA never
#: receives the bytes it already holds (PRINS would skip that write)
BULK_POOL = 61
#: writes per outage: a few hundred bytes each, 60 of them overflow the
#: 8 KiB journal so every heal must take the reconcile tier
OUTAGE_WRITES = 60
OUTAGE_BACKLOG = 8192
READS_PER_WRITE = 9


class OperationFailed(RuntimeError):
    """An operation completed but its outcome was not the required one."""


@dataclass
class Prepared:
    """One workload's inputs, ready to replay on fresh stacks."""

    config: ReplicationConfig
    image: bytes | None
    ops: list
    step: Callable[[Any, Any], Any]
    #: per-op expected return value (``None`` where nothing is returned)
    expected: list | None
    stream_hash: str
    #: seconds spent inside the ``workloads`` layer (trace generation)
    generate_s: float
    #: one line for the report: what a repetition consists of
    description: str


# -- the operations ------------------------------------------------------------


def write_step(engine: Any, op: tuple[int, bytes]) -> None:
    """One op of the write workloads: a single ``write_block``."""
    engine.write_block(op[0], op[1])


def mixed_step(engine: Any, op: tuple[int, bytes | None]) -> bytes | None:
    """One op of the read mix: a routed ``read_block`` or a ``write_block``."""
    data = op[1]
    if data is None:
        return engine.read_block(op[0])
    engine.write_block(op[0], data)
    return None


def outage_step(engine: Any, writes: list[tuple[int, bytes]]) -> None:
    """One outage cycle: fail replica 1, write degraded, heal, check."""
    engine.fail_link(1)
    for lba, data in writes:
        engine.write_block(lba, data)
    outcome = engine.heal_link(1)
    if outcome.tiers != ("reconcile",):
        raise OperationFailed(f"heal took tiers {outcome.tiers!r}")
    health = engine.link_health()[1]
    if health != "healthy":
        raise OperationFailed(f"link 1 is {health!r} after heal")


# -- op-stream construction ----------------------------------------------------


def _stream_hash(image: bytes | None, ops: list) -> str:
    """SHA-256 over the start image and every op's address and contents."""
    digest = hashlib.sha256()
    digest.update(zlib.crc32(image or b"").to_bytes(4, "little"))
    crcs: dict[int, int] = {}  # payload blocks repeat; hash each once

    def feed(lba: int, data: bytes | None) -> None:
        digest.update(lba.to_bytes(4, "little"))
        if data is not None:
            crc = crcs.get(id(data))
            if crc is None:
                crc = crcs[id(data)] = zlib.crc32(data)
            digest.update(crc.to_bytes(4, "little"))

    for op in ops:
        if isinstance(op, list):  # an outage cycle
            for lba, data in op:
                feed(lba, data)
        else:
            feed(op[0], op[1])
    return digest.hexdigest()


def _tpc_trace(kind: str, seed: int, smoke: bool):
    """Capture a TPC write trace and its start image on a 1024-block volume.

    The generators are scaled down from the paper's populations so that
    set-up can be repeated within one run; what the traces keep is their
    shape — small row updates scattered over a hot set of 8 KiB pages.
    """
    if kind == "tpcc":
        capture = capture_tpcc_trace(
            PAGE,
            TpccConfig(
                warehouses=3, customers_per_district=20, items=300, seed=seed
            ),
            transactions=30 if smoke else 120,
        )
    else:
        capture = capture_tpcw_trace(
            PAGE,
            TpcwConfig(items=1000, initial_customers=100, seed=seed),
            interactions=150 if smoke else 600,
        )
    limit = TPC_BLOCKS * PAGE
    image = capture.base_image
    writes = capture.trace.writes
    spills = image.count(b"\0", limit) != len(image) - limit
    if spills or max(lba for lba, _ in writes) >= TPC_BLOCKS:
        raise OperationFailed(f"{kind} trace does not fit {TPC_BLOCKS} blocks")
    return image[:limit], writes


def _cycle(writes: list, count: int) -> list:
    """The first ``count`` entries of ``writes`` repeated end to end."""
    return [writes[i % len(writes)] for i in range(count)]


def _prepared(
    config: ReplicationConfig,
    image: bytes | None,
    ops: list,
    step: Callable[[Any, Any], Any],
    started: float,
    description: str,
    expected: list | None = None,
) -> Prepared:
    return Prepared(
        config=config,
        image=image,
        ops=ops,
        step=step,
        expected=expected,
        stream_hash=_stream_hash(image, ops),
        generate_s=time.perf_counter() - started,
        description=description,
    )


def prepare_tpcc(seed: int, smoke: bool, replicas: int) -> Prepared:
    """TPC-C page writes over TCP: one replica sequential, or three pipelined.

    With three replicas a repetition is long enough (4096 writes) that the
    1024-deep scheduler queue fills and the producer runs in its steady,
    stalled state for three quarters of the writes.
    """
    started = time.perf_counter()
    image, writes = _tpc_trace("tpcc", seed, smoke)
    count = (4096 if replicas > 1 else 2048) // (8 if smoke else 1)
    config = ReplicationConfig(
        strategy="prins",
        block_size=PAGE,
        num_blocks=TPC_BLOCKS,
        replicas=replicas,
        transport="tcp",
        fanout="pipelined" if replicas > 1 else "sequential",
        window=8,
    )
    return _prepared(
        config,
        image,
        _cycle(writes, count),
        write_step,
        started,
        f"{count} TPC-C page writes per repetition, {replicas} replica(s)",
    )


def prepare_bulk(seed: int, smoke: bool) -> Prepared:
    """Whole 64 KiB blocks of incompressible bytes over TCP."""
    started = time.perf_counter()
    rng = np.random.default_rng([seed, 0x62756C6B])
    pool = [rng.bytes(BULK_BLOCK) for _ in range(BULK_POOL)]
    # a random start image: every page of every device is touched before
    # the clock starts, and a delta against it is as incompressible as
    # the payload itself
    image = rng.bytes(BULK_BLOCK * BULK_LBAS)
    count = 128 if smoke else 1024
    ops = [(i % BULK_LBAS, pool[i % BULK_POOL]) for i in range(count)]
    config = ReplicationConfig(
        strategy="prins",
        block_size=BULK_BLOCK,
        num_blocks=BULK_LBAS,
        replicas=1,
        transport="tcp",
    )
    return _prepared(
        config,
        image,
        ops,
        write_step,
        started,
        f"{count} full 64 KiB overwrites per repetition",
    )


def prepare_readmix(seed: int, smoke: bool) -> Prepared:
    """TPC-W writes interleaved 1:9 with Zipf-chosen routed reads.

    Reads draw from the LBAs the trace touches, ranked by a seeded
    permutation, with probability proportional to 1/rank.  Each read's
    expected contents are fixed here from the op order alone, so the
    harness can check linearizability without asking the program.
    """
    started = time.perf_counter()
    image, writes = _tpc_trace("tpcw", seed, smoke)
    write_count = 512 if smoke else 4096
    rng = np.random.default_rng([seed, 0x72656164])
    touched = sorted({lba for lba, _ in writes})
    ranked = rng.permutation(touched)
    weights = 1.0 / np.arange(1, len(ranked) + 1)
    reads = ranked[
        rng.choice(
            len(ranked),
            size=write_count * READS_PER_WRITE,
            p=weights / weights.sum(),
        )
    ].tolist()
    model: dict[int, bytes] = {}
    ops: list = []
    expected: list = []
    for i, (lba, data) in enumerate(_cycle(writes, write_count)):
        for read_lba in reads[i * READS_PER_WRITE : (i + 1) * READS_PER_WRITE]:
            current = model.get(read_lba)
            if current is None:
                current = model[read_lba] = image[
                    read_lba * PAGE : (read_lba + 1) * PAGE
                ]
            ops.append((read_lba, None))
            expected.append(current)
        ops.append((lba, data))
        expected.append(None)
        model[lba] = data
    config = ReplicationConfig(
        strategy="prins",
        block_size=PAGE,
        num_blocks=TPC_BLOCKS,
        replicas=2,
        transport="inline",
        read_policy="replica",
        fanout="pipelined",
        window=8,
    )
    return _prepared(
        config,
        image,
        ops,
        mixed_step,
        started,
        f"{len(ops)} ops per repetition: {READS_PER_WRITE} routed reads per "
        "TPC-W page write",
        expected,
    )


def prepare_outage(seed: int, smoke: bool) -> Prepared:
    """Outage cycles: fail a replica, 60 degraded TPC-C writes, heal."""
    started = time.perf_counter()
    image, writes = _tpc_trace("tpcc", seed, smoke)
    cycles = 3 if smoke else 20
    stream = _cycle(writes, cycles * OUTAGE_WRITES)
    ops = [
        stream[i * OUTAGE_WRITES : (i + 1) * OUTAGE_WRITES]
        for i in range(cycles)
    ]
    config = ReplicationConfig(
        strategy="prins",
        block_size=PAGE,
        num_blocks=TPC_BLOCKS,
        replicas=2,
        transport="inline",
        resilient=True,
        backlog_capacity_bytes=OUTAGE_BACKLOG,
    )
    return _prepared(
        config,
        image,
        ops,
        outage_step,
        started,
        f"{cycles} outage cycles per repetition, {OUTAGE_WRITES} degraded "
        "writes each",
    )


#: workload name -> set-up function of ``(seed, smoke)``
WORKLOADS: dict[str, Callable[[int, bool], Prepared]] = {
    "tpcc.tcp": lambda seed, smoke: prepare_tpcc(seed, smoke, replicas=1),
    "bulk64k.tcp": prepare_bulk,
    "tpcc.tcp.r3": lambda seed, smoke: prepare_tpcc(seed, smoke, replicas=3),
    "tpcw.readmix": prepare_readmix,
    "outage.heal": prepare_outage,
}
