"""Initial synchronization and consistency verification.

PRINS assumes ``A_old`` exists at the replica: "This is practically the
case for all replication systems after the initial sync among the replica
nodes" (Sec. 2).  :func:`full_sync` performs that initial copy;
:func:`digest_sync` is the rsync-flavoured incremental variant (compare
per-block CRCs, copy only mismatches) for re-synchronizing a replica that
diverged; :func:`verify_consistency` is the post-experiment check that the
replica is byte-identical to the primary.

Both sync flavours here are O(volume); the set-reconciliation tier in
:mod:`repro.engine.reconcile` reaches the same exactness in O(divergence)
wire bytes and falls back to :func:`digest_sync` when its sketch decoding
stalls.  The two share :data:`LBA_DIGEST_BYTES` so their per-LBA digest
cost models stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.device import BlockDevice
from repro.common.errors import SyncError

#: modeled wire cost of comparing one LBA's digest (4 bytes each way),
#: shared by :func:`digest_sync` and the reconcile tier's candidate
#: confirmation so "digest bytes" mean the same thing in both ledgers
LBA_DIGEST_BYTES = 8


def _check_geometry(source: BlockDevice, dest: BlockDevice) -> None:
    if (
        source.block_size != dest.block_size
        or source.num_blocks != dest.num_blocks
    ):
        raise SyncError(
            f"geometry mismatch: source {source.block_size}x{source.num_blocks}, "
            f"dest {dest.block_size}x{dest.num_blocks}"
        )


@dataclass(frozen=True)
class SyncReport:
    """Outcome of a synchronization pass."""

    blocks_examined: int
    blocks_copied: int
    bytes_copied: int
    digest_bytes: int = 0

    @property
    def wire_bytes(self) -> int:
        """Total bytes a network sync would have moved (digests + data)."""
        return self.bytes_copied + self.digest_bytes


def full_sync(source: BlockDevice, dest: BlockDevice) -> SyncReport:
    """Copy every block from ``source`` to ``dest``."""
    _check_geometry(source, dest)
    copied = 0
    for lba, data in source.iter_blocks():
        dest.write_block(lba, data)
        copied += len(data)
    return SyncReport(
        blocks_examined=source.num_blocks,
        blocks_copied=source.num_blocks,
        bytes_copied=copied,
    )


def digest_sync(source: BlockDevice, dest: BlockDevice) -> SyncReport:
    """Copy only blocks whose CRC32 differs (rsync-style, block granular).

    Each side's CRC comes from :meth:`~repro.block.device.BlockDevice
    .block_crc`, so a source block is read only to copy it.  Charges 4
    digest bytes per block in each direction, mirroring what a real
    digest exchange would ship.
    """
    _check_geometry(source, dest)
    copied_blocks = 0
    copied_bytes = 0
    for lba in range(source.num_blocks):
        if source.block_crc(lba) != dest.block_crc(lba):
            src_block = source.read_block(lba)
            dest.write_block(lba, src_block)
            copied_blocks += 1
            copied_bytes += len(src_block)
    return SyncReport(
        blocks_examined=source.num_blocks,
        blocks_copied=copied_blocks,
        bytes_copied=copied_bytes,
        digest_bytes=LBA_DIGEST_BYTES * source.num_blocks,
    )


def verify_consistency(primary: BlockDevice, replica: BlockDevice) -> list[int]:
    """Return the LBAs at which ``replica`` differs from ``primary``.

    An empty list means the replica is byte-identical — the invariant every
    strategy must maintain after each replicated write.
    """
    _check_geometry(primary, replica)
    return [
        lba
        for lba in range(primary.num_blocks)
        if primary.read_block(lba) != replica.read_block(lba)
    ]
