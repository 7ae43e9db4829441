"""Exception hierarchy for the PRINS reproduction.

All library exceptions derive from :class:`ReproError`, so callers can catch
one base class at the public-API boundary.  Each subsystem narrows it:
storage errors, codec errors, protocol (iSCSI) errors, replication errors,
and configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class StorageError(ReproError):
    """Base class for block-device and RAID failures."""


class BlockSizeError(StorageError):
    """Raised when a buffer length does not match the device block size."""

    def __init__(self, expected: int, actual: int) -> None:
        super().__init__(f"expected a buffer of {expected} bytes, got {actual}")
        self.expected = expected
        self.actual = actual


class BlockRangeError(StorageError):
    """Raised when an LBA falls outside the device."""

    def __init__(self, lba: int, num_blocks: int) -> None:
        super().__init__(f"LBA {lba} out of range for device with {num_blocks} blocks")
        self.lba = lba
        self.num_blocks = num_blocks


class DeviceClosedError(StorageError):
    """Raised when an I/O is issued against a closed device."""


class RaidDegradedError(StorageError):
    """Raised when an operation needs a disk that has failed."""


class CodecError(ReproError):
    """Raised when encoding or decoding a parity frame fails."""


class ProtocolError(ReproError):
    """Raised on malformed PDUs or protocol state violations (iSCSI layer)."""


class LoginError(ProtocolError):
    """Raised when an iSCSI login handshake is rejected."""


class ReplicationError(ReproError):
    """Raised when the replication engine cannot apply or ship an update."""


class PartialReplicationError(ReplicationError):
    """Raised when a fan-out failed after some replicas already applied.

    Carries exactly which links succeeded so a caller (or operator) can
    reason about the divergence instead of guessing: ``succeeded`` holds the
    link indices that acked this write, ``failed_index`` the link whose
    :meth:`~repro.engine.links.ReplicaLink.ship` raised, and ``cause`` the
    original exception.  The local write and all successful shipments have
    already been charged to the engine's accountant when this is raised.
    """

    def __init__(
        self,
        lba: int,
        seq: int,
        succeeded: tuple[int, ...],
        failed_index: int,
        total_links: int,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"write at LBA {lba} (seq {seq}) replicated to "
            f"{len(succeeded)}/{total_links} links before link "
            f"{failed_index} failed: {cause}"
        )
        self.lba = lba
        self.seq = seq
        self.succeeded = succeeded
        self.failed_index = failed_index
        self.total_links = total_links
        self.cause = cause


class RetriesExhaustedError(ReplicationError):
    """Raised when a resilient link gives up after its retry budget."""

    def __init__(self, lba: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"ship to replica failed after {attempts} attempts "
            f"(LBA {lba}): {cause}"
        )
        self.lba = lba
        self.attempts = attempts
        self.cause = cause


class StaleReplicaError(ReplicationError):
    """Raised when a read or repair would have to trust a stale replica.

    A replica that is not fresh (DEGRADED or DOWN, holding backlog, or
    awaiting a resync) missed writes: reassembling a block or rebuilding
    a fragment from it would produce bytes the primary never held.
    """


class SyncError(ReplicationError):
    """Raised when initial synchronization between primary and replica fails."""


class RecoveryError(ReproError):
    """Raised when CDP/TRAP point-in-time recovery cannot be satisfied."""
