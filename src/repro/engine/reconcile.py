"""Set-reconciliation resync: heal cost proportional to *divergence*.

The PR-1 recovery ladder escalates from journal replay straight to
:func:`~repro.engine.sync.digest_sync`, which walks the whole volume —
O(volume) wire and CPU per heal.  This module inserts a middle tier that
finds the divergent LBA *set* with a Parity Bitmap Sketch exchange (Gong
et al., PBS — see PAPERS.md) and then ships only the divergent content,
so a replica that missed an hour of writes pays O(dirty blocks), not
O(volume):

* **identification** — LBAs are partitioned into fixed contiguous
  *groups*; for each group both sides fold ``(lba, crc32(block))`` keys
  into a parity bitmap (each key flips one salted-hash bit) and exchange
  the bitmaps.  A zero XOR means the group is tentatively clean; a
  non-zero XOR is decoded into candidate LBAs whose per-LBA digests are
  then compared (the same 8-bytes-per-LBA cost model as
  :func:`~repro.engine.sync.digest_sync`, but only over candidates).
  PBS randomizes the partition; we keep groups contiguous because both
  sides share the same LBA universe, and resolve hash collisions by
  re-salting in later rounds instead;
* **content shipping** — each dirty block becomes an ordinary
  :class:`~repro.engine.messages.ReplicationRecord` (the engine's
  strategy encodes the delta: a PRINS XOR parity delta, or a full block
  for non-delta strategies) submitted through the existing
  :class:`~repro.engine.work.ShipWork` protocol, so retries, circuit
  breaking and ack CRC verification compose unchanged.  Blocks of
  ``shingle_min_bytes`` or more additionally run a recursive
  content-defined shingling pass (Song & Trachtenberg — see PAPERS.md)
  that charges the piece-digest bytes a sub-block diff protocol would
  exchange;
* **verification & resumability** — after a group's records are acked,
  a strong group digest is compared; only then is the group *verified*.
  Sketch false negatives (a dirty LBA whose bit flips cancel) fail this
  check and re-enter the next round under a fresh salt, so the final
  dirty set is exact.  The per-group state machine (pending →
  identified → verified) survives transient faults: a resumed
  :meth:`ReconcileSession.run` skips verified groups and re-derives the
  rest, and writes that landed mid-outage re-pend their groups via
  :meth:`ReconcileSession.invalidate`.  If the rounds budget runs out,
  :class:`ReconcileStalledError` tells the caller to fall back to the
  deterministic full digest sweep;
* **seeding** — the primary already knows what the replica missed.  Its
  :class:`~repro.engine.resilience.GuardedLink` remembers the LBA of
  every record it journaled, suppressed or dropped since the replica
  was last caught up, and a new session starts with only the groups
  holding a remembered LBA pending and every other group verified.  A
  heal then reads and sketches O(dirty groups), not O(volume).  The
  trust rule: a seed is only as good as the remembered set is
  complete, so the guard forgets an LBA only once the replica is
  caught up (its backlog fully replayed, or a resync tier completed).
  A resync demanded with nothing remembered runs the full session, and
  that full session is the scrub for divergence nobody tracked.

Like :func:`~repro.engine.sync.digest_sync`, this is a wire-cost
*simulation*: both devices are read locally and every exchange a real
protocol would make is charged to the session's
:class:`ReconcileReport`.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.block.device import BlockDevice
from repro.common.errors import ConfigurationError, SyncError
from repro.engine.links import ReplicaLink
from repro.engine.messages import ReplicationRecord
from repro.engine.sync import LBA_DIGEST_BYTES, _check_geometry
from repro.engine.work import ShipWork

#: per-group, per-round framing bytes of one sketch exchange (group id,
#: round salt, bitmap length)
GROUP_SKETCH_OVERHEAD = 8
#: strong per-group digest exchanged to promote a group to *verified*
GROUP_DIGEST_BYTES = 8
#: per-piece cost of one shingling round: an 8-byte piece digest plus a
#: 4-byte boundary offset (boundaries are content-defined, so the remote
#: side cannot re-derive them without the data)
SHINGLE_PIECE_BYTES = 12

_KEY = struct.Struct("<QIQ")  # (lba, crc32, salt)

#: gear table for content-defined chunking (deterministic, seed-free)
_GEAR = tuple(
    int.from_bytes(
        hashlib.blake2b(bytes([i]), digest_size=8).digest(), "little"
    )
    for i in range(256)
)
_MASK64 = (1 << 64) - 1


class ReconcileStalledError(SyncError):
    """Sketch decoding failed to converge within the rounds budget.

    The caller must fall back to a deterministic full digest sweep
    (:func:`~repro.engine.sync.digest_sync`); the reconcile tier never
    silently gives up on exactness.
    """


@dataclass(frozen=True)
class ReconcileConfig:
    """Tunables for the set-reconciliation resync tier."""

    #: LBAs per reconciliation group (contiguous ranges)
    group_size: int = 64
    #: parity-bitmap bits budgeted per LBA in a group's sketch
    sketch_bits_per_lba: int = 8
    #: identification/verification rounds before declaring a stall
    max_rounds: int = 4
    #: blocks at least this large get the shingling sub-block diff pass
    shingle_min_bytes: int = 64 * 1024
    #: target content-defined piece size for the first shingling round
    shingle_chunk_bytes: int = 4096
    #: recursion floor: pieces at most this large are diffed directly
    shingle_min_chunk_bytes: int = 512

    def __post_init__(self) -> None:
        """Validate the group/sketch/shingle geometry."""
        if self.group_size < 1:
            raise ConfigurationError(
                f"group_size must be >= 1, got {self.group_size}"
            )
        if self.sketch_bits_per_lba < 1:
            raise ConfigurationError(
                "sketch_bits_per_lba must be >= 1, "
                f"got {self.sketch_bits_per_lba}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        if self.shingle_chunk_bytes & (self.shingle_chunk_bytes - 1):
            raise ConfigurationError(
                "shingle_chunk_bytes must be a power of two, "
                f"got {self.shingle_chunk_bytes}"
            )
        if self.shingle_min_chunk_bytes < 1:
            raise ConfigurationError(
                "shingle_min_chunk_bytes must be >= 1, "
                f"got {self.shingle_min_chunk_bytes}"
            )


@dataclass
class ReconcileReport:
    """Cumulative cost/progress ledger of one reconciliation session.

    Survives transient faults along with its session, so after a resumed
    heal the totals cover the *whole* reconciliation, not just the last
    :meth:`ReconcileSession.run` call.
    """

    rounds: int = 0
    groups_total: int = 0
    groups_verified: int = 0
    groups_resketched: int = 0  # verify failures sent back for re-sketch
    dirty_lbas_found: int = 0
    records_shipped: int = 0
    subblock_diffs: int = 0  # large blocks that took the shingling pass
    sketch_bytes: int = 0  # parity bitmaps + framing
    digest_bytes: int = 0  # candidate/group/piece digests
    diff_bytes: int = 0  # encoded record payloads shipped

    @property
    def wire_bytes(self) -> int:
        """Total bytes a real reconciliation exchange would have moved."""
        return self.sketch_bytes + self.digest_bytes + self.diff_bytes

    def snapshot(self) -> dict:
        """JSON-safe view of the session ledger."""
        return {
            "rounds": self.rounds,
            "groups_total": self.groups_total,
            "groups_verified": self.groups_verified,
            "groups_resketched": self.groups_resketched,
            "dirty_lbas_found": self.dirty_lbas_found,
            "records_shipped": self.records_shipped,
            "subblock_diffs": self.subblock_diffs,
            "sketch_bytes": self.sketch_bytes,
            "digest_bytes": self.digest_bytes,
            "diff_bytes": self.diff_bytes,
            "wire_bytes": self.wire_bytes,
        }


def _bit_of(lba: int, crc: int, nbits: int, salt: int) -> int:
    """The parity-bitmap bit that key ``(lba, crc)`` flips under ``salt``."""
    digest = hashlib.blake2b(
        _KEY.pack(lba, crc & 0xFFFFFFFF, salt & _MASK64), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % nbits


def _group_digest(crcs: dict[int, int], lo: int, hi: int) -> bytes:
    """Strong digest over a group's per-block CRCs (order-sensitive)."""
    h = hashlib.blake2b(digest_size=8)
    for lba in range(lo, hi):
        h.update(struct.pack("<I", crcs[lba]))
    return h.digest()


def shingle_boundaries(
    data: bytes, avg_chunk: int, min_chunk: int
) -> list[int]:
    """Content-defined cut points of ``data`` (gear-hash chunking).

    Returns offsets ``[0, ..., len(data)]`` such that a byte inserted in
    one piece does not shift the boundaries of later pieces — the
    property recursive shingling needs to localize edits.  ``avg_chunk``
    (a power of two) sets the expected piece size; ``min_chunk`` floors
    it so adversarial content cannot explode the piece count.
    """
    mask = avg_chunk - 1
    cuts = [0]
    h = 0
    last = 0
    for i, b in enumerate(data):
        h = ((h << 1) + _GEAR[b]) & _MASK64
        if (h & mask) == 0 and i + 1 - last >= min_chunk:
            cuts.append(i + 1)
            last = i + 1
    if cuts[-1] != len(data):
        cuts.append(len(data))
    return cuts


def shingle_diff_spans(
    src: bytes, dst: bytes, config: ReconcileConfig
) -> tuple[list[tuple[int, int]], int]:
    """Locate the differing spans of a large block, recursively.

    Implements the recursive hash-compare at the heart of
    content-dependent shingling: cut ``src`` at content-defined
    boundaries, compare piece digests against the same offsets of
    ``dst``, and recurse into mismatched pieces with a smaller target
    chunk until pieces reach the ``shingle_min_chunk_bytes`` floor.
    Returns ``(spans, charged_bytes)`` where ``spans`` is a sorted list
    of half-open ``(start, end)`` byte ranges covering every difference
    and ``charged_bytes`` models the piece-digest traffic a real
    exchange would ship (:data:`SHINGLE_PIECE_BYTES` per piece).
    """
    if len(src) != len(dst):
        raise SyncError(
            f"shingle diff needs equal-length blocks, got {len(src)} "
            f"vs {len(dst)}"
        )
    spans: list[tuple[int, int]] = []
    charged = 0

    def _diff(lo: int, hi: int, chunk: int) -> None:
        nonlocal charged
        if src[lo:hi] == dst[lo:hi]:
            return
        if hi - lo <= config.shingle_min_chunk_bytes or chunk < (
            2 * config.shingle_min_chunk_bytes
        ):
            spans.append((lo, hi))
            return
        cuts = shingle_boundaries(
            src[lo:hi], chunk, config.shingle_min_chunk_bytes
        )
        charged += (len(cuts) - 1) * SHINGLE_PIECE_BYTES
        for a, b in zip(cuts, cuts[1:]):
            _diff(lo + a, lo + b, chunk // 4)

    charged += SHINGLE_PIECE_BYTES  # whole-block digest, round zero
    _diff(0, len(src), config.shingle_chunk_bytes)
    return spans, charged


class ResyncShipper:
    """Ships one divergent block through a guarded channel's link.

    The bridge between identification and the engine's ordinary wire
    path: ``record_builder(lba, src_block, dst_block)`` (supplied by the
    primary engine, which owns the strategy and the sequence counter)
    encodes the block into a :class:`~repro.engine.messages
    .ReplicationRecord`; the record is submitted as a normal
    :class:`~repro.engine.work.ShipWork`, so a resilient link's retries
    and the replica's end-to-end CRC check cover resync traffic exactly
    as they cover foreground writes.
    """

    def __init__(
        self,
        link: ReplicaLink,
        record_builder: Callable[
            [int, bytes, bytes], ReplicationRecord | None
        ],
        config: ReconcileConfig,
        report: ReconcileReport,
    ) -> None:
        self._link = link
        self._builder = record_builder
        self._config = config
        self._report = report

    def ship(self, lba: int, src_block: bytes, dst_block: bytes) -> int:
        """Ship ``src_block`` for ``lba``; returns payload wire bytes.

        Returns 0 when the blocks already agree or the strategy elides
        an all-zero delta.  Large blocks first run the shingling pass,
        charging its piece-digest bytes to the session report.
        """
        if src_block == dst_block:
            return 0
        if len(src_block) >= self._config.shingle_min_bytes:
            spans, hash_bytes = shingle_diff_spans(
                src_block, dst_block, self._config
            )
            self._report.digest_bytes += hash_bytes
            if spans:
                self._report.subblock_diffs += 1
        record = self._builder(lba, src_block, dst_block)
        if record is None:
            return 0
        work = ShipWork.for_record(lba, record)
        ack = self._link.submit(work)
        work.verify_ack(ack)
        self._report.records_shipped += 1
        self._report.diff_bytes += record.wire_size
        return record.wire_size


_PENDING = "pending"
_IDENTIFIED = "identified"
_VERIFIED = "verified"


class _Group:
    """One contiguous LBA range moving through pending→identified→verified."""

    __slots__ = ("lo", "hi", "state", "dirty")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.state = _PENDING
        self.dirty: tuple[int, ...] = ()


class ReconcileSession:
    """Resumable set-reconciliation of one primary/replica device pair.

    Owned by a :class:`~repro.engine.resilience.GuardedLink` across
    :meth:`~repro.engine.resilience.GuardedLink.heal` calls: a transient
    fault mid-run propagates to the caller with all per-group progress
    intact, and the next ``run`` resumes from the last verified group
    instead of restarting.  :meth:`invalidate` re-pends the groups of
    LBAs written while the session was suspended, so a verified group
    can never mask a newer divergence — the session only reports
    :attr:`complete` when every pending group's strong digest matched
    *after* its content shipped.

    ``dirty`` seeds the session: only the groups holding one of those
    LBAs start pending, and every other group starts verified, so the
    session reads O(dirty groups) blocks instead of the whole volume.
    ``None`` (the default) starts every group pending — the full scrub.
    """

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        config: ReconcileConfig | None = None,
        seed: int = 0,
        dirty: Iterable[int] | None = None,
    ) -> None:
        self.config = config if config is not None else ReconcileConfig()
        self.seed = seed
        self.block_size = block_size
        self.num_blocks = num_blocks
        size = self.config.group_size
        self._groups = [
            _Group(lo, min(lo + size, num_blocks))
            for lo in range(0, num_blocks, size)
        ]
        self._round = 0
        self.report = ReconcileReport(groups_total=len(self._groups))
        if dirty is not None:
            pending = {lba // size for lba in dirty if 0 <= lba < num_blocks}
            for index, group in enumerate(self._groups):
                if index not in pending:
                    group.state = _VERIFIED
            self.report.groups_verified = len(self._groups) - len(pending)

    @property
    def complete(self) -> bool:
        """True once every group has verified (exact convergence)."""
        return all(g.state == _VERIFIED for g in self._groups)

    @property
    def rounds_used(self) -> int:
        """Identification/verification rounds consumed so far."""
        return self._round

    def invalidate(self, lbas) -> int:
        """Re-pend the groups covering ``lbas``; returns groups re-pended.

        The guard calls it for every write that lands while the session
        is suspended, so a write that landed after its group verified —
        or in a group the seed left out — sends that group back through
        identification.
        """
        size = self.config.group_size
        repended = 0
        for lba in lbas:
            if not 0 <= lba < self.num_blocks:
                continue
            group = self._groups[lba // size]
            if group.state != _PENDING:
                if group.state == _VERIFIED:
                    self.report.groups_verified -= 1
                group.state = _PENDING
                group.dirty = ()
                repended += 1
        return repended

    def run(
        self,
        source: BlockDevice,
        dest: BlockDevice,
        shipper: ResyncShipper,
        on_round=None,
    ) -> ReconcileReport:
        """Reconcile until every group verifies; returns the ledger.

        Raises :class:`ReconcileStalledError` when the rounds budget is
        exhausted with unverified groups (caller falls back to
        :func:`~repro.engine.sync.digest_sync`).  Transient link errors
        propagate with session state intact — call ``run`` again to
        resume from the last verified group.  ``on_round``, when given,
        is called as ``on_round(round_number, pending_groups)`` at the
        start of every sketch round — the resilience layer feeds it to
        the flight recorder so stalled reconciliations leave a trail.
        """
        _check_geometry(source, dest)
        if source.num_blocks != self.num_blocks:
            raise SyncError(
                f"session geometry mismatch: built for {self.num_blocks} "
                f"blocks, device has {source.num_blocks}"
            )
        while not self.complete:
            pending = [g for g in self._groups if g.state == _PENDING]
            if pending:
                if self._round >= self.config.max_rounds:
                    raise ReconcileStalledError(
                        f"sketch decoding stalled after {self._round} "
                        f"rounds with {len(pending)} unverified groups; "
                        "falling back to digest_sync"
                    )
                self._round += 1
                self.report.rounds += 1
                if on_round is not None:
                    on_round(self._round, len(pending))
                for group in pending:
                    self._identify(group, source, dest)
            for group in self._groups:
                if group.state == _IDENTIFIED:
                    self._ship_and_verify(group, source, dest, shipper)
        return self.report

    # -- internals ---------------------------------------------------------

    def _salt(self) -> int:
        return (self.seed << 16) ^ self._round

    def _crcs(
        self, device: BlockDevice, lo: int, hi: int
    ) -> dict[int, int]:
        return {
            lba: zlib.crc32(device.read_block(lba)) for lba in range(lo, hi)
        }

    def _identify(
        self, group: _Group, source: BlockDevice, dest: BlockDevice
    ) -> None:
        """One sketch exchange: decode the group's candidate dirty set."""
        config = self.config
        span = group.hi - group.lo
        nbits = max(64, config.sketch_bits_per_lba * span)
        nbits += (-nbits) % 8  # whole bytes on the wire
        salt = self._salt()
        src_crcs = self._crcs(source, group.lo, group.hi)
        dst_crcs = self._crcs(dest, group.lo, group.hi)
        src_map = 0
        dst_map = 0
        for lba in range(group.lo, group.hi):
            src_map ^= 1 << _bit_of(lba, src_crcs[lba], nbits, salt)
            dst_map ^= 1 << _bit_of(lba, dst_crcs[lba], nbits, salt)
        self.report.sketch_bytes += nbits // 8 + GROUP_SKETCH_OVERHEAD
        delta = src_map ^ dst_map
        if delta == 0:
            group.dirty = ()
            group.state = _IDENTIFIED
            return
        candidates = [
            lba
            for lba in range(group.lo, group.hi)
            if (delta >> _bit_of(lba, src_crcs[lba], nbits, salt)) & 1
            or (delta >> _bit_of(lba, dst_crcs[lba], nbits, salt)) & 1
        ]
        # confirm candidates with per-LBA digests (false positives drop out)
        self.report.digest_bytes += LBA_DIGEST_BYTES * len(candidates)
        dirty = tuple(
            lba for lba in candidates if src_crcs[lba] != dst_crcs[lba]
        )
        self.report.dirty_lbas_found += len(dirty)
        group.dirty = dirty
        group.state = _IDENTIFIED

    def _ship_and_verify(
        self,
        group: _Group,
        source: BlockDevice,
        dest: BlockDevice,
        shipper: ResyncShipper,
    ) -> None:
        """Ship the group's dirty blocks, then promote it via group digest."""
        for lba in group.dirty:
            src_block = source.read_block(lba)
            dst_block = dest.read_block(lba)
            shipper.ship(lba, src_block, dst_block)
        self.report.digest_bytes += GROUP_DIGEST_BYTES
        src_digest = _group_digest(
            self._crcs(source, group.lo, group.hi), group.lo, group.hi
        )
        dst_digest = _group_digest(
            self._crcs(dest, group.lo, group.hi), group.lo, group.hi
        )
        if src_digest == dst_digest:
            group.state = _VERIFIED
            group.dirty = ()
            self.report.groups_verified += 1
        else:
            # sketch false negative (bit flips canceled): re-sketch the
            # group under the next round's salt instead of trusting it
            group.state = _PENDING
            group.dirty = ()
            self.report.groups_resketched += 1
