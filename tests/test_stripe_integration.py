"""End-to-end tests for the erasure replication tier.

The tier's contract, exercised through :mod:`repro.api` and the cluster:

* **equivalence** — for every strategy x codec, the erasure stack's
  reassembled image is byte-identical to what a mirror stack replicates
  (the cross-tier invariant the ISSUE pins);
* **fault tolerance** — any ``m = n - k`` lost holders leave reads and
  survivor-driven repair exact;
* **economy** — the same fault tolerance costs measurably less wire and
  storage than ``f + 1`` mirrors, and repair ships ``volume / k``;
* **compatibility** — the default mirror path is pinned byte-for-byte,
  so adding the tier changed nothing for existing users.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReplicationConfig, open_cluster, open_primary
from repro.common.errors import (
    ConfigurationError,
    ReplicationError,
    StaleReplicaError,
)
from repro.common.rng import make_rng
from repro.engine import FaultyLink, LinkHealth
from repro.engine.links import ReplicaLink

BS = 64
N_BLOCKS = 8

#: every shippable strategy x codec combination (codec pins apply only to
#: the delta/compression strategies; traditional always ships raw blocks)
STRATEGY_CODECS = [
    ("traditional", None),
    ("compressed", "zlib"),
    ("compressed", "sparse"),
    ("prins", "zlib"),
    ("prins", "sparse"),
    ("prins", "zero-rle"),
    ("prins", "rle+zlib"),
]

#: (k, n) cells the fault-tolerance tests run at: the RS-lite default and
#: the single-parity XOR geometry (m = 1, plain RAID-5)
GEOMETRIES = [(4, 6), (4, 5)]

write_lists = st.lists(
    st.tuples(
        st.integers(0, N_BLOCKS - 1), st.binary(min_size=BS, max_size=BS)
    ),
    max_size=25,
)


def _config(**overrides) -> ReplicationConfig:
    defaults = dict(block_size=BS, num_blocks=N_BLOCKS)
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


def _erasure_config(**overrides) -> ReplicationConfig:
    overrides.setdefault("redundancy", "erasure")
    overrides.setdefault("k", 4)
    overrides.setdefault("n", 6)
    return _config(**overrides)


def _seeded_writes(count: int, seed: int = 17) -> list[tuple[int, bytes]]:
    rng = make_rng(seed, "stripe-integration")
    return [
        (
            int(rng.integers(0, N_BLOCKS)),
            rng.integers(0, 256, BS, dtype="u1").tobytes(),
        )
        for _ in range(count)
    ]


# -- compatibility: the mirror default is untouched ---------------------------


def test_default_redundancy_is_mirror():
    config = ReplicationConfig()
    assert config.redundancy == "mirror"
    assert config.stripe_config() is None
    with open_primary(_config()) as stack:
        assert stack.engine.stripe is None
        assert stack.engine.stripe_codec is None


class _RecordingLink(ReplicaLink):
    """Wraps a link, capturing every wire frame it delivers."""

    def __init__(self, inner: ReplicaLink, frames: list) -> None:
        self._inner = inner
        self._frames = frames

    def submit(self, work):
        record = work.record
        self._frames.append(
            (work.lba, record.seq, record.block_crc, record.frame)
        )
        return self._inner.submit(work)


def test_mirror_wire_bytes_are_pinned():
    """The default mirror path ships byte-identical frames pre/post tier.

    A seeded workload's exact wire traffic, digested.  If this pin moves,
    the erasure tier leaked into the mirror path — that is a regression,
    not a snapshot to update casually.
    """
    frames: list = []
    stack = open_primary(
        _config(), link_factory=lambda i, base: _RecordingLink(base, frames)
    )
    with stack:
        for lba, data in _seeded_writes(40):
            stack.engine.write_block(lba, data)
        stack.drain()
    digest = hashlib.sha256()
    for lba, seq, crc, frame in frames:
        digest.update(f"{lba}:{seq}:{crc}:".encode())
        digest.update(frame)
    assert len(frames) == 40
    # random 64-byte rewrites are dense deltas: each ships as a raw frame
    assert max(len(frame) for *_, frame in frames) <= 5 + BS
    assert digest.hexdigest() == (
        "616d0393c0c30d2952d40d2b6a1b0c9101e086bf3b0978fd407f81b23d2bdadd"
    )


def test_erasure_rejects_batching():
    with pytest.raises(ConfigurationError):
        _erasure_config(batch_records=8)


def test_erasure_validates_block_divisibility():
    with pytest.raises(ConfigurationError):
        ReplicationConfig(
            redundancy="erasure", k=3, n=5, block_size=64, num_blocks=4
        )


# -- equivalence: every strategy x codec reassembles to the mirror image ------


@settings(max_examples=20, deadline=None)
@given(
    writes=write_lists,
    pair=st.sampled_from(STRATEGY_CODECS),
)
def test_erasure_reassembles_identical_to_mirror(writes, pair):
    strategy, codec = pair
    mirror = open_primary(_config(strategy=strategy, codec=codec))
    erasure = open_primary(_erasure_config(strategy=strategy, codec=codec))
    with mirror, erasure:
        for lba, data in writes:
            mirror.engine.write_block(lba, data)
            erasure.engine.write_block(lba, data)
        mirror.drain()
        erasure.drain()
        assert mirror.verify()
        assert erasure.verify()
        mirror_image = mirror.replica_devices[0].snapshot()
        reassembled = b"".join(
            erasure.read_striped(lba) for lba in range(N_BLOCKS)
        )
        assert reassembled == mirror_image
        erasure.engine.verify_traffic_conservation()


@st.composite
def _geometry_and_losses(draw):
    k, n = draw(st.sampled_from(GEOMETRIES))
    return k, n, draw(st.sets(st.integers(0, n - 1), max_size=n - k))


@settings(max_examples=40, deadline=None)
@given(writes=write_lists, cell=_geometry_and_losses())
def test_reads_survive_any_m_holder_losses(writes, cell):
    """Losing any <= m fragment holders leaves every block readable."""
    k, n, drop = cell
    with open_primary(_erasure_config(strategy="prins", k=k, n=n)) as stack:
        for lba, data in writes:
            stack.engine.write_block(lba, data)
        stack.drain()
        for lba in range(N_BLOCKS):
            assert (
                stack.read_striped(lba, exclude=tuple(drop))
                == stack.device.read_block(lba)
            )


def test_losing_more_than_m_holders_fails_loudly():
    for k, n in GEOMETRIES:
        with open_primary(_erasure_config(k=k, n=n)) as stack:
            with pytest.raises(ReplicationError):
                stack.read_striped(0, exclude=tuple(range(n - k + 1)))


# -- fault case: lose holders, read degraded, repair, verify ------------------


def test_lost_holders_repair_from_survivors():
    for k, n in GEOMETRIES:
        with open_primary(_erasure_config(strategy="prins", k=k, n=n)) as stack:
            for lba, data in _seeded_writes(30, seed=23):
                stack.engine.write_block(lba, data)
            stack.drain()
            codec = stack.engine.stripe_codec
            volume = stack.device.num_blocks * stack.device.block_size
            # lose m holders outright (disk gone, zeroed replacements): a data
            # holder first, so m = 1 exercises the XOR reconstruction
            lost = (1, n - 1)[: n - k]
            for holder in lost:
                stack.replica_devices[holder].load(
                    bytes(codec.fragment_size * N_BLOCKS)
                )
            # degraded reads are still exact
            for lba in range(N_BLOCKS):
                assert (
                    stack.read_striped(lba, exclude=lost)
                    == stack.device.read_block(lba)
                )
            assert not stack.verify()
            reports = [stack.repair_fragment(holder) for holder in lost]
            assert stack.verify()
            # regenerating economy: each rebuild ships volume/k, not volume
            for report in reports:
                assert report.written_bytes == volume // codec.k
                assert report.read_bytes == volume
            accountant = stack.engine.accountant
            assert accountant.repairs == len(lost)
            assert accountant.repair_write_bytes == sum(
                report.written_bytes for report in reports
            )
            stack.engine.verify_traffic_conservation()


def _torn_stripe_stack(k: int, n: int):
    """Holder 0 loses the delta of the second of two writes to LBA 3.

    A dropped delta leaves the holder DEGRADED with backlog 1 — not DOWN —
    so its fragment of LBA 3 still encodes the first write.  Returns
    ``(stack, faulty_link_of_holder_0, new_data)``.
    """
    faulty = {}

    def factory(index, link):
        if index == 0:
            link = faulty[0] = FaultyLink(link)
        return link

    config = _erasure_config(
        strategy="prins", k=k, n=n, num_blocks=16, resilient=True
    )
    stack = open_primary(config, link_factory=factory)
    rng = make_rng(71, "torn-stripe", k, n)
    old, new = (rng.integers(0, 256, BS, dtype="u1").tobytes() for _ in "ab")
    stack.engine.write_block(3, old)
    stack.drain()
    faulty[0].fail_next(10, kind="drop")
    stack.engine.write_block(3, new)
    stack.drain()
    guard = stack.engine.guards[0]
    assert guard.health is LinkHealth.DEGRADED and guard.backlog_depth == 1
    return stack, faulty[0], new


@pytest.mark.parametrize("k, n", GEOMETRIES)
def test_striped_read_never_reassembles_a_torn_stripe(k, n):
    stack, _, new = _torn_stripe_stack(k, n)
    with stack:
        assert stack.read_striped(3) == new
        # with the stale holder's fresh peers excluded, fewer than k
        # fresh fragments remain: refuse rather than reassemble garbage
        with pytest.raises(StaleReplicaError):
            stack.read_striped(3, exclude=tuple(range(1, n - k + 1)))


@pytest.mark.parametrize("k, n", GEOMETRIES)
def test_repair_never_rebuilds_from_a_stale_holder(k, n):
    stack, faulty, _ = _torn_stripe_stack(k, n)
    with stack:
        lost = stack.replica_devices[1]
        zeros = bytes(lost.block_size * lost.num_blocks)
        lost.load(zeros)  # holder 1's disk is gone
        if n - k == 1:
            # only k - 1 fresh survivors: refuse, and write nothing
            with pytest.raises(StaleReplicaError):
                stack.repair_fragment(1)
            assert lost.snapshot() == zeros
        else:
            stack.repair_fragment(1)  # from the k fresh survivors
        faulty.heal()
        assert stack.engine.heal_link(0).tiers == ("replay",)
        if n - k == 1:
            stack.repair_fragment(1)  # holder 0 is fresh again
        assert stack.verify()
        stack.engine.verify_traffic_conservation()


def test_initial_image_full_syncs_fragment_holders():
    rng = make_rng(31, "image")
    image = rng.integers(0, 256, BS * N_BLOCKS, dtype="u1").tobytes()
    with open_primary(_erasure_config(), initial_image=image) as stack:
        assert stack.verify()
        for lba in range(N_BLOCKS):
            assert stack.read_striped(lba) == image[lba * BS : (lba + 1) * BS]


# -- resilience: the heal ladder runs per-fragment ----------------------------


def test_guarded_stripe_fail_and_heal():
    for k, n in GEOMETRIES:
        config = _erasure_config(strategy="prins", resilient=True, k=k, n=n)
        with open_primary(config) as stack:
            writes = _seeded_writes(20, seed=41)
            for lba, data in writes[:8]:
                stack.engine.write_block(lba, data)
            stack.engine.fail_link(n - 1)
            for lba, data in writes[8:]:
                stack.engine.write_block(lba, data)
            stack.drain()
            assert not stack.verify()  # the failed holder is behind
            outcome = stack.engine.heal_link(n - 1)
            assert "replay" in outcome.tiers
            stack.drain()
            assert stack.verify()
            stack.engine.verify_traffic_conservation()


def test_pipelined_sim_stripe_fanout():
    config = _erasure_config(
        strategy="prins", fanout="pipelined", window=4, workers="inline"
    )
    with open_primary(config) as stack:
        for lba, data in _seeded_writes(25, seed=43):
            stack.engine.write_block(lba, data)
        stack.drain()
        assert stack.verify()
        stack.engine.verify_traffic_conservation()


def test_write_many_striped_equals_sequential():
    writes = _seeded_writes(20, seed=47)
    images = []
    for use_many in (False, True):
        with open_primary(_erasure_config(strategy="prins")) as stack:
            if use_many:
                stack.engine.write_many(writes)
            else:
                for lba, data in writes:
                    stack.engine.write_block(lba, data)
            stack.drain()
            assert stack.verify()
            images.append(
                tuple(d.snapshot() for d in stack.replica_devices)
            )
    assert images[0] == images[1]


# -- accounting: the per-fragment conservation law ----------------------------


def test_fragment_accounting_itemizes_and_balances():
    with open_primary(_erasure_config(strategy="prins")) as stack:
        for lba, data in _seeded_writes(30, seed=53):
            stack.engine.write_block(lba, data)
        stack.drain()
        accountant = stack.engine.accountant
        snapshot = accountant.snapshot()
        erasure = snapshot["erasure"]
        assert erasure["erasure_writes"] == accountant.writes_replicated
        itemized = sum(
            r["fragment_ships"] for r in snapshot["per_replica"].values()
        )
        assert erasure["fragments_shipped"] == itemized
        assert erasure["fragment_payload_bytes"] == sum(
            r["fragment_payload_bytes"]
            for r in snapshot["per_replica"].values()
        )
        accountant.verify_conservation()


def test_zero_delta_fragments_are_elided():
    """A localized change elides the untouched data fragments' zero deltas."""
    with open_primary(_erasure_config(strategy="prins")) as stack:
        data = bytearray(bytes([7]) * BS)
        stack.engine.write_block(0, bytes(data))
        stack.drain()
        accountant = stack.engine.accountant
        before = accountant.fragments_shipped
        data[0] ^= 0xFF  # touch only fragment 0's slice
        stack.engine.write_block(0, bytes(data))
        stack.drain()
        # fragment 0 plus the m=2 parity fragments ship; slices 1..3 elide
        assert accountant.fragments_shipped == before + 3
        assert accountant.fragments_elided == 3
        assert stack.verify()
        # an identical rewrite is a whole-write skip, upstream of striping
        skipped = accountant.writes_skipped
        stack.engine.write_block(0, bytes(data))
        stack.drain()
        assert accountant.writes_skipped == skipped + 1
        assert accountant.fragments_shipped == before + 3


def test_telemetry_snapshot_reports_stripe_shape():
    with open_primary(_erasure_config()) as stack:
        snapshot = stack.engine.telemetry_snapshot()
        assert snapshot["stripe"] == {
            "k": 4,
            "n": 6,
            "fragment_size": BS // 4,
            "storage_overhead": 1.5,
        }


# -- economy: same fault tolerance, measurably less wire and storage ----------


def test_erasure_beats_equally_tolerant_mirrors():
    """k=4/n=6 tolerates f=2 like 3 mirrors, at less wire and storage.

    Run at a realistic 4 KiB block size: the per-fragment PDU header is
    fixed, so the erasure tier's wire win needs payloads that dwarf it
    (at toy 64-byte blocks the 6x headers would dominate).
    """
    big = 4096
    rng = make_rng(59, "economy")
    writes = [
        (
            int(rng.integers(0, N_BLOCKS)),
            rng.integers(0, 256, big, dtype="u1").tobytes(),
        )
        for _ in range(60)
    ]
    erasure = open_primary(_erasure_config(strategy="traditional", block_size=big))
    mirrors = open_primary(
        _config(strategy="traditional", replicas=3, block_size=big)
    )
    with erasure, mirrors:
        for lba, data in writes:
            erasure.engine.write_block(lba, data)
            mirrors.engine.write_block(lba, data)
        erasure.drain()
        mirrors.drain()
        e_acct, m_acct = erasure.engine.accountant, mirrors.engine.accountant
        e_wire = e_acct.payload_bytes + e_acct.pdu_bytes
        m_wire = m_acct.payload_bytes + m_acct.pdu_bytes
        assert e_wire < m_wire
        e_storage = sum(
            d.block_size * d.num_blocks for d in erasure.replica_devices
        )
        m_storage = sum(
            d.block_size * d.num_blocks for d in mirrors.replica_devices
        )
        assert e_storage < m_storage
        assert e_storage == pytest.approx(m_storage / 2)  # 1.5x vs 3x


# -- the cluster layer --------------------------------------------------------


def test_cluster_erasure_write_read_repair():
    cluster = open_cluster(
        _erasure_config(
            strategy="prins", nodes=8, num_blocks=4, resilient=True
        )
    )
    data = make_rng(61, "cluster").integers(0, 256, BS, dtype="u1").tobytes()
    cluster.nodes[0].engine.write_block(1, data)
    assert cluster.verify() == {}
    # primary down: the block reassembles from its fragment holders
    cluster.fail_node(0)
    assert cluster.read_from_replica(0, 1) == data
    cluster.heal_node(0)
    # a holder's disk is lost: rebuild every fragment it hosted
    placement = cluster.placement[0]
    victim = placement[2]
    region = cluster.nodes[victim].replica_regions[0]
    region.load(bytes(region.block_size * region.num_blocks))
    assert cluster.verify() != {}
    reports = cluster.repair_node(victim)
    assert 0 in reports
    assert cluster.verify() == {}
    cluster.verify_traffic_conservation()


def test_cluster_erasure_needs_enough_peers():
    with pytest.raises(ConfigurationError):
        open_cluster(_erasure_config(nodes=6, num_blocks=4))  # n > nodes-1


def test_cluster_mirror_rejects_repair_node():
    cluster = open_cluster(_config(nodes=4, num_blocks=4))
    with pytest.raises(ConfigurationError):
        cluster.repair_node(1)
