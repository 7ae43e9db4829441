"""Cross-cutting property tests: all roads lead to the same replica image.

The deep invariant of the whole system is *equivalence*: whatever
strategy, codec, device backing, or connectivity history is used, after
the dust settles the replica must hold exactly the primary's bytes.
Hypothesis drives random write schedules through structurally different
stacks and asserts the images match.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import MemoryBlockDevice
from repro.engine import (
    DirectLink,
    PrimaryEngine,
    PrinsStrategy,
    ReplicaEngine,
    make_strategy,
    verify_consistency,
)
from repro.raid import Raid4Array, Raid5Array
from repro.workloads.trace import BlockWriteTrace, replay_trace

BS = 128
N = 8

write_lists = st.lists(
    st.tuples(st.integers(0, N - 1), st.binary(min_size=BS, max_size=BS)),
    max_size=40,
)


def _image(device: MemoryBlockDevice) -> bytes:
    return device.snapshot()


@settings(max_examples=25, deadline=None)
@given(writes=write_lists)
def test_all_strategies_produce_identical_replicas(writes):
    images = []
    for name in ("traditional", "compressed", "prins"):
        primary = MemoryBlockDevice(BS, N)
        replica = MemoryBlockDevice(BS, N)
        strategy = make_strategy(name)
        engine = PrimaryEngine(
            primary, strategy, [DirectLink(ReplicaEngine(replica, strategy))]
        )
        for lba, data in writes:
            engine.write_block(lba, data)
        assert verify_consistency(primary, replica) == []
        images.append(_image(replica))
    assert images[0] == images[1] == images[2]


@settings(max_examples=25, deadline=None)
@given(writes=write_lists, codec=st.sampled_from(["zero-rle", "sparse", "zlib", "rle+zlib"]))
def test_prins_codec_choice_is_invisible(writes, codec):
    primary = MemoryBlockDevice(BS, N)
    replica = MemoryBlockDevice(BS, N)
    strategy = PrinsStrategy(codec=codec)
    engine = PrimaryEngine(
        primary, strategy, [DirectLink(ReplicaEngine(replica, strategy))]
    )
    for lba, data in writes:
        engine.write_block(lba, data)
    assert verify_consistency(primary, replica) == []


@settings(max_examples=15, deadline=None)
@given(writes=write_lists, raid_cls=st.sampled_from([Raid4Array, Raid5Array]))
def test_raid_backed_primary_equals_flat_primary(writes, raid_cls):
    """The free RAID delta must equal the computed one, write for write."""
    flat_primary = MemoryBlockDevice(BS, 3 * N)
    flat_replica = MemoryBlockDevice(BS, 3 * N)
    strategy = make_strategy("prins")
    flat_engine = PrimaryEngine(
        flat_primary, strategy,
        [DirectLink(ReplicaEngine(flat_replica, strategy))],
    )
    array = raid_cls([MemoryBlockDevice(BS, N) for _ in range(4)])
    raid_replica = MemoryBlockDevice(BS, array.num_blocks)
    raid_engine = PrimaryEngine(
        array, strategy, [DirectLink(ReplicaEngine(raid_replica, strategy))]
    )
    for lba, data in writes:
        flat_engine.write_block(lba, data)
        raid_engine.write_block(lba, data)
    assert _image(flat_replica) == _image(raid_replica)
    # and the wire cost was identical: same deltas either way
    assert (
        flat_engine.accountant.payload_bytes
        == raid_engine.accountant.payload_bytes
    )


@settings(max_examples=20, deadline=None)
@given(writes=write_lists)
def test_trace_replay_is_faithful(writes):
    """Recording a write stream and replaying it reproduces the image."""
    original = MemoryBlockDevice(BS, N)
    trace = BlockWriteTrace(block_size=BS, num_blocks=N)
    for lba, data in writes:
        original.write_block(lba, data)
        trace.append(lba, data)
    replayed = MemoryBlockDevice(BS, N)
    replay_trace(trace, replayed)
    assert _image(original) == _image(replayed)


@settings(max_examples=25, deadline=None)
@given(writes=write_lists)
def test_write_many_equals_sequential_writes(writes):
    """The vectorized window path is observationally identical.

    ``write_many`` must leave the same primary image, the same replica
    image, and the same replicated payload accounting as issuing the
    writes one at a time — for any interleaving of LBAs (including
    same-window rewrites).
    """
    images = []
    payloads = []
    for use_many in (False, True):
        primary = MemoryBlockDevice(BS, N)
        replica = MemoryBlockDevice(BS, N)
        strategy = make_strategy("prins")
        engine = PrimaryEngine(
            primary, strategy, [DirectLink(ReplicaEngine(replica, strategy))]
        )
        if use_many:
            engine.write_many(writes)
        else:
            for lba, data in writes:
                engine.write_block(lba, data)
        assert verify_consistency(primary, replica) == []
        images.append((_image(primary), _image(replica)))
        payloads.append(engine.accountant.snapshot()["payload_bytes"])
    assert images[0] == images[1]
    assert payloads[0] == payloads[1]


@settings(max_examples=25, deadline=None)
@given(writes=write_lists)
def test_buffer_protocol_writes_equal_bytes_writes(writes):
    """Writing bytearray/memoryview payloads equals writing bytes."""
    images = []
    for wrap in (lambda d: d, lambda d: memoryview(bytearray(d))):
        primary = MemoryBlockDevice(BS, N)
        replica = MemoryBlockDevice(BS, N)
        strategy = PrinsStrategy()
        engine = PrimaryEngine(
            primary, strategy, [DirectLink(ReplicaEngine(replica, strategy))]
        )
        for lba, data in writes:
            engine.write_block(lba, wrap(data))
        assert verify_consistency(primary, replica) == []
        images.append(_image(replica))
    assert images[0] == images[1]
