"""Property test: routed reads are indistinguishable from primary reads.

Hypothesis drives an interleaved read/write/flush/drain schedule through
a replica-routed stack and checks, at every read, that the routed answer
equals the primary device's bytes — the ground truth for the latest
completed write, since the primary always applies locally before
shipping.  The grid crosses fan-out mode (sequential vs pipelined, where
in-flight work makes conflicts real) and redundancy (mirror vs erasure
any-k reassembly).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ReplicationConfig, open_primary

BS = 64
N = 16

#: one schedule step: ("write", lba, payload) | ("read", lba)
#: | ("flush",) | ("drain",)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, N - 1),
            st.binary(min_size=BS, max_size=BS),
        ),
        st.tuples(st.just("read"), st.integers(0, N - 1)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("drain")),
    ),
    max_size=30,
)


def _config(fanout: str, redundancy: str) -> ReplicationConfig:
    kwargs: dict = dict(
        block_size=BS,
        num_blocks=N,
        read_policy="replica",
        resilient=True,
    )
    if fanout == "pipelined":
        # sim-mode latency keeps submitted work dirty until drain, so
        # the schedule actually exercises the conflict fallback
        kwargs.update(fanout="pipelined", window=4, link_latency_s=0.01)
    if redundancy == "erasure":
        kwargs.update(redundancy="erasure", k=2, n=4)
    else:
        kwargs.update(replicas=2)
    return ReplicationConfig(**kwargs)


@pytest.mark.parametrize("redundancy", ["mirror", "erasure"])
@pytest.mark.parametrize("fanout", ["sequential", "pipelined"])
@settings(max_examples=10, deadline=None)
@given(schedule=ops)
def test_routed_reads_equal_primary_reads(fanout, redundancy, schedule):
    config = _config(fanout, redundancy)
    with open_primary(config) as stack:
        engine = stack.engine
        for step in schedule:
            if step[0] == "write":
                engine.write_block(step[1], step[2])
            elif step[0] == "read":
                assert engine.read_block(step[1]) == stack.device.read_block(
                    step[1]
                )
            elif step[0] == "flush":
                engine.flush_batch()
            else:
                engine.drain()
        engine.drain()
        # quiescent sweep: every LBA routable and still correct
        for lba in range(N):
            assert engine.read_block(lba) == stack.device.read_block(lba)
