"""Op streams are a pure function of the seed."""

import pytest

from bench.spec import load_spec
from bench.workloads import WORKLOADS


def test_the_five_named_workloads_exist():
    assert list(WORKLOADS) == list(load_spec().workloads)


@pytest.mark.parametrize("name", ["bulk64k.tcp", "tpcw.readmix", "outage.heal"])
def test_same_seed_same_stream_other_seed_other_stream(name):
    first = WORKLOADS[name](5, True)
    again = WORKLOADS[name](5, True)
    other = WORKLOADS[name](6, True)
    assert first.stream_hash == again.stream_hash
    assert first.stream_hash != other.stream_hash
    assert len(first.ops) == len(again.ops)


def test_bulk_never_rewrites_the_bytes_an_lba_holds():
    prepared = WORKLOADS["bulk64k.tcp"](1, False)
    held: dict[int, bytes] = {}
    for lba, data in prepared.ops:
        assert held.get(lba) is not data
        held[lba] = data


def test_readmix_is_nine_reads_per_write_with_expected_contents():
    prepared = WORKLOADS["tpcw.readmix"](1, True)
    kinds = [data is None for _, data in prepared.ops]
    assert kinds[:10] == [True] * 9 + [False]
    assert sum(kinds) == 9 * (len(kinds) - sum(kinds))
    assert len(prepared.expected) == len(prepared.ops)
    assert all(
        (want is None) == (data is not None)
        for (_, data), want in zip(prepared.ops, prepared.expected)
    )
