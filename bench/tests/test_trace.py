"""Span self-time arithmetic, patch/restore, and the missing-target path."""

from bench.trace import TARGETS, Span, Target, TraceSession, resolve, self_times
from repro.block.device import BlockDevice
from repro.block.memory import MemoryBlockDevice

CLIENT, SERVER = 1, 2


def span(sid, layer, start, end, parent=-1, thread=CLIENT):
    return Span(sid, layer, "f", start, end, parent, 0, thread)


def test_self_time_is_duration_minus_children():
    spans = [
        span(0, "engine.primary", 0, 100),
        span(1, "block", 10, 30, parent=0),
        span(2, "parity", 30, 70, parent=0),
        span(3, "block", 40, 45, parent=2),  # grandchild: charged to parity only
    ]
    self_ns, calls = self_times(spans, CLIENT)
    assert self_ns == {"engine.primary": 40, "block": 25, "parity": 35}
    assert calls == {"engine.primary": 1, "block": 2, "parity": 1}
    assert sum(self_ns.values()) == 100  # self times tile the root span


def test_server_thread_spans_are_adopted_by_the_containing_send():
    spans = [
        span(0, "engine.primary", 0, 200),
        span(1, "iscsi", 20, 90, parent=0),
        span(2, "iscsi", 100, 180, parent=0),
        span(3, "engine.replica", 40, 70, thread=SERVER),
        span(4, "block", 50, 60, parent=3, thread=SERVER),
        span(5, "engine.replica", 120, 170, thread=SERVER),
    ]
    self_ns, _ = self_times(spans, CLIENT)
    # each send loses exactly the replica time it carried
    assert self_ns["iscsi"] == (70 - 30) + (80 - 50)
    assert self_ns["engine.replica"] == (30 - 10) + 50
    assert self_ns["engine.primary"] == 200 - 70 - 80
    assert sum(self_ns.values()) == 200


def test_server_span_outside_any_send_keeps_no_parent():
    spans = [
        span(0, "iscsi", 0, 50),
        span(1, "engine.replica", 40, 80, thread=SERVER),  # straddles the end
    ]
    self_ns, _ = self_times(spans, CLIENT)
    assert self_ns == {"iscsi": 50, "engine.replica": 40}


def test_every_shipped_target_resolves():
    assert [t.dotted for t in TARGETS if resolve(t.dotted) is None] == []


def test_patches_are_restored_and_inherited_methods_uncovered():
    inherited = "read_block" not in vars(MemoryBlockDevice)
    before = MemoryBlockDevice.read_block
    with TraceSession():
        assert MemoryBlockDevice.read_block is not before
    assert MemoryBlockDevice.read_block is before
    assert ("read_block" not in vars(MemoryBlockDevice)) == inherited
    assert MemoryBlockDevice.read_block is BlockDevice.read_block


def test_spans_record_only_between_start_and_stop():
    device = MemoryBlockDevice(512, 4)
    with TraceSession() as session:
        device.write_block(0, bytes(512))
        assert session.spans == []
        session.start()
        device.write_block(1, bytes(512))
        device.read_block(1)
        session.stop()
        device.read_block(1)
    assert [Span._make(s).name for s in session.spans] == [
        "write_block",
        "read_block",
    ]
    assert {Span._make(s).layer for s in session.spans} == {"block"}


def test_missing_target_nulls_its_layer_with_one_warning(capsys):
    targets = TARGETS + (
        Target("parity", "repro.engine.strategy.PrinsStrategy.renamed_away"),
        Target("parity", "repro.engine.no_such_module.Thing.method"),
    )
    with TraceSession(targets) as session:
        pass
    assert session.null_layers == {"parity"}
    warnings = capsys.readouterr().err.strip().splitlines()
    assert len(warnings) == 1 and "renamed_away" in warnings[0]
