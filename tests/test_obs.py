"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers registry semantics, log2-histogram bucketing, span nesting and
ring-buffer bounds, the null-telemetry fast path, exporter formats, the
Ethernet wire model edge cases, accountant integration, and
the instrumented engine write path end-to-end (including the CLI
``demo --json`` acceptance path).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.block.memory import MemoryBlockDevice
from repro.engine.accounting import Flow, TrafficAccountant, ethernet_wire_bytes
from repro.engine.links import DirectLink
from repro.engine.primary import PrimaryEngine
from repro.engine.replica import ReplicaEngine
from repro.engine.resilience import ResilienceConfig
from repro.engine.strategy import make_strategy
from repro.obs import (
    NULL_SPAN,
    NULL_TELEMETRY,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    Tracer,
    get_telemetry,
    load_snapshot,
    render_metrics_report,
    render_trace_report,
    save_snapshot,
    to_json,
    to_prometheus,
    use_telemetry,
)

# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        c1 = registry.counter("a.b")
        c1.inc()
        c1.inc(4)
        assert registry.counter("a.b") is c1
        assert c1.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.inc(-1.5)
        assert gauge.value == 2.0

    def test_gauge_fn_is_lazy(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.gauge_fn("lazy", lambda: box["v"])
        box["v"] = 42
        assert registry.snapshot()["gauges"]["lazy"] == 42.0

    def test_callback_gauge_rejects_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge_fn("cb", lambda: 0)
        with pytest.raises(ValueError):
            gauge.set(1.0)

    def test_name_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_unique_name(self):
        registry = MetricsRegistry()
        registry.counter("n")
        assert registry.unique_name("n") == "n#2"
        registry.counter("n#2")
        assert registry.unique_name("n") == "n#3"
        assert registry.unique_name("fresh") == "fresh"

    def test_adopt_histogram_shares_state(self):
        registry = MetricsRegistry()
        hist = Histogram("external")
        registry.adopt_histogram("ext", hist)
        hist.record(7)
        assert registry.snapshot()["histograms"]["ext"]["count"] == 1

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.gauge("g").set(2)
        registry.histogram("h").record(5)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 0
        assert snap["gauges"]["g"] == 0.0
        assert snap["histograms"]["h"]["count"] == 0


# ---------------------------------------------------------------------------
# histogram bucketing
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_log2_bucket_edges(self):
        hist = Histogram("h")
        for v in (0, 1, 2, 3, 4):
            hist.record(v)
        buckets = {b["le"]: b["count"] for b in hist.snapshot()["buckets"]}
        # 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7
        assert buckets == {0: 1, 1: 1, 3: 2, 7: 1}

    def test_stats_and_mean(self):
        hist = Histogram("h")
        for v in (10, 20, 30):
            hist.record(v)
        assert hist.count == 3
        assert hist.sum == 60
        assert hist.min == 10
        assert hist.max == 30
        assert hist.mean == pytest.approx(20.0)

    def test_overflow_bucket(self):
        hist = Histogram("h", max_exponent=4)  # values > 15 overflow
        hist.record(16)
        hist.record(1_000_000)
        snap = hist.snapshot()
        assert snap["buckets"] == [{"le": "inf", "count": 2}]
        # overflow quantile reports the largest recorded value
        assert hist.quantile(0.99) == 1_000_000

    def test_quantiles_within_bucket_resolution(self):
        hist = Histogram("h")
        for v in range(1, 101):
            hist.record(v)
        p50 = hist.quantile(0.50)
        assert 50 <= p50 <= 100  # covering-bucket upper bound, 2x resolution
        assert hist.quantile(0.0) >= 1
        assert hist.quantile(1.0) == 100

    def test_rejects_negative_and_floors_floats(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.record(-1)
        hist.record(3.9)
        assert hist.sum == 3

    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["buckets"] == []
        assert snap["p50"] == 0

    def test_memory_is_bounded(self):
        hist = Histogram("h")
        baseline = len(hist._counts)
        for v in range(10_000):
            hist.record(v)
        assert len(hist._counts) == baseline


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_builds_one_trace(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id
        assert parent.trace_id == child.trace_id == grandchild.trace_id
        assert parent.duration_ns >= child.duration_ns >= 0

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_ring_buffer_is_bounded_but_summary_is_exact(self):
        tracer = Tracer(capacity=16)
        for _ in range(100):
            with tracer.span("op"):
                pass
        assert len(tracer.export_spans(max_spans=1000)) == 16
        assert tracer.summary()["op"]["count"] == 100
        assert tracer.spans_finished == 100

    def test_exception_sets_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (record,) = tracer.export_spans(10)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_span_attrs_round_trip(self):
        tracer = Tracer()
        with tracer.span("s", lba=7) as span:
            span.set("bytes", 99)
        (record,) = tracer.export_spans(10)
        assert record["attrs"] == {"lba": 7, "bytes": 99}

    def test_reset_clears_buffer_and_summary(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.export_spans(10) == []
        assert tracer.summary() == {}


# ---------------------------------------------------------------------------
# null telemetry (the disabled fast path)
# ---------------------------------------------------------------------------


class TestNullTelemetry:
    def test_span_is_shared_singleton(self):
        tel = NullTelemetry()
        assert tel.span("a", lba=1) is NULL_SPAN
        assert tel.span("b") is NULL_SPAN
        with tel.span("c") as span:
            span.set("k", "v")  # swallowed, no state

    def test_metrics_are_shared_singletons(self):
        tel = NullTelemetry()
        assert tel.counter("a") is tel.counter("b")
        assert tel.histogram("a") is tel.histogram("b")
        tel.counter("a").inc(10)
        assert tel.counter("a").value == 0

    def test_snapshot_shape(self):
        snap = NullTelemetry().snapshot()
        assert snap["enabled"] is False
        assert snap["traces"] == []
        assert snap["sources"] == {}

    def test_default_telemetry_is_null(self):
        assert get_telemetry() is NULL_TELEMETRY

    def test_null_span_overhead_is_negligible(self):
        tel = NULL_TELEMETRY
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            with tel.span("write"):
                pass
        per_op = (time.perf_counter() - start) / n
        # generous: a no-op context manager should cost well under 5us
        assert per_op < 5e-6


class TestUseTelemetry:
    def test_scoped_install_and_restore(self):
        tel = Telemetry()
        assert get_telemetry() is NULL_TELEMETRY
        with use_telemetry(tel):
            assert get_telemetry() is tel
            nested = Telemetry()
            with use_telemetry(nested):
                assert get_telemetry() is nested
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_register_source_unique_ifies(self):
        tel = Telemetry()
        assert tel.register_source("engine", dict) == "engine"
        assert tel.register_source("engine", dict) == "engine#2"
        assert tel.source_names == ["engine", "engine#2"]
        tel.unregister_source("engine#2")
        assert tel.source_names == ["engine"]


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _sample_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.counter("transport.bytes_sent").inc(1234)
    tel.gauge("queue.depth").set(3)
    hist = tel.histogram("payload_bytes")
    for v in (100, 200, 5000):
        hist.record(v)
    with tel.span("write", lba=1):
        with tel.span("write.encode"):
            pass
    tel.register_source("engine.prins", lambda: {"payload_bytes": 42})
    return tel


class TestExporters:
    def test_json_round_trip(self):
        snap = _sample_telemetry().snapshot()
        assert json.loads(to_json(snap)) == snap

    def test_save_and_load(self, tmp_path):
        snap = _sample_telemetry().snapshot()
        path = tmp_path / "snap.json"
        save_snapshot(snap, path)
        assert load_snapshot(path) == snap

    def test_prometheus_format(self):
        text = to_prometheus(_sample_telemetry().snapshot())
        assert "# TYPE prins_transport_bytes_sent_total counter" in text
        assert "prins_transport_bytes_sent_total 1234" in text
        assert "# TYPE prins_queue_depth gauge" in text
        assert "# TYPE prins_payload_bytes histogram" in text
        assert 'le="+Inf"' in text
        assert "prins_payload_bytes_count 3" in text
        # spans export as summaries with quantile labels
        assert 'quantile="0.5"' in text
        # source leaves flatten to gauges
        assert "engine_prins_payload_bytes 42" in text
        # every line is either a comment or name[ {labels}] value
        for line in text.splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_metrics_report_sections(self):
        report = render_metrics_report(_sample_telemetry().snapshot())
        assert "transport.bytes_sent" in report
        assert "queue.depth" in report
        assert "payload_bytes" in report
        assert "write.encode" in report
        assert "engine.prins" in report

    def test_metrics_report_handles_disabled(self):
        report = render_metrics_report(NullTelemetry().snapshot())
        assert "disabled" in report.lower()

    def test_trace_report_renders_tree(self):
        tel = Telemetry()
        with tel.span("write", lba=9):
            with tel.span("write.send", link=0):
                with tel.span("replica.apply"):
                    pass
        report = render_trace_report(tel.snapshot())
        lines = report.splitlines()
        assert "write (lba=9)" in report
        assert "write.send (link=0)" in report
        assert "replica.apply" in report
        # children are indented under their parent
        write_line = next(ln for ln in lines if "write (" in ln)
        send_line = next(ln for ln in lines if "write.send" in ln)
        apply_line = next(ln for ln in lines if "replica.apply" in ln)

        def indent(s: str) -> int:
            return len(s) - len(s.lstrip())

        assert indent(write_line) < indent(send_line) < indent(apply_line)


# ---------------------------------------------------------------------------
# ethernet wire model edges (paper Sec. 3.3)
# ---------------------------------------------------------------------------


class TestEthernetWireBytes:
    def test_exact_packet_edges(self):
        assert ethernet_wire_bytes(1499, exact_packets=True) == 1499 + 112
        assert ethernet_wire_bytes(1500, exact_packets=True) == 1500 + 112
        assert ethernet_wire_bytes(1501, exact_packets=True) == 1501 + 2 * 112

    def test_continuous_model(self):
        for payload in (1499, 1500, 1501, 123_456):
            assert ethernet_wire_bytes(payload) == pytest.approx(
                payload * (1 + 112 / 1500)
            )

    def test_zero_is_zero(self):
        assert ethernet_wire_bytes(0) == 0.0
        assert ethernet_wire_bytes(0, exact_packets=True) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ethernet_wire_bytes(-1)

    def test_accountant_total_matches_linear_model(self):
        accountant = TrafficAccountant()
        for payload in (10, 1499, 1500, 1501, 9000):
            accountant.charge_write(8192, payload)
        assert accountant.ethernet_bytes == pytest.approx(
            sum(
                ethernet_wire_bytes(p) for p in (10, 1499, 1500, 1501, 9000)
            )
        )


# ---------------------------------------------------------------------------
# accountant histogram + keep_raw
# ---------------------------------------------------------------------------


class TestAccountantBounds:
    def test_raw_sample_gated_by_keep_raw(self):
        bounded = TrafficAccountant()
        raw = TrafficAccountant(keep_raw=True)
        for acct in (bounded, raw):
            for payload in (100, 200, 300):
                acct.charge_write(8192, payload)
        assert bounded.per_write_payloads == []
        assert raw.per_write_payloads == [100, 200, 300]
        # the bounded histogram is maintained either way
        assert bounded.payload_histogram.count == 3
        assert bounded.payload_histogram.sum == 600

    def test_snapshot_is_json_safe_and_complete(self):
        acct = TrafficAccountant()
        acct.charge_write(8192, 500)
        acct.charge_write(8192, None)  # skipped
        acct.post(0, Flow.RETRY, 64)
        acct.post(0, Flow.RESYNC, 1024)
        snap = acct.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["writes_total"] == 2
        assert snap["writes_skipped"] == 1
        assert snap["payload_bytes"] == 500
        assert snap["per_write_payload_bytes"]["count"] == 1
        assert snap["resilience"]["retries"] == 1
        assert snap["resilience"]["recovery_bytes"] == 64 + 1024

    def test_reduction_inf_encodes_as_negative_one(self):
        acct = TrafficAccountant()
        acct.charge_write(8192, None)
        assert acct.snapshot()["reduction_vs_data"] == -1.0

    def test_reset_clears_histogram(self):
        acct = TrafficAccountant(keep_raw=True)
        acct.charge_write(8192, 500)
        acct.reset()
        assert acct.payload_histogram.count == 0
        assert acct.per_write_payloads == []


# ---------------------------------------------------------------------------
# engine integration: the instrumented write path
# ---------------------------------------------------------------------------


def _run_instrumented_engine(tel: Telemetry, strategy_name: str = "prins") -> None:
    block_size, blocks = 512, 16
    primary = MemoryBlockDevice(block_size, blocks)
    replica = MemoryBlockDevice(block_size, blocks)
    strategy = make_strategy(strategy_name)
    engine = PrimaryEngine(
        primary,
        strategy,
        [DirectLink(ReplicaEngine(replica, strategy))],
        resilience=ResilienceConfig(),
        telemetry=tel,
        telemetry_name=f"test.{strategy_name}",
    )
    payload = bytes(range(256)) * 2
    for lba in range(8):
        engine.write_block(lba, payload)
        engine.write_block(lba, payload[:-1] + b"\x00")  # one byte flipped


class TestEngineIntegration:
    def test_write_path_spans_present(self):
        tel = Telemetry(detail=True)
        _run_instrumented_engine(tel)
        spans = tel.snapshot()["spans"]
        for stage in (
            "write",
            "write.local",
            "write.delta",
            "write.encode",
            "write.send",
            "replica.apply",
            "replica.decode",
        ):
            assert stage in spans, f"missing span {stage}"
            assert spans[stage]["count"] > 0

    def test_span_tree_nests_send_over_apply(self):
        tel = Telemetry()
        _run_instrumented_engine(tel)
        records = tel.snapshot()["traces"]
        by_id = {r["span_id"]: r for r in records}
        applies = [r for r in records if r["name"] == "replica.apply"]
        assert applies
        for record in applies:
            parent = by_id.get(record["parent_id"])
            if parent is not None:
                assert parent["name"] == "write.send"
                assert parent["trace_id"] == record["trace_id"]

    def test_engine_source_carries_accounting_and_health(self):
        tel = Telemetry()
        _run_instrumented_engine(tel)
        source = tel.snapshot()["sources"]["test.prins"]
        assert source["strategy"] == "prins"
        assert source["accountant"]["writes_total"] == 16
        assert source["accountant"]["payload_bytes"] > 0
        assert source["links"]["health"] == ["healthy"]
        assert source["links"]["backlog_depths"] == [0]

    def test_resilience_counters_register(self):
        tel = Telemetry()
        _run_instrumented_engine(tel)
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["resilience.ships_delivered"] == 16
        assert counters["resilience.ships_journaled"] == 0

    def test_null_telemetry_engine_records_nothing(self):
        _run_instrumented_engine(NULL_TELEMETRY)  # must simply not blow up
        assert NULL_TELEMETRY.snapshot()["traces"] == []

    def test_full_snapshot_json_round_trips(self):
        tel = Telemetry()
        _run_instrumented_engine(tel)
        snap = tel.snapshot()
        assert json.loads(to_json(snap)) == snap


# ---------------------------------------------------------------------------
# CLI acceptance: demo --json carries stage timings + histograms + resilience
# ---------------------------------------------------------------------------


class TestCliSnapshot:
    def test_demo_tpcc_json_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "snap.json"
        assert (
            main(
                [
                    "demo",
                    "--workload",
                    "tpcc",
                    "--transactions",
                    "10",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        snap = load_snapshot(path)
        # per-stage span timings for the full write path
        for stage in ("write.delta", "write.encode", "write.send", "replica.apply"):
            assert snap["spans"][stage]["count"] > 0
        # byte histograms for all three strategies
        for name in ("traditional", "compressed", "prins"):
            hist = snap["sources"][f"demo.{name}"]["accountant"][
                "per_write_payload_bytes"
            ]
            assert hist["count"] > 0
        # resilience counters present
        assert snap["metrics"]["counters"]["resilience.ships_delivered"] > 0

    def test_demo_json_stdout_is_pure_json(self, capsys):
        from repro.cli import main

        assert main(["demo", "--transactions", "5", "--json"]) == 0
        out = capsys.readouterr().out
        snap = json.loads(out)  # nothing but JSON on stdout
        assert snap["enabled"] is True

    def test_metrics_and_trace_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "snap.json"
        main(["demo", "--transactions", "5", "--json", str(path)])
        capsys.readouterr()
        assert main(["metrics", str(path)]) == 0
        report = capsys.readouterr().out
        assert "resilience.ships_delivered" in report
        assert main(["trace", "report", str(path)]) == 0
        tree = capsys.readouterr().out
        assert "write" in tree and "replica.apply" in tree
