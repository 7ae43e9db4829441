"""A smoke run of every workload, and the schema BENCHMARK.json promises."""

import json

import pytest

from bench import cli, report
from bench.runner import measure
from bench.spec import load_spec
from bench.trace import TraceSession

SPEC = load_spec()


@pytest.fixture(scope="module")
def traced():
    """Each workload once, smoke-sized, untraced phase then traced phase."""
    return {
        name: measure(name, 3, 0.5, smoke=True, probe=TraceSession())
        for name in SPEC.workloads
    }


@pytest.mark.parametrize("name", list(SPEC.workloads))
def test_smoke_run_is_correct_and_emits_every_metric(traced, name):
    result = traced[name]
    assert result["correct"] and result["failed"] == 0, result["errors"]
    assert result["attempted"] >= 1
    e2e = report.end_to_end(result, SPEC)
    assert list(e2e) == [m.name for m in SPEC.end_to_end]
    assert all(v["value"] > 0 for v in e2e.values())
    layers = report.per_layer(result, SPEC)
    assert list(layers) == [m.name for m in SPEC.per_layer]
    assert all(isinstance(v["value"], (int, float)) for v in layers.values())
    json.dumps(result)  # the record must be writable as it is


def test_layers_appear_only_where_predicted(traced):
    def share(name, layer):
        return traced[name]["layers"]["table"][layer]["share"]

    for name in SPEC.workloads:
        inline = traced[name]["transport"] == "inline"
        assert (share(name, "iscsi") == 0) == inline
        assert (share(name, "engine.router") > 0) == (name == "tpcw.readmix")
        assert (share(name, "engine.resilience") > 0) == (name == "outage.heal")
        assert traced[name]["layers"]["trace_coverage"] <= 1.0
    for name in ("tpcc.tcp", "bulk64k.tcp"):
        assert share(name, "engine.scheduler") == 0
    assert share("tpcc.tcp.r3", "engine.scheduler") > 0


def test_same_seed_repeats_wire_bytes_exactly(traced):
    again = measure("bulk64k.tcp", 3, 0.2, smoke=True)
    first = traced["bulk64k.tcp"]
    assert again["stream_hash"] == first["stream_hash"]
    assert again["wire_bytes_per_user_byte"] == first["wire_bytes_per_user_byte"]


def test_a_renamed_internal_does_not_break_the_run(capsys):
    from bench.trace import TARGETS, Target

    targets = TARGETS + (Target("engine.router", "repro.engine.router.Gone.read"),)
    result = measure("bulk64k.tcp", 3, 0.2, smoke=True, probe=TraceSession(targets))
    assert result["correct"]
    assert result["layers"]["table"]["engine.router"] is None
    assert result["layers"]["extras"]["engine.router.replica_share"] is None
    assert report.per_layer(result, SPEC)["engine.router.share"]["value"] == 0
    assert capsys.readouterr().err.count("not found") == 1


def test_failed_check_fails_every_operation_of_the_repetition(monkeypatch):
    from repro.api import PrimaryStack

    monkeypatch.setattr(PrimaryStack, "verify", lambda self: False)
    result = measure("bulk64k.tcp", 3, 0.2, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "differs" in result["errors"][0]


def test_run_prints_the_driver_line_last(capsys):
    code = cli.main(
        ["run", "--workload", "bulk64k.tcp", "--seed", "2", "--seconds", "0.2",
         "--trace", "0", "--smoke"]
    )
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in SPEC.end_to_end]
    assert line["metrics"]["setup_s"]["unit"] == "s"


def _fake(ops_per_s=1000.0, wire=0.5, p50_reps=(100.0, 100.0, 100.0)):
    return {
        "seed": 1,
        "correct": True,
        "failed": 0,
        "stream_hash": "abc",
        "ops_per_s": ops_per_s,
        "op_p50_us": 100.0,
        "op_p95_us": 200.0,
        "wire_bytes_per_user_byte": wire,
        "setup_s": 1.0,
        "per_repetition": {
            "ops_per_s": [ops_per_s] * 3,
            "op_p50_us": list(p50_reps),
            "op_p95_us": [200.0] * 3,
            "setup_s": [1.0] * 3,
        },
    }


def test_compare_verdicts(tmp_path, capsys):
    meta = report.meta(1, 1.0, False)
    base = {"meta": meta, "results": {"tpcc.tcp": _fake(), "bulk64k.tcp": _fake()}}
    other = {
        "meta": meta,
        "results": {
            "tpcc.tcp": _fake(ops_per_s=500.0, wire=0.5005),
            "bulk64k.tcp": _fake(ops_per_s=1300.0, p50_reps=(50, 100, 150, 200)),
        },
    }
    rows = report.compare(base, other, SPEC)
    assert ("tpcc.tcp", "ops_per_s", "worse") in rows
    assert ("tpcc.tcp", "op_p95_us", "same") in rows
    # within the bound across seeds, yet not bit-identical for the same seed
    assert ("tpcc.tcp", "wire_bytes_per_user_byte", "same") in rows
    assert ("tpcc.tcp", "wire_bytes_per_user_byte", "broken") in rows
    assert ("bulk64k.tcp", "ops_per_s", "better") in rows
    assert ("bulk64k.tcp", "op_p50_us", "unresolved") in rows
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(other))
    assert cli.main(["compare", str(a), str(b)]) == 1
    assert cli.main(["compare", str(a), str(a)]) == 0
    assert "B/A" in capsys.readouterr().out
