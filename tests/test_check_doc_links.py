"""``scripts/check_doc_links.py`` reports members and config fields that no longer exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_doc_links.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deleted_member_is_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Book with `TrafficAccountant.charge_write`, check with "
        "`PrimaryEngine.verify_traffic_conservation()`, inherit "
        "`PrimaryEngine.write_block(lba, data)` from `BlockDevice`, read "
        "`BENCH_erasure.json`, and stop calling "
        "`TrafficAccountant.record_write`.\n"
    )
    problems = _checker().check_file(doc)
    assert problems == ["doc.md: no member `TrafficAccountant.record_write`"]


def test_removed_config_field_is_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Mirror with `ReplicationConfig(replicas_per_node=2)`.\n\n"
        "```python\n"
        'config = ReplicationConfig(strategy="prins", replicas=2,\n'
        "                           observability=ObservabilityConfig(\n"
        "                               enabled=True))\n"
        "```\n"
    )
    problems = _checker().check_file(doc)
    assert problems == [
        "doc.md: no ReplicationConfig field `replicas_per_node`"
    ]
