"""``scripts/check_doc_links.py`` reports a ``Class.member`` that no longer exists."""

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
