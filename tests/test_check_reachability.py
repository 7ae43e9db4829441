"""``scripts/check_reachability.py``: function keys, the allowlist verdict."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_reachability.py"


def _probe():
    spec = importlib.util.spec_from_file_location("check_reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_function_exists():
    """The allowlist names only functions that are still in src/repro."""
    probe = _probe()
    index = probe.function_index()
    allowed = probe.read_allowlist()
    assert allowed
    assert probe.compare(index, {}, allowed)["gone"] == []


def test_profiled_calls_map_to_their_definitions(tmp_path, monkeypatch):
    tmp_path = tmp_path.resolve()
    package = tmp_path / "reach_fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "probe_fixture.py").write_text(
        "import functools\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached(x):\n"
        "    return x\n"
        "\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 1\n"
        "\n"
        "    @value.setter\n"
        "    def value(self, new):\n"
        "        pass\n"
        "\n"
        "    def unused(self):\n"
        "        def inner():\n"
        "            return 2\n"
        "\n"
        "        return inner()\n"
    )
    probe = _probe()
    monkeypatch.setattr(probe, "SRC", tmp_path)
    monkeypatch.setattr(probe, "PACKAGE", package)
    monkeypatch.syspath_prepend(str(tmp_path))
    index = probe.function_index()
    assert sorted(name for name, _ in index.values()) == [
        "reach_fixture.probe_fixture:Box.unused",
        "reach_fixture.probe_fixture:Box.unused.<locals>.inner",
        "reach_fixture.probe_fixture:Box.value",
        "reach_fixture.probe_fixture:Box.value#2",
        "reach_fixture.probe_fixture:cached",
    ]

    import reach_fixture.probe_fixture as fixture

    sys.setprofile(probe._profile)
    try:
        fixture.cached(3)
        box = fixture.Box()
        box.value = box.value
    finally:
        sys.setprofile(None)
        sys.modules.pop("reach_fixture.probe_fixture")
        sys.modules.pop("reach_fixture")
    seen = probe._seen_keys()
    assert sorted(name for key, (name, _) in index.items() if key not in seen) == [
        "reach_fixture.probe_fixture:Box.unused",
        "reach_fixture.probe_fixture:Box.unused.<locals>.inner",
    ]


def test_verdict_fails_only_on_new_or_gone():
    probe = _probe()
    index = {
        ("a.py", 1): ("m:dead", 3),
        ("a.py", 5): ("m:listed_dead", 2),
        ("a.py", 9): ("m:listed_live", 4),
        ("a.py", 20): ("m:worker_main", 9),
    }
    unreached = {
        "m:dead": (3, False),
        "m:listed_dead": (2, False),
        "m:worker_main": (9, False),
    }
    allowed = {
        "m:listed_dead": "",
        "m:listed_live": "",
        "m:worker_main": "worker",
        "m:deleted": "",
    }
    assert probe.compare(index, unreached, allowed) == {
        "new": ["m:dead"],
        "gone": ["m:deleted"],
        "reached": ["m:listed_live"],
        "retagged": ["m:worker_main"],
    }
