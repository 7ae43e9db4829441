"""The benchmark contract, read from ``BENCHMARK.json`` at the repo root.

``BENCHMARK.json`` is the single place that names the workloads, the
end-to-end metrics with their regression bounds, and the per-layer
metrics; the harness reads it rather than repeating those lists, so a
metric cannot be printed under one name and gated under another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    """One named metric: its unit, direction and (end-to-end only) bound."""

    name: str
    unit: str
    better: str
    bound: float | None = None

    def worsening(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base``, as a share of ``base``.

        Positive means worse in this metric's direction, negative better.
        """
        if self.better == "lower":
            return (new - base) / base
        return (base - new) / base


@dataclass(frozen=True)
class Spec:
    """The parsed contract."""

    run_seconds: int
    workloads: dict[str, str]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]


def load_spec(path: Path = SPEC_PATH) -> Spec:
    """Parse ``BENCHMARK.json`` into a :class:`Spec`."""
    raw = json.loads(path.read_text())
    return Spec(
        run_seconds=int(raw["run_seconds"]),
        workloads={w["name"]: w["why"] for w in raw["workloads"]},
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
    )
