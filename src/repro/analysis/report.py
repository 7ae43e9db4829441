"""Experiment-result records and paper-vs-measured comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import format_table


@dataclass(frozen=True)
class Comparison:
    """One paper claim checked against a measured value."""

    metric: str
    paper_value: float
    measured_value: float
    tolerance_factor: float = 3.0  # "shape, not absolute numbers"

    @property
    def ratio(self) -> float:
        """measured / paper (1.0 is a perfect match)."""
        if self.paper_value == 0:
            return float("inf") if self.measured_value else 1.0
        return self.measured_value / self.paper_value

    @property
    def within_tolerance(self) -> bool:
        """True if measured is within ``tolerance_factor``× of the paper."""
        ratio = self.ratio
        return 1.0 / self.tolerance_factor <= ratio <= self.tolerance_factor


@dataclass
class ExperimentResult:
    """A reproduced table/figure: id, data rows, and paper comparisons."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    comparisons: list[Comparison] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one data row."""
        self.rows.append(list(values))

    def add_comparison(
        self,
        metric: str,
        paper_value: float,
        measured_value: float,
        tolerance_factor: float = 3.0,
    ) -> Comparison:
        """Record a paper-vs-measured check."""
        comparison = Comparison(metric, paper_value, measured_value, tolerance_factor)
        self.comparisons.append(comparison)
        return comparison

    def to_dict(self) -> dict:
        """JSON-safe view of the whole result (rows, comparisons, notes)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "comparisons": [
                {
                    "metric": c.metric,
                    "paper_value": c.paper_value,
                    "measured_value": c.measured_value,
                    "ratio": c.ratio,
                    "within_tolerance": c.within_tolerance,
                }
                for c in self.comparisons
            ],
            "notes": list(self.notes),
            "ok": all(c.within_tolerance for c in self.comparisons),
        }

    def render(self) -> str:
        """Format the whole result for terminal output."""
        lines = [format_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")]
        if self.comparisons:
            lines.append("")
            lines.append("paper comparison:")
            for c in self.comparisons:
                verdict = "ok" if c.within_tolerance else "OUT OF BAND"
                lines.append(
                    f"  {c.metric}: paper={c.paper_value:g} "
                    f"measured={c.measured_value:g} "
                    f"(x{c.ratio:.2f}) [{verdict}]"
                )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
