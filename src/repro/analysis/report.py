"""Plain-text report formatting shared by experiments and benchmarks."""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_ratio"]


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render a list of row dictionaries as an aligned plain-text table."""
    if not rows:
        return title or "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_ratio(baseline: float, improved: float, suffix: str = "x") -> str:
    """Render ``baseline / improved`` as the paper's "N.Nx" reduction factor."""
    if improved <= 0:
        raise ValueError("improved must be positive")
    return f"{baseline / improved:.1f}{suffix}"
