"""ASCII chart rendering for examples and the benchmark CLI.

The paper's figures are line charts; in a terminal we render horizontal bar
charts, which is all the reproduction targets need (relative ordering and
crossovers).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.validation import check_positive


def hbar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 48,
    max_value: float | None = None,
    fmt: str = "{:.0f}",
    fill: str = "#",
) -> str:
    """Horizontal bar chart: one line per (label, value).

    ``max_value`` fixes the scale (default: max of the data) so multiple
    charts can share an axis.  Values render right of the bars.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values differ in length")
    if not labels:
        return "(empty chart)\n"
    check_positive("width", width)
    scale = max_value if max_value is not None else max(values)
    if scale <= 0:
        scale = 1.0
    label_w = max(len(str(l)) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        if value < 0:
            raise ValueError(f"negative value {value} not chartable")
        n = min(width, int(round(width * value / scale)))
        bar = fill * max(n, 1 if value > 0 else 0)
        lines.append(f"{str(label).rjust(label_w)} | {bar.ljust(width)} {fmt.format(value)}")
    return "\n".join(lines) + "\n"

