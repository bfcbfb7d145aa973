"""CSV (RFC-4180) and single-chart SVG emission.

Numeric cells are written with '.' decimal separator and 17 significant
digits, enough for bit-exact float round-trips.  Footer comments (slope
fits, low-precision flags) are written after the data rows as lines
starting with '# ' and skipped by the reader.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from html import escape  # xml.sax.saxutils would import urllib, http.client and ssl

__all__ = ["CsvTable", "fmt_cell", "write_csv", "read_csv", "write_svg"]


def fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class CsvTable:
    header: list[str]
    rows: list[list[str]] = field(default_factory=list)
    footer_comments: list[str] = field(default_factory=list)

    def add_row(self, values) -> None:
        cells = [fmt_cell(v) for v in values]
        if len(cells) != len(self.header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(self.header)}")
        self.rows.append(cells)

    def column(self, name: str) -> list[str]:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    def to_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        for comment in self.footer_comments:
            buf.write(f"# {comment}\r\n")
        return buf.getvalue().encode("utf-8")


def write_csv(table: CsvTable, path) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(table.to_bytes())
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path) -> CsvTable:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            content = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    data_lines: list[str] = []
    comments: list[str] = []
    for line in content.splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif line:
            data_lines.append(line)
    reader = csv.reader(data_lines)
    records = list(reader)
    if not records:
        raise ValueError(f"{path}: empty CSV")
    return CsvTable(header=records[0], rows=records[1:], footer_comments=comments)


# ---------------------------------------------------------------------------
# SVG: one 800x600 chart, one polyline per y column.
# ---------------------------------------------------------------------------

_W, _H = 800, 600
_MARGIN = 70
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _axis_transform(values, log_scale: bool):
    vals = [float(v) for v in values]
    if log_scale:
        vals = [math.log10(v) for v in vals if v > 0]
        if not vals:
            raise ValueError("log axis needs at least one positive value")
    lo, hi = min(vals), max(vals)
    if hi - lo < 1e-300:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def write_svg(table: CsvTable, x_col: str, y_cols: list[str], path,
              log_log: bool = False) -> None:
    xs = [float(v) for v in table.column(x_col)]
    series = {name: [float(v) for v in table.column(name)] for name in y_cols}

    def tx(v):
        return math.log10(v) if log_log else v

    x_lo, x_hi = _axis_transform(xs, log_log)
    all_y = [v for ys in series.values() for v in ys]
    y_lo, y_hi = _axis_transform(all_y, log_log)

    def px(v):
        return _MARGIN + (tx(v) - x_lo) / (x_hi - x_lo) * (_W - 2 * _MARGIN)

    def py(v):
        return _H - _MARGIN - (tx(v) - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" y2="{_H - _MARGIN}" '
        'stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 20}" text-anchor="middle" font-size="14">'
        f'{escape(x_col, quote=False)}{" (log)" if log_log else ""}</text>',
    ]
    for k, (name, ys) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if not log_log or (x > 0 and y > 0)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{_W - _MARGIN + 5}" y="{_MARGIN + 18 * k + 10}" font-size="12" '
            f'fill="{color}" text-anchor="end">{escape(name, quote=False)}</text>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc
