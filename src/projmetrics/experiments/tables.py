"""CSV (RFC-4180) and single-chart SVG emission.

A table keeps its cells column by column, as lists or whole arrays, and
classifies each column in one pass when it is written or read through
column() and rows: floats format with '%.17g', the bytes of
format(x, '.17g') ('.' decimal separator, bit-exact round trips), and bools
read true/false; a column of other or mixed kinds is formatted cell by
cell, by the same rules, ints and anything else with str.  A text cell is
quoted where csv.writer's QUOTE_MINIMAL quotes it, and also when it is a
row's first cell and starts with '# '.  to_bytes encodes all data rows
with one printf-style call: the columns' values are interleaved row by row
into one flat tuple, and each line's format is the columns' specs joined by
commas, '%.17g' for a float column and '%s' for any other, whose cells are
already text; every line ends in CRLF.  Footer comments (slope fits,
low-precision flags) follow the data rows as lines starting with '# ',
which the reader skips outside quoted fields.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from html import escape  # xml.sax.saxutils would import urllib, http.client and ssl

__all__ = ["CsvTable", "write_csv", "read_csv", "write_svg"]

_FLOAT = ".17g"
_QUOTED = frozenset(',"\r\n')


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, _FLOAT)
    return str(x)


def _cells(column) -> tuple[str, list, bool]:
    """A column classified in one pass: (spec, values, text), where the
    printf-style spec formats each value to its cell, and text says whether
    a cell may need quoting (formatted numbers never do).  A float column
    keeps its floats under '%.17g'; a bool column, and any other, is its
    cells' text under '%s'."""
    values = column.tolist() if hasattr(column, "tolist") else column
    kinds = set(map(type, values))
    if kinds <= {float}:
        return "%" + _FLOAT, values, False
    if kinds <= {bool}:
        return "%s", list(map(("false", "true").__getitem__, values)), False
    return "%s", list(map(_cell, values)), True


def _texts(column) -> list[str]:
    """The text of each of a column's cells."""
    spec, values, _ = _cells(column)
    return list(map(spec.__mod__, values))


def _field(cell: str, first: bool, alone: bool) -> str:
    """A text cell as written: quoted, inner quotes doubled, when it holds a
    comma, a double quote, CR or LF, or is the empty only cell of its row
    (as csv.writer's QUOTE_MINIMAL does), or would read back as a footer."""
    if (not _QUOTED.isdisjoint(cell) or (alone and not cell)
            or (first and cell.startswith("# "))):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@dataclass
class CsvTable:
    """Header names, one column of cells per name (a list that add_row
    appends to, or a whole array handed over), and footer comments."""

    header: list[str]
    columns: list | None = None
    footer_comments: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.columns is None:
            self.columns = [[] for _ in self.header]
        if len(self.columns) != len(self.header) or len(set(map(len, self.columns))) > 1:
            raise ValueError("need one column per header name, all of one length")

    def add_row(self, values) -> None:
        if len(values) != len(self.header):
            raise ValueError(f"row has {len(values)} cells, header has {len(self.header)}")
        for column, value in zip(self.columns, values):
            column.append(value)

    def column(self, name: str) -> list[str]:
        return _texts(self.columns[self.header.index(name)])

    @property
    def rows(self) -> list[list[str]]:
        return [list(row) for row in zip(*map(_texts, self.columns))]

    def to_bytes(self) -> bytes:
        alone, width = len(self.header) == 1, len(self.columns)
        n = len(self.columns[0]) if width else 0
        specs, flat = [], [None] * (n * width)
        for k, column in enumerate(self.columns):
            spec, values, text = _cells(column)
            specs.append(spec)
            flat[k::width] = [_field(c, k == 0, alone) for c in values] if text else values
        head = ",".join(_field(h, k == 0, alone) for k, h in enumerate(self.header))
        body = (",".join(specs) + "\r\n") * n % tuple(flat)
        tail = "".join(f"# {comment}\r\n" for comment in self.footer_comments)
        return (head + "\r\n" + body + tail).encode("utf-8")


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
    comments: list[str] = []

    def data_lines():
        quoted = False  # the line starts inside a quoted field
        for line in io.StringIO(content, newline=""):
            if not quoted and line.startswith("# "):
                comments.append(line[2:].rstrip("\r\n"))
            else:
                quoted ^= line.count('"') % 2 == 1
                yield line

    records = [r for r in csv.reader(data_lines()) if r]
    if not records:
        raise ValueError(f"{path}: empty CSV")
    table = CsvTable(header=records[0], footer_comments=comments)
    for row in records[1:]:
        table.add_row(row)
    return table


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
    xs = [float(v) for v in table.columns[table.header.index(x_col)]]
    series = {name: [float(v) for v in table.columns[table.header.index(name)]]
              for name in y_cols}

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
