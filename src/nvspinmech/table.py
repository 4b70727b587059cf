"""Tabular results: CSV with a commented metadata header and a units row.

Layout:

    # key: value            (metadata block, one line per key)
    col_a,col_b             (column names)
    unit_a,unit_b           (units row)
    1.25,0.5                (data rows)

Floats are written with shortest round-trip representation, so
parse(emit(table)) reproduces the table exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ResultTable:
    columns: list
    units: list
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("every column needs a units entry")
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("rows must be rectangular")

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(list(values))

    def emit(self) -> str:
        lines = [f"# {k}: {v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        lines.append(",".join(self.units))
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ResultTable":
        meta = {}
        body = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif line.strip():
                body.append(line)
        if len(body) < 2:
            raise ValueError("table needs a column row and a units row")
        columns = body[0].split(",")
        units = body[1].split(",")
        rows = [[_parse_cell(c) for c in line.split(",")] for line in body[2:]]
        return cls(columns=columns, units=units, rows=rows, meta=meta)


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
