"""Golden tables of the README recipes: every cell is pinned.

``tests/golden/`` holds the table body (column row, units row and data,
without the ``#`` block) of the eight orientation recipes (those of the
``orientation_recipes`` benchmark workload), the ``invert`` recipe, and
both MDMR recipes with and without ``mdmr.hysteresis=true``.  Each recipe
is rerun in process and compared
column by column: NaN positions exactly, every other number within 1e-12
of the column's largest finite |value|, and flags and labels exactly.  The
tolerance lets the test pass on a host whose BLAS rounds differently;
byte identity against an earlier version is a diff of the CLI output.
On failure every moved cell is listed.

The fixtures are test data.  Regenerate them (``python
tests/test_golden.py [NAME ...]``, all cases without a name) only in a
change that means to move numbers, and list the moved cells that this test
printed before.  ``python tests/test_golden.py --diff [NAME ...]`` writes
nothing: it prints every cell that differs from its fixture at all
(bitwise, sign of zero included), with |delta| over the column's largest
finite |value|.  That is the moved-cell list of a change that stays within
the bound.  It exits with status 1 when it prints any moved cell (or a
table whose columns or row count differ), and 0 otherwise.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest

from nvspinmech.cli import main
from nvspinmech.table import ResultTable

from test_cli import README_RECIPES

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ["susceptibility", "equilibrium", "rotation", "landscape", "libration",
         "libration_pump", "critical_field_free", "critical_field", "invert",
         "mdmr_23mT", "mdmr_180mT", "hysteresis_23mT", "hysteresis_180mT"]
RTOL = 1e-12


def body(name: str) -> str:
    """The recipe's table as the CLI writes it, without the ``#`` block."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(README_RECIPES[name]) == 0, name
    return "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.startswith("#"))


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(value, ref, scale: float) -> bool:
    if not (_number(value) and _number(ref)):
        return value == ref
    if math.isnan(value) or math.isnan(ref):
        return math.isnan(value) and math.isnan(ref)
    if math.isinf(value) or math.isinf(ref):
        return value == ref
    return abs(value - ref) <= RTOL * scale


def _cells(table: ResultTable, golden: ResultTable):
    """(row, column, value, golden value, the column's largest finite
    |golden value|) of every cell."""
    for j, column in enumerate(golden.columns):
        refs = [row[j] for row in golden.rows]
        scale = max((abs(v) for v in refs if _number(v) and math.isfinite(v)), default=0.0)
        for i, (row, ref) in enumerate(zip(table.rows, refs)):
            yield i, column, row[j], ref, scale


def moved_cells(table: ResultTable, golden: ResultTable) -> list:
    """(row, column, value, golden value) of every cell outside the bound."""
    return [(i, column, value, ref) for i, column, value, ref, scale in _cells(table, golden)
            if not _same(value, ref, scale)]


def diff(name: str) -> int:
    """Print every cell of the recipe that differs from its fixture at all;
    return how many do."""
    golden = ResultTable.parse((GOLDEN / f"{name}.csv").read_text())
    table = ResultTable.parse(body(name))
    if (table.columns, len(table.rows)) != (golden.columns, len(golden.rows)):
        print(f"{name}: columns or row count differ from the fixture")
        return -1
    n = 0
    for i, column, value, ref, scale in _cells(table, golden):
        if repr(value) != repr(ref):  # repr tells -0.0 from 0.0 and NaN from a number
            rel = math.nan
            if _number(value) and _number(ref):
                rel = abs(value - ref) / scale if scale else math.inf
            print(f"{name} row {i} {column}: {value!r} (golden {ref!r}), |delta|/max {rel:.2e}")
            n += 1
    print(f"{name}: {n} cells differ")
    return n


@pytest.mark.parametrize("name", CASES)
def test_recipe_matches_golden_table(name):
    golden = ResultTable.parse((GOLDEN / f"{name}.csv").read_text())
    table = ResultTable.parse(body(name))
    assert (table.columns, table.units) == (golden.columns, golden.units)
    assert len(table.rows) == len(golden.rows)
    moved = moved_cells(table, golden)
    assert not moved, f"{name}: {len(moved)} moved cells\n" + "\n".join(
        f"  row {i} {column}: {value!r} (golden {ref!r})" for i, column, value, ref in moved)


if __name__ == "__main__":
    import sys

    args = sys.argv[1:]
    if args[:1] == ["--diff"]:
        moved = [diff(name) for name in args[1:] or CASES]
        sys.exit(1 if any(moved) else 0)
    else:
        for name in args or CASES:
            (GOLDEN / f"{name}.csv").write_text(body(name))
