"""Write src/insdel/_zyablov_knots.py from the tau -> rate table builder.

Run from the repository root after any change to the table's inputs
(``bounds._segment_min``, the fixed-split formulas, ``_TABLE_KNOTS``,
``_TABLE_SEGMENT_GRID`` or ``_table_hi``):

    PYTHONPATH=src python tests/regen_zyablov_knots.py

The file is named so that pytest does not collect it.
``tests/test_bounds.py`` calls :func:`render_knots_module` and checks that
the committed module equals its output byte for byte.
"""

from pathlib import Path

from insdel import bounds

KNOTS_FILE = Path(__file__).resolve().parent.parent / "src" / "insdel" / "_zyablov_knots.py"
PER_LINE = 3

HEADER = '''\
"""Committed knot values of bounds._tau_rate_table for q = 2, 3 and 4.

Generated by tests/regen_zyablov_knots.py from
bounds._build_tau_rate_table; do not edit by hand.  VALS[q][j] is the
raw rate of the worst-case split at tau = hi * j / _TABLE_KNOTS, written
with repr so that each float reads back exactly.
"""
'''


def render_knots_module() -> str:
    """The knots module's text: one VALS tuple per committed alphabet."""
    lines = [HEADER, "VALS = {"]
    for q in bounds._KNOT_ALPHABETS:
        _, vals = bounds._build_tau_rate_table(q)
        lines.append(f"    {q}: (")
        for i in range(0, len(vals), PER_LINE):
            lines.append("        " + " ".join(f"{v!r}," for v in vals[i : i + PER_LINE]))
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    KNOTS_FILE.write_text(render_knots_module(), encoding="utf-8")
    print(f"wrote {KNOTS_FILE}")


if __name__ == "__main__":
    main()
