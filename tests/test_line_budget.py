"""The size of the package: the lines of src/qhfib/*.py, counted as
`wc -l` counts them, stay within the budget, so a change that grows the
package past it fails here."""

from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "qhfib"
BUDGET = 4300


def test_the_package_stays_within_its_line_budget():
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(SOURCE.glob("*.py"))}
    assert "quantum.py" in lines
    assert sum(lines.values()) <= BUDGET, lines
