"""The README's command examples print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from qhfib.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def examples():
    """(argv, expected stdout lines) for each `$ qhfib ...` line in a code
    block; the lines up to the next blank line or fence are its output."""
    out = []
    for block in re.findall(r"^```\n(.*?)^```", README, re.M | re.S):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ qhfib "):
                out.append((shlex.split(lines[0][len("$ qhfib "):]), lines[1:]))
    return out


EXAMPLES = examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, want", EXAMPLES, ids=[" ".join(a[:2]) for a, _ in EXAMPLES])
def test_a_readme_example_prints_what_it_shows(capsys, monkeypatch, argv, want):
    monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    if want and want[-1] == "...":
        want = want[:-1]
        got = got[:len(want)]
    assert got == want
