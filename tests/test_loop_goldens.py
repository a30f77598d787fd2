"""Byte stability of the loop commands: for each builtin at cutoffs 2, 6
and 24, `rho`, `compose --mirror`, and `psi` (plain and `--normalized`)
on every fiber label hash to the SHA-256 stored in tests/loop_goldens.json.
A digest covers the exit code, stdout and stderr of one in-process run.

Rewrite the file from the current code with
    PYTHONPATH=src python -m tests.test_loop_goldens
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from qhfib import catalog
from qhfib.cli import main

GOLDENS_PATH = Path(__file__).resolve().parent / "loop_goldens.json"
CUTOFFS = ("2", "6", "24")


def loop_commands():
    """Every golden command line, in a fixed order."""
    cmds = []
    for name in catalog.BUILTIN_FIBRATIONS:
        labels = catalog.build(name).fiber.labels
        for c in CUTOFFS:
            src = ["--builtin", name, "--cutoff", c]
            cmds.append(["rho", *src])
            cmds.append(["compose", "--mirror", *src])
            for extra in ([], ["--normalized"]):
                cmds.extend(["psi", *src, *extra, "--", lbl] for lbl in labels)
    return cmds


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_loop_commands_match_their_goldens():
    goldens = json.loads(GOLDENS_PATH.read_text())
    cmds = loop_commands()
    assert sorted(goldens) == sorted(" ".join(argv) for argv in cmds)
    changed = [" ".join(argv) for argv in cmds if digest(argv) != goldens[" ".join(argv)]]
    assert not changed


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(
        {" ".join(argv): digest(argv) for argv in loop_commands()}, indent=1) + "\n")
