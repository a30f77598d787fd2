"""Byte stability: each builtin's `verify --suite all --cutoff 6 --json`
output hashes to the SHA-256 stored in bench/goldens.json, the file the
benchmark checks every run against. This test only reads that file."""

import hashlib
import json
from pathlib import Path

import pytest

from qhfib.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_verify_json_matches_its_golden(capsys, name):
    code = main(["verify", "--builtin", name, "--suite", "all", "--cutoff", "6", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[name]
