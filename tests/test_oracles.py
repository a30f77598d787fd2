"""The check statuses the benchmark expects of each builtin
(`verify_mismatch` in bench/oracles.py) hold in tier-1 too, so a change
that flips a builtin's status fails here, not only in a benchmark run.
The oracle file is read and executed, never imported, so nothing is
written next to it."""

import types
from pathlib import Path

import pytest

from qhfib import catalog, run_suite
from tests.conftest import CUTOFF

ORACLES_FILE = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
oracles = types.ModuleType("oracles")
exec(compile(ORACLES_FILE.read_text(), str(ORACLES_FILE), "exec"), oracles.__dict__)


def test_the_oracle_names_only_builtins():
    assert set(oracles.BUILTINS) <= set(catalog.BUILTIN_FIBRATIONS)


@pytest.mark.parametrize("name", oracles.BUILTINS)
def test_a_builtin_verifies_with_the_statuses_the_benchmark_expects(name):
    assert oracles.verify_mismatch(name, run_suite(catalog.build(name), "all", CUTOFF)) is None
