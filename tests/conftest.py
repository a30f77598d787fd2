import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from qhfib import catalog, format_rational
from qhfib.quantum import ARITIES

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CUTOFF = Fraction(6)

# every shipped fibration, in catalog order
BUILTINS = tuple(catalog.BUILTIN_FIBRATIONS)

# a step line of a check record: "name: pass|fail" with an optional detail
STEP_LINE = re.compile(r"^[a-z-]+: (pass|fail)( \(|$)")


def offending_lines(fib):
    """Every stored fiber and vertical invariant, in table order: the lines
    a failed ring-splitting hypothesis reports."""
    return [
        f"{label} {arity} ({','.join(table.model.labels[i] for i in idx)}; {cls!r}) "
        f"= {format_rational(val)}"
        for label, table in (("fiber", fib.fiber_gw), ("vertical", fib.vertical_gw))
        for arity in ARITIES
        for (idx, cls), val in table._store(arity).items()
    ]


@pytest.fixture(scope="session")
def ruled():
    return catalog.build("ruled")


@pytest.fixture(scope="session")
def rotation():
    return catalog.build("sphere-rotation")


@pytest.fixture(scope="session")
def sphere_product():
    return catalog.build("sphere-product")


@pytest.fixture(scope="session")
def trivial_product():
    return catalog.build("quantum-trivial-product")
