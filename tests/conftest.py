import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from qhfib import catalog, fixtures, format_rational
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


def trivial_product_with_a_spherical_class(**entries):
    """The quantum-trivial-product fixture as a dict, with its generator E1
    made spherical of Chern number -1 in the fiber and total lattices, so
    that section classes can differ by the fiber class E1, plus the section
    entries {arity: [labels, ...]}, each of count 1 at offset E1."""
    d = fixtures.to_dict(catalog.build("quantum-trivial-product"))
    for space in ("fiber", "total"):
        d[space]["h2"]["spherical"][0] = True
        d[space]["h2"]["c1"][0] = "-1"
    for arity, keys in entries.items():
        d["section_gw"][arity] += [[list(key), ["1", "0", "0"], "1"] for key in keys]
    return d
