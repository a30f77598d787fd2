import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from qhfib import GWTable, catalog, fixtures, format_rational, validator
from qhfib.manifold import koszul_sorted
from qhfib.novikov import _exact
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

# every check's name, in the order the suite "all" runs them
CHECK_NAMES = tuple(validator._BODIES)

# a step line of a check record: "name: pass|fail" with an optional detail
STEP_LINE = re.compile(r"^[a-z-]+: (pass|fail)( \(|$)")


def rerun(fib, cutoff):
    """Every check's record on fib at the cutoff, each body run again
    through the record memo's unwrapped build: on a warm model the bodies
    then show what they re-derive beneath the kept records."""
    return {name: rec for name in CHECK_NAMES
            if (rec := validator._record.kept(fib, name, cutoff)) is not None}


def replaced(table, arity, updates):
    """A copy of the table with some entries {(indices, class): n} replaced,
    a zero deleting one, for tamper tests. Each key is sorted and its
    Koszul sign folded into n, as the constructor does, so `query` reads
    it in any slot order; the dimension rule is not checked, so a tamper
    may store a key it forbids."""
    t = GWTable(table.model, table.kind, complete_below=table.complete_below,
                section_c1=table.section_c1)
    for a in ARITIES:
        setattr(t, a, dict(table._store(a)))
    store = t._store(arity)
    for (idx, cls), v in updates.items():
        ck, sign = koszul_sorted(tuple(idx), table.model.degrees)
        if v:
            store[ck, cls] = sign * _exact(v)
        else:
            store.pop((ck, cls), None)
    return t


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
