"""One fibration on another basis of its total space. The mirror writes its
two-point counts through the kept reduction of iota, so it no longer needs
iota to send each fiber basis class to a total basis class: on the
builtins its table is the one the basis-class synthesis wrote, and a total
basis class negated or scaled leaves every verify status as it was."""

import json
from fractions import Fraction

import pytest

from qhfib import QhfibError, catalog, mirror, run_suite
from qhfib._linalg import identity, reduction
from qhfib.fixtures import from_dict, to_dict
from qhfib.manifold import ManifoldModel
from qhfib.novikov import H2Lattice
from tests.conftest import BUILTINS, CUTOFF
from tests.test_linalg import ref_reduction, typed

CUTOFFS = (2, 6, 24)
TABLES = ("fiber_gw", "vertical_gw", "section_gw")
ARITIES = ("two_point", "three_point", "four_point_chi")


def basis_class_mirror(fib, cutoff):
    """The mirror as the synthesis before the reduction built it: each
    iota(e_i) must be one total basis class with coefficient 1, and each
    count (Qinv * e_i)_B . e_j is written at that pair of classes."""
    t = fib.total
    lat = t.h2
    fund = fib.iota[fib.fiber.fundamental_index]
    fiber_meet = [t.meet_class(fund, lat.cls(e)) for e in identity(len(lat.generators))]
    u0, c0 = fib.sigma_ref.omega, fib.sigma_ref.c1
    new_lat = H2Lattice(lat.generators,
                        tuple(w - 2 * x * u0 for w, x in zip(lat.omega, fiber_meet)),
                        tuple(c - 2 * x * c0 for c, x in zip(lat.c1, fiber_meet)),
                        lat.spherical, lat.embed)
    new_total = ManifoldModel(t.name + "~", t.n, t.basis, [row[:] for row in t.pairing],
                              dict(t.triple), new_lat, t.triple_complete)
    qinv = fib.fiber_ring.inverse(fib.q_class(cutoff), cutoff)
    f = fib.fiber
    pos = []
    for row in fib.iota:
        hits = [p for p, xp in enumerate(row) if xp]
        pos.append(hits[0] if len(hits) == 1 and row[hits[0]] == 1 else None)
    two = {}
    for i in range(len(f.basis)):
        img = fib.fiber_ring.product(qinv, f.qh_basis(f.labels[i]), cutoff)
        for e, vec in img.terms.items():
            off_new = new_lat.cls(fib.iota_h2_class(-e).coords)
            cov = f.covector(vec)
            for j in range(len(f.basis)):
                val = cov.get(j, 0)
                if val == 0:
                    continue
                assert pos[i] is not None and pos[j] is not None
                key = ((pos[i], pos[j]), off_new)
                assert two.get(key, val) == val
                two[key] = val
    return fib.replace(name=fib.name + "~", total_data=new_total,
                       section={"two_point": two, "complete_below": {"two_point": cutoff}},
                       product_structure=False)


def single_count_edits():
    """(site, fixture dict) for the builtins and each stored count raised
    by one, negated or deleted."""
    for name in BUILTINS:
        clean = to_dict(catalog.build(name))
        yield name, clean
        for tk in TABLES:
            for part in ARITIES:
                for pos in range(len(clean[tk].get(part) or ())):
                    for edit in ("+1", "negated", "deleted"):
                        d = json.loads(json.dumps(clean))
                        entries = d[tk][part]
                        if edit == "deleted":
                            del entries[pos]
                        else:
                            n = Fraction(entries[pos][2])
                            entries[pos][2] = str(n + 1 if edit == "+1" else -n)
                        yield f"{name} {tk}.{part}[{pos}] {edit}", d


def two_point_entries(build, fib, cutoff):
    """The mirror's two-point entries in insertion order, as (slots, class
    coordinates, count), or the type and text of what the build raises."""
    try:
        table = build(fib, cutoff).section_gw.two_point
    except QhfibError as exc:
        return type(exc).__name__, str(exc)
    return [(ck, cls.coords, n) for (ck, cls), n in table.items()]


def test_the_mirror_table_is_the_basis_class_synthesis():
    loaded = 0
    for site, d in single_count_edits():
        try:
            fib = from_dict(d)
        except (QhfibError, ValueError):
            continue
        loaded += 1
        for cutoff in CUTOFFS:
            want = two_point_entries(basis_class_mirror, fib, cutoff)
            assert two_point_entries(mirror, fib, cutoff) == want, (site, cutoff)
    assert loaded == len(BUILTINS) + 3 * 57  # every edit of the 57 stored counts loads


def rebased(d, p, c):
    """The fixture d with total basis class p replaced by c times itself:
    the pairing's row and column p and each triple or total-table count
    take a factor c per slot that holds p, and the coordinates on p of
    iota, the splitting and, for a degree-2 class, the lattice embedding
    are divided by c."""
    d = json.loads(json.dumps(d))
    t = d["total"]
    label, degree = t["basis"][p]

    def times(x, k):
        return str(Fraction(x) * Fraction(c) ** k)

    for r, row in enumerate(t["pairing"]):
        t["pairing"][r] = [times(x, (r == p) + (s == p)) for s, x in enumerate(row)]
    for entry in t["triple"]:
        entry[3] = times(entry[3], entry[:3].count(label))
    for matrix in (d["iota"], d["splitting"]):
        for row in matrix:
            row[p] = times(row[p], -1)
    if degree == 2:
        col = [i for i, (_, deg) in enumerate(t["basis"]) if deg == 2].index(p)
        for row in t["h2"]["embed"]:
            row[col] = times(row[col], -1)
    for tk in ("vertical_gw", "section_gw"):
        for part in ARITIES:
            for entry in d[tk].get(part) or ():
                entry[2] = times(entry[2], list(entry[0]).count(label))
    return d


def presentations():
    """(builtin, total class, factor): each class below the top degree
    negated, and the ruled total space's fiber class scaled by 2."""
    for name in BUILTINS:
        basis = catalog.build(name).total.basis
        top = max(deg for _, deg in basis)
        yield from ((name, label, -1) for label, deg in basis if deg < top)
    yield "ruled", "M", 2


PRESENTATIONS = list(presentations())


def test_there_are_27_negated_presentations():
    assert sum(c == -1 for _, _, c in PRESENTATIONS) == 27


@pytest.mark.parametrize("name,label,factor", PRESENTATIONS)
def test_an_equivalent_presentation_verifies_as_the_builtin_does(name, label, factor):
    """Every status is the builtin's, but on the product bundles, where
    product-pattern skips: their layout is no longer the standard one. The
    mirror's loop is the builtin mirror's."""
    fib = catalog.build(name)
    p = fib.total.labels.index(label)
    other = from_dict(rebased(to_dict(fib), p, factor))
    want = {k: v["status"] for k, v in run_suite(fib, "all", CUTOFF).checks.items()}
    if fib.product_structure:
        assert want["product-pattern"] == "pass"
        want["product-pattern"] = "skip"
    got = {k: v["status"] for k, v in run_suite(other, "all", CUTOFF).checks.items()}
    assert got == want
    assert [repr(img) for img in mirror(other, CUTOFF)._loop("two_point").images] == [
        repr(img) for img in mirror(fib, CUTOFF)._loop("two_point").images]


@pytest.mark.parametrize("name,label,factor", [(name, None, 1) for name in BUILTINS]
                         + PRESENTATIONS)
def test_iota_reduces_as_the_dense_detour_did(name, label, factor):
    fib = catalog.build(name)
    if label is not None:
        fib = from_dict(rebased(to_dict(fib), fib.total.labels.index(label), factor))
    iota_t = [list(col) for col in zip(*fib.iota)]
    assert typed(fib._iota_reduction()) == typed(reduction(iota_t)) == typed(
        ref_reduction(iota_t))
