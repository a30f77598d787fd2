"""Every value kept through the one memo, `qhfib._memo.kept`. Read warm,
after a verify has used the model, each kept value equals what a fresh
model builds; a build that raises raises the same text again and keeps
nothing. The guard at the end finds every kept function by introspection,
so a new one cannot skip this check."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import qhfib
from qhfib import (
    FibrationModel, GWTable, ManifoldModel, QHClass, QuantumRing, catalog, mirror, run_suite)
from qhfib.fibration import PsiOperator
from qhfib.fixtures import from_dict, to_dict
from qhfib.novikov import H2Class
from qhfib.quantum import ARITIES
from tests.conftest import BUILTINS, CUTOFF
from tests.test_derived import MUTATED

CUTOFFS = (Fraction(2), Fraction(6), Fraction(24))


def basis_pairs(m):
    return [(i, k) for i in range(len(m.basis)) for k in range(len(m.basis))]


# every kept function, leaves first, by qualified name: the type of its owner
# and the argument tuples to read it at, given the owner and the cutoff
CALLS = {
    "ManifoldModel.dual_basis": (ManifoldModel, lambda m, c: [()]),
    "ManifoldModel._pairing_columns": (ManifoldModel, lambda m, c: [()]),
    "ManifoldModel._scattered_triple": (ManifoldModel, lambda m, c: [()]),
    "ManifoldModel._cap_pair": (ManifoldModel, lambda m, c: basis_pairs(m)),
    "GWTable.by_class": (GWTable, lambda t, c: [(a,) for a in ARITIES]),
    "GWTable.known_key_classes": (GWTable, lambda t, c: [(a,) for a in ARITIES]),
    "GWTable._scattered": (
        GWTable, lambda t, c: [(cls,) for cls in t.known_key_classes("three_point")]),
    "GWTable._pair": (GWTable, lambda t, c: [(cls, *ik) for cls in t.known_key_classes(
        "three_point") for ik in basis_pairs(t.model)]),
    "QuantumRing._splittings": (QuantumRing, lambda r, c: [()]),
    "QuantumRing.basis_product": (
        QuantumRing, lambda r, c: [(i, j, c) for i in range(len(r.model.basis))
                                   for j in range(len(r.model.basis))]),
    "FibrationModel._loop": (
        FibrationModel, lambda f, c: [(a,) for a in ("two_point", "three_point")
                                      if f.section_gw.window(a) is not None]),
    "FibrationModel._seidel": (FibrationModel, lambda f, c: [(c,)]),
    "FibrationModel.fiber_restriction_matrix": (FibrationModel, lambda f, c: [()]),
    "FibrationModel._iota_preimages": (FibrationModel, lambda f, c: [()]),
    "mirror": (FibrationModel, lambda f, c: [(c,)]),
    "_mirror_composition": (FibrationModel, lambda f, c: [(c,)]),
}

# the values a kept function hands out without keeping them
NOT_KEPT = {"_mirror_composition": lambda rep: rep["status"] == "fail"}

PARTS = ("fiber", "total", "fiber_gw", "vertical_gw", "section_gw", "fiber_ring", "vertical_ring")


def kept_functions():
    """{qualified name: function} of every function in qhfib wrapped by the memo."""
    found = {}
    for info in pkgutil.iter_modules(qhfib.__path__, "qhfib."):
        mod = importlib.import_module(info.name)
        for obj in list(vars(mod).values()):
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                if inspect.isfunction(fn) and hasattr(fn, "kept") and fn.__module__ == mod.__name__:
                    found[fn.__qualname__] = fn
    return found


KEPT = kept_functions()


def owners(fib, cutoff, phase):
    """{path: object} of what keeps values: in phase 0 the fibration and
    the objects it holds, in phase 1 those of its mirror at the cutoff that
    the fibration does not share (none when the mirror cannot be built)."""
    mine = {"": fib, **{p: getattr(fib, p) for p in PARTS}}
    if phase == 0:
        return mine
    try:
        rev = mirror(fib, cutoff)
    except qhfib.QhfibError:
        return {}
    ids = {id(x) for x in mine.values()}
    return {f"mirror.{p}": x for p, x in {"": rev, **{p: getattr(rev, p) for p in PARTS}}.items()
            if id(x) not in ids}


def reads(fib, cutoff, phase):
    """(path, owner, kept function, args) for every kept value, leaves first."""
    for name, (kind, args_of) in CALLS.items():
        for path, owner in owners(fib, cutoff, phase).items():
            if isinstance(owner, kind):
                for args in args_of(owner, cutoff):
                    yield path, owner, KEPT[name], args


def plain(x):
    """A value as nested lists of numbers and strings, so that the values of
    two models built from the same data compare equal."""
    if isinstance(x, H2Class):
        return ["class", list(x.coords)]
    if isinstance(x, QHClass):
        return ["qh", x.model.name, plain(x.terms)]
    if isinstance(x, PsiOperator):
        return ["psi", plain(x.images), x.cutoff]
    if isinstance(x, FibrationModel):
        return ["fibration", to_dict(x)]
    if isinstance(x, dict):
        return [[plain(k), plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


def attempt(fn, owner, args):
    try:
        return "value", fn(owner, *args)
    except Exception as exc:  # noqa: BLE001  (the raise is the value compared)
        return "raise", f"{type(exc).__name__}: {exc}"


def held(owner, fn, args):
    return (fn.__qualname__, args) in owner._kept


def moved(args, owner):
    """args with each class re-keyed onto the lattice of owner's model."""
    return tuple(owner.model.h2.cls(a.coords) if isinstance(a, H2Class) else a for a in args)


def assert_warm_equals_fresh(make, cutoff):
    """Verify one model, then read every kept value from it twice, and once
    from a fresh model that has not read it yet (a constructor may have)."""
    warm = make()
    try:
        run_suite(warm, "all", cutoff)
    except qhfib.QhfibError:
        pass
    for phase in (0, 1):
        fresh = owners(make(), cutoff, phase)
        for path, owner, fn, args in reads(warm, cutoff, phase):
            site = f"{path or 'fibration'}: {fn.__qualname__}{args}"
            kind, first = attempt(fn, owner, args)
            again = attempt(fn, owner, args)
            if path not in fresh or held(fresh[path], fn, moved(args, fresh[path])):
                fresh = owners(make(), cutoff, phase)
            cold = attempt(fn, fresh[path], moved(args, fresh[path]))
            if kind == "raise":
                assert not held(owner, fn, args), site
                assert again == cold == (kind, first), site
                continue
            unkept = NOT_KEPT.get(fn.__qualname__, lambda value: False)(first)
            assert held(owner, fn, args) is not unkept, site
            assert cold[0] == again[0] == "value", site
            assert plain(first) == plain(cold[1]) == plain(again[1]), site


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("name", BUILTINS)
def test_every_kept_value_of_a_builtin_is_what_a_fresh_model_builds(name, cutoff):
    assert_warm_equals_fresh(lambda: catalog.build(name), cutoff)


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("site", MUTATED)
def test_every_kept_value_of_a_mutated_copy_is_what_a_fresh_model_builds(site, cutoff):
    assert_warm_equals_fresh(lambda: from_dict(MUTATED[site]), cutoff)


def test_a_cutoff_is_kept_under_its_value(monkeypatch):
    solves, real = [], QuantumRing.inverse_or_none
    monkeypatch.setattr(QuantumRing, "inverse_or_none",
                        lambda self, q, cutoff: solves.append(cutoff) or real(self, q, cutoff))
    fib = catalog.build("ruled")
    for cutoff in (6, Fraction(6), "6"):
        fib.rho(cutoff)
        fib.rho_inverse(cutoff)
    assert solves == [Fraction(6)]
    assert mirror(fib, 6) is mirror(fib, "6") is mirror(fib, Fraction(12, 2))


def test_every_kept_function_is_read_warm_and_fresh():
    """The table above names exactly the functions the memo wraps, and on
    the builtins each of them keeps a value."""
    assert set(KEPT) == set(CALLS)
    reached = set()
    for name in BUILTINS:
        fib = catalog.build(name)
        for phase in (0, 1):
            for _, owner, fn, args in reads(fib, CUTOFF, phase):
                if attempt(fn, owner, args)[0] == "value":
                    reached.add(fn.__qualname__)
    assert reached == set(CALLS)
