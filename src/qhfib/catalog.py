"""Built-in example models.

Each builder returns freshly constructed objects, so callers can mutate
tables (for tamper testing) without affecting later builds. Areas and other
moduli are exact rationals.

The ruled-surface loop: the fiber is a sphere bundle over a torus with a
fiber sphere F of area 2 and a section torus T- of self-intersection -1 and
area kappa. The loop rotates the fibers; its total space carries one
spherical section direction S. The quantum product is generated by
T- * T- = -pt + e^{-F}, and the Seidel element is T- e^{delta F} with
delta = (4+3kappa)/(6+6kappa).

The sphere rotation: a full rotation of the sphere of area `area`,
suspension total space, Seidel element pt e^{A/2} of order two.

Trivial bundles over a sphere of area `base_area` come from
splitting.product_fixture; the quantum-trivial fiber (a point-count-free
torus-like model) gives the cleanest ring-splitting example. The two-torus
fiber (a . b = 1, no rational curves) is the odd-degree example: its
product with a sphere exercises every Koszul sign.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import identity
from .fibration import FibrationModel
from .manifold import ManifoldModel
from .novikov import H2Lattice, parse_rational
from .quantum import GWTable
from .splitting import corrected_splitting, product_fixture


def _vec(model, **coords):
    """The homology vector of model with the given coordinates by basis label."""
    return model.vector((model.label_index(lbl), Fraction(x)) for lbl, x in coords.items())


def ruled_surface_fiber():
    h2 = H2Lattice(
        generators=("F",),
        omega=(Fraction(2),),
        c1=(Fraction(2),),
        spherical=(True,),
        embed=((Fraction(1), Fraction(0)),),  # over the degree-2 basis (F, T-)
    )
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, 0],
    ]
    triple = {
        ("1", "1", "pt"): 1,
        ("1", "F", "T-"): 1,
        ("1", "T-", "T-"): -1,
    }
    m = ManifoldModel(
        "ruled-surface", 2,
        [("1", 4), ("F", 2), ("T-", 2), ("pt", 0)],
        pairing, triple, h2,
    )
    a = h2.gen("F")
    gw = GWTable(
        m, "fiber",
        two_point={("T-", "pt", a): 1},
        three_point={("T-", "T-", "pt", a): 1},
        four_point_chi={
            ("1", "T-", "T-", "pt", a): 1,
            ("F", "T-", "T-", "T-", a): 1,
            ("T-", "T-", "T-", "T-", a): -2,
        },
        complete_below=100,
    )
    return m, gw


def ruled_surface_loop(kappa=1) -> FibrationModel:
    kappa = parse_rational(kappa)
    if kappa <= 0:
        raise ValueError("the section torus needs positive area")
    fiber, fgw = ruled_surface_fiber()
    eps = Fraction(-1) / (3 * (1 + kappa))
    lat = H2Lattice(
        generators=("F", "T", "S"),
        omega=(Fraction(2), kappa, eps - 1),
        c1=(Fraction(2), Fraction(-1), Fraction(-1)),
        spherical=(True, False, True),
        embed=identity(3),
    )
    #        pt F  T  S  M  Zm Zp P
    pairing = [
        [0, 0, 0, 0, 0, 0, 0, 1],   # pt
        [0, 0, 0, 0, 0, 1, 1, 0],   # F
        [0, 0, 0, 0, 0, -1, 0, 0],  # T
        [0, 0, 0, 0, 1, -1, 0, 0],  # S
        [0, 0, 0, 1, 0, 0, 0, 0],   # M
        [0, 1, -1, -1, 0, 0, 0, 0],  # Zm
        [0, 1, 0, 0, 0, 0, 0, 0],   # Zp
        [1, 0, 0, 0, 0, 0, 0, 0],   # P
    ]
    triple = {
        ("Zm", "Zm", "M"): -1,
        ("Zm", "Zm", "Zm"): 2,
        ("M", "Zp", "Zp"): 1,
        ("Zp", "Zp", "Zp"): 2,
    }
    total = ManifoldModel(
        "ruled-total", 3,
        [("pt", 0), ("F", 2), ("T", 2), ("S", 2),
         ("M", 4), ("Zm", 4), ("Zp", 4), ("P", 6)],
        pairing, triple, lat,
    )
    iota = [_vec(total, M=1), _vec(total, F=1), _vec(total, T=1), _vec(total, pt=1)]  # 1, F, T-, pt
    splitting = [_vec(total, P=1), _vec(total, Zp=1, Zm=-1, M=-1), _vec(total, Zm=1, M=1),
                 _vec(total, S=1)]
    iota_h2 = [(1, 0, 0)]
    fc = lat.gen("F")
    zero = lat.zero()
    vertical = {
        "two_point": {
            ("pt", "Zm", fc): 1,
            ("pt", "Zp", fc): 1,
            ("T", "S", fc): 1,
        },
        "three_point": {
            ("T", "Zm", "S", fc): 1,
            ("T", "Zp", "S", fc): 1,
            ("pt", "Zm", "Zm", fc): 1,
            ("pt", "Zm", "Zp", fc): 1,
            ("pt", "Zp", "Zp", fc): 1,
        },
        "complete_below": {"two_point": 100, "three_point": 100,
                           "four_point_chi": None},
    }
    section = {
        "two_point": {
            ("M", "F", zero): 1,
            ("M", "T", zero): -1,
            ("Zm", "F", zero): -1,
            ("Zm", "T", zero): 1,
            ("T", "pt", fc): 1,
        },
        "complete_below": {"two_point": 100, "three_point": None,
                           "four_point_chi": None},
    }
    return FibrationModel(
        "ruled-loop", fiber, fgw, total, iota, splitting, iota_h2,
        sigma_ref=(0, 0, 1), vertical=vertical, section=section,
    )


def sphere(area=1):
    area = parse_rational(area)
    if area <= 0:
        raise ValueError("sphere area must be positive")
    h2 = H2Lattice(
        generators=("A",),
        omega=(area,),
        c1=(Fraction(2),),
        spherical=(True,),
        embed=((Fraction(1),),),
    )
    m = ManifoldModel(
        "sphere", 1,
        [("1", 2), ("pt", 0)],
        [[0, 1], [1, 0]],
        {("1", "1", "pt"): 1},
        h2,
    )
    a = h2.gen("A")
    gw = GWTable(
        m, "fiber",
        two_point={("pt", "pt", a): 1},
        three_point={("pt", "pt", "pt", a): 1},
        four_point_chi={("1", "pt", "pt", "pt", a): 1},
        complete_below=100,
    )
    return m, gw


def sphere_rotation(area=1, primed=False) -> FibrationModel:
    area = parse_rational(area)
    fiber, fgw = sphere(area)
    lat = H2Lattice(
        generators=("Af", "Sig"),
        omega=(area, -area / 2),
        c1=(Fraction(2), Fraction(-1)),
        spherical=(True, True),
        embed=identity(2),
    )
    #        pt F  S  P
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, 0],
    ]
    total = ManifoldModel(
        "rotation-total", 2,
        [("pt", 0), ("F", 2), ("S", 2), ("P", 4)],
        pairing, {}, lat,
    )
    iota = [_vec(total, F=1), _vec(total, pt=1)]
    splitting = [_vec(total, P=1), _vec(total, S=1)]  # primed: s(pt).s(pt) = -1
    af = lat.gen("Af")
    zero = lat.zero()
    vertical = {
        "two_point": {("pt", "S", af): 1},
        "three_point": {("pt", "S", "S", af): 1},
        "complete_below": {"two_point": 100, "three_point": 100,
                           "four_point_chi": None},
    }
    section = {
        "two_point": {
            ("F", "F", zero): 1,
            ("F", "S", zero): -1,
            ("S", "S", zero): 1,
            ("pt", "pt", af): 1,
        },
        "complete_below": {"two_point": 100, "three_point": None,
                           "four_point_chi": None},
    }
    fib = FibrationModel(
        "sphere-rotation", fiber, fgw, total, iota, splitting, [(1, 0)],
        sigma_ref=(0, 1), vertical=vertical, section=section,
    )
    return fib if primed else corrected_splitting(fib)


def quantum_trivial_fiber():
    h2 = H2Lattice(
        generators=("E1", "E2"),
        omega=(Fraction(1), Fraction(1)),
        c1=(Fraction(0), Fraction(0)),
        spherical=(False, False),
        embed=identity(2),
    )
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    m = ManifoldModel(
        "quantum-trivial", 2,
        [("1", 4), ("e1", 2), ("e2", 2), ("pt", 0)],
        pairing, {}, h2,
    )
    gw = GWTable(m, "fiber", complete_below=100)
    return m, gw


def torus():
    h2 = H2Lattice(
        generators=("T",),
        omega=(Fraction(1),),
        c1=(Fraction(0),),
        spherical=(False,),
        embed=((Fraction(1),),),  # over the degree-2 basis (1,)
    )
    pairing = [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ]
    m = ManifoldModel("torus", 1, [("1", 2), ("a", 1), ("b", 1), ("pt", 0)], pairing, {}, h2)
    return m, GWTable(m, "fiber", complete_below=100)


def sphere_product(fiber_area=1, base_area=5) -> FibrationModel:
    m, gw = sphere(fiber_area)
    return product_fixture(m, gw, parse_rational(base_area))


def quantum_trivial_product(base_area=2) -> FibrationModel:
    m, gw = quantum_trivial_fiber()
    return product_fixture(m, gw, parse_rational(base_area))


def torus_product(base_area=2) -> FibrationModel:
    m, gw = torus()
    return product_fixture(m, gw, parse_rational(base_area))


BUILTIN_FIBRATIONS = {
    "ruled": (ruled_surface_loop, {"kappa": Fraction(1)}),
    "sphere-rotation": (sphere_rotation, {"area": Fraction(1)}),
    "sphere-product": (sphere_product,
                       {"fiber_area": Fraction(1), "base_area": Fraction(5)}),
    "quantum-trivial-product": (quantum_trivial_product,
                                {"base_area": Fraction(2)}),
    "torus-product": (torus_product, {"base_area": Fraction(2)}),
}


def build(name, **params) -> FibrationModel:
    if name not in BUILTIN_FIBRATIONS:
        raise KeyError(
            f"unknown builtin {name!r} (have: {', '.join(sorted(BUILTIN_FIBRATIONS))})"
        )
    fn, defaults = BUILTIN_FIBRATIONS[name]
    bad = set(params) - set(defaults)
    if bad:
        raise KeyError(f"{name} takes {sorted(defaults)}, not {sorted(bad)}")
    args = {**defaults, **{k: parse_rational(v) for k, v in params.items()}}
    return fn(**args)
