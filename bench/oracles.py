"""Expected answers written down by hand, independent of the code under test.

Outputs of the CLI are parsed here with a parser of our own, so a change in
term order or formatting inside qhfib is not mistaken for a wrong answer, and
a wrong answer is not hidden by a shared formatter.
"""

import re
from fractions import Fraction

BUILTINS = ("ruled", "sphere-rotation", "sphere-product", "quantum-trivial-product")

# -- verify-builtins: status of every check of `run_suite(model, "all", 6)` --

_CHECKS = (
    "fibration-structure", "nondegenerate-pairing", "fiber-associativity",
    "fiber-four-point-splitting", "vertical-associativity", "fiber-axioms",
    "fiber-energy-positive-closure", "vertical-axioms", "section-divisor",
    "vertical-products", "vertical-entries", "module-identities",
    "seidel-invertible", "wang-sequence", "ring-splitting", "mirror-composition",
)


def _statuses(product_pattern, ring_splitting):
    out = {name: "pass" for name in _CHECKS}
    out["ring-splitting"] = ring_splitting
    if product_pattern:
        out["product-pattern"] = "pass"
    return out


# The ring-splitting hypothesis only holds when the fiber carries no
# invariants, which among the builtins is the quantum-trivial product.
VERIFY_STATUS = {
    "ruled": _statuses(product_pattern=False, ring_splitting="skip"),
    "sphere-rotation": _statuses(product_pattern=False, ring_splitting="skip"),
    "sphere-product": _statuses(product_pattern=True, ring_splitting="skip"),
    "quantum-trivial-product": _statuses(product_pattern=True, ring_splitting="pass"),
}


def verify_mismatch(name, report):
    """None if the report of builtin `name` is ok with the expected statuses."""
    got = {check: c["status"] for check, c in report.checks.items()}
    if got != VERIFY_STATUS[name]:
        diff = sorted(
            (k, VERIFY_STATUS[name].get(k), got.get(k))
            for k in set(got) | set(VERIFY_STATUS[name])
            if got.get(k) != VERIFY_STATUS[name].get(k)
        )
        return f"{name}: (check, expected, got) {diff}"
    if not report.ok:
        return f"{name}: report is not ok"
    return None


# -- quantum classes as text ---------------------------------------------------
#
# A class is a dict {(label, exponent): coefficient}; an exponent is a
# frozenset of (generator, coordinate) pairs with nonzero coordinates.

_COEFF = re.compile(r"(\d+(?:/\d+)?)\*")
_LIN_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z][A-Za-z0-9_-]*)")


def parse_lin(text):
    coords = {}
    pos = 0
    while pos < len(text):
        m = _LIN_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad exponent {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coords[m.group(3)] = coords.get(m.group(3), 0) + sign * Fraction(m.group(2) or 1)
        pos = m.end()
    return frozenset((g, c) for g, c in coords.items() if c)


def parse_qh(text, labels):
    """Parse `-pt+2*F@e^{-F}`-style text over the given basis labels."""
    text = text.strip()
    out = {}
    if text == "0":
        return out
    by_length = sorted(labels, key=len, reverse=True)
    pos = 0
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        coeff = Fraction(1)
        m = _COEFF.match(text, pos)
        if m:
            coeff, pos = Fraction(m.group(1)), m.end()
        label = next((b for b in by_length if text.startswith(b, pos)), None)
        if label is None:
            raise ValueError(f"no basis label at {text[pos:]!r} in {text!r}")
        pos += len(label)
        exponent = frozenset()
        if text.startswith("@e^{", pos):
            end = text.index("}", pos)
            exponent = parse_lin(text[pos + 4:end])
            pos = end + 1
        key = (label, exponent)
        out[key] = out.get(key, 0) + sign * coeff
    return {k: v for k, v in out.items() if v}


def exp_f(x):
    """The exponent x*F."""
    x = Fraction(x)
    return frozenset([("F", x)]) if x else frozenset()


def shift(q, dx):
    """q * e^{dx*F} for classes whose exponents are multiples of F."""
    out = {}
    for (label, e), c in q.items():
        key = (label, exp_f(dict(e).get("F", 0) + dx))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


# -- the ruled surface fiber and the ruled total space -------------------------
#
# Small quantum products of basis classes, transcribed from the shipped
# `ruled` fixture at cutoff 6 and checked by hand against the laws they must
# obey: the fundamental class is the unit, the products commute, degrees add,
# and T-*T- = -pt + e^{-F} as in the README. Neither table depends on kappa.

FIBER_LABELS = ("1", "F", "T-", "pt")
FIBER_PRODUCT = {
    ("1", "1"): "1", ("1", "F"): "F", ("1", "T-"): "T-", ("1", "pt"): "pt",
    ("F", "F"): "0", ("F", "T-"): "pt", ("F", "pt"): "0",
    ("T-", "T-"): "-pt+1@e^{-F}", ("T-", "pt"): "F@e^{-F}",
    ("pt", "pt"): "0",
}

TOTAL_LABELS = ("pt", "F", "T", "S", "M", "Zm", "Zp", "P")
VERTICAL_PRODUCT = {
    ("P", x): x for x in TOTAL_LABELS
}
VERTICAL_PRODUCT.update({
    ("pt", "pt"): "0", ("pt", "F"): "0", ("pt", "T"): "0", ("pt", "S"): "0",
    ("pt", "M"): "0", ("pt", "Zm"): "F@e^{-F}", ("pt", "Zp"): "F@e^{-F}",
    ("F", "F"): "0", ("F", "T"): "0", ("F", "S"): "0", ("F", "M"): "0",
    ("F", "Zm"): "pt", ("F", "Zp"): "pt",
    ("T", "T"): "0", ("T", "S"): "F@e^{-F}", ("T", "M"): "0",
    ("T", "Zm"): "-pt+M@e^{-F}", ("T", "Zp"): "M@e^{-F}",
    ("S", "S"): "0", ("S", "M"): "pt",
    ("S", "Zm"): "-pt-M@e^{-F}-Zm@e^{-F}+Zp@e^{-F}",
    ("S", "Zp"): "-M@e^{-F}-Zm@e^{-F}+Zp@e^{-F}",
    ("M", "M"): "0", ("M", "Zm"): "T", ("M", "Zp"): "F+T",
    ("Zm", "Zm"): "-T-S+P@e^{-F}", ("Zm", "Zp"): "P@e^{-F}",
    ("Zp", "Zp"): "2*F+T+S+P@e^{-F}",
})


def _table_product(table, labels, a, b):
    text = table.get((a, b), table.get((b, a)))
    return parse_qh(text, labels)


def fiber_product(a, b):
    return _table_product(FIBER_PRODUCT, FIBER_LABELS, a, b)


def vertical_product(a, b):
    return _table_product(VERTICAL_PRODUCT, TOTAL_LABELS, a, b)


# -- closed forms for the ruled loop ---------------------------------------------


def delta(kappa):
    """Normalized section offset of ruled(kappa): rho = T- e^{delta F}."""
    return (4 + 3 * kappa) / (6 + 6 * kappa)


def rho(kappa):
    return {("T-", exp_f(delta(kappa))): Fraction(1)}


def rho_inverse(kappa):
    e = exp_f(1 - delta(kappa))
    return {("F", e): Fraction(1), ("T-", e): Fraction(1)}


UNIT = {("1", frozenset()): Fraction(1)}


def invariants(kappa):
    """Expected `invariants` output lines of ruled(kappa)."""
    return [
        ("Ic", "1 (mod 2)"),
        ("Iu", {"T": Fraction(-4) / (3 * (1 + kappa))}),
        ("I_0", Fraction(0)), ("I_1", Fraction(8, 3)),
        ("I_2", Fraction(4)), ("I_3", Fraction(4)),
    ]


# quantum-trivial-product: base area 2 is attained by a stored section count.
NONSQUEEZE_LINES = ("table complete through area 100", "capacity bound = 2 (")
