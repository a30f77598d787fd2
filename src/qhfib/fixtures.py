"""Fixture files and class expressions.

Fixtures are JSON documents. All scalars are exact rationals written as
strings ("3", "-1/2"); floats are rejected on load. Two kinds exist:

  {"kind": "ring", "model": ..., "gw": ...}            a manifold with its table
  {"kind": "fibration", ...}                            full loop data

Class expressions name elements of quantum homology on the command line:

  "T-"                      a basis class
  "-pt+1@e^{-F}"            sum with a Novikov exponent
  "3/2*Zm@e^{2*F-1/2*S}"    rational coefficients inside and out

Basis labels are matched greedily (longest label first), so labels may
themselves contain '+' or '-'.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import QhfibError, UnknownBasisLabel
from .fibration import FibrationModel
from .manifold import ManifoldModel, QHClass
from .novikov import H2Class, H2Lattice, _exact, format_rational, parse_rational
from .quantum import ARITIES, GWTable

_COEFF = re.compile(r"(\d+(?:/\d+)?)\*")


def _longest_match(names, s, i):
    return max((name for name in names if s.startswith(name, i)), key=len, default=None)


def _scan_terms(s, names, what):
    """Yield (coefficient, name, brace_text) triples from a term sum."""
    s = s.replace(" ", "")
    i, out = 0, []
    if not s:
        raise QhfibError(f"empty {what} expression")
    while i < len(s):
        sign = Fraction(1)
        while i < len(s) and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        m = _COEFF.match(s, i)
        coeff = sign
        if m:
            coeff = sign * parse_rational(m.group(1))
            i = m.end()
        name = _longest_match(names, s, i)
        if name is None:
            raise UnknownBasisLabel(
                f"no {what} name at {s[i:i + 16]!r} (know: {', '.join(names)})"
            )
        i += len(name)
        brace = ""
        if s.startswith("@e^{", i):
            end = s.find("}", i)
            if end < 0:
                raise QhfibError(f"unclosed exponent brace in {s!r}")
            brace = s[i + 4:end]
            i = end + 1
        out.append((coeff, name, brace))
        if i < len(s) and s[i] not in "+-":
            raise QhfibError(f"expected + or - at {s[i:i + 16]!r}")
    return out


def parse_lin(lattice: H2Lattice, text) -> H2Class:
    """A linear expression in lattice generators, e.g. '2*F-1/2*S' or '0'."""
    s = str(text).replace(" ", "")
    if s in ("", "0"):
        return lattice.zero()
    coords = [Fraction(0)] * len(lattice.generators)
    for coeff, name, brace in _scan_terms(s, lattice.generators, "lattice generator"):
        if brace:
            raise QhfibError("lattice expressions carry no exponents")
        coords[lattice.generators.index(name)] += coeff
    return lattice.cls(coords)


def _signed_sum(terms) -> str:
    """The sum of the (coefficient, name) terms with a nonzero coefficient,
    as '2*a-b+1/2*c': a coefficient of magnitude 1 is left out; 0 when none."""
    parts = []
    for x, name in terms:
        if x:
            lead = "-" if x < 0 else ("+" if parts else "")
            parts.append(lead + (f"{format_rational(abs(x))}*" if abs(x) != 1 else "") + name)
    return "".join(parts) if parts else "0"


def format_lin(cls: H2Class) -> str:
    return _signed_sum(zip(cls.coords, cls.lattice.generators))


def parse_qh(model: ManifoldModel, text) -> QHClass:
    if str(text).replace(" ", "") == "0":
        return model.qh()
    terms: dict[H2Class, list] = {}
    for coeff, label, brace in _scan_terms(str(text), model.labels, "basis label"):
        e = parse_lin(model.h2, brace or "0")
        vec = terms.setdefault(e, model.zero_vector())
        vec[model.label_index(label)] += coeff
    return QHClass(model, terms)


def format_qh(q: QHClass) -> str:
    terms = []
    for e in sorted(q.terms, key=lambda e: (-e.omega, e.c1, e.coords)):
        suffix = "" if e.is_zero() else f"@e^{{{format_lin(e)}}}"
        terms += [(x, lbl + suffix) for x, lbl in zip(q.terms[e], q.model.labels)]
    return _signed_sum(terms)


# -- JSON ---------------------------------------------------------------------


def _lattice_to_dict(lat: H2Lattice) -> dict:
    return {
        "generators": list(lat.generators),
        "omega": [format_rational(x) for x in lat.omega],
        "c1": [format_rational(x) for x in lat.c1],
        "spherical": list(lat.spherical),
        "embed": None if lat.embed is None
        else [[format_rational(x) for x in row] for row in lat.embed],
    }


def _required(d, path, key):
    """(value, JSON path) of a required key of the JSON object d at path."""
    if not isinstance(d, dict):
        raise QhfibError(f"{path}: expected a JSON object")
    at = f"{path}.{key}" if path else key
    if key not in d:
        raise QhfibError(f"fixture is missing the required key {at}")
    return d[key], at


def _fail(path, want, got):
    raise QhfibError(f"{path}: expected {want}, got {json.dumps(got, default=str)}")


def _scalar(x, path, kinds, want):
    """x when it is one of the JSON scalar kinds (never a boolean)."""
    if isinstance(x, bool) or not isinstance(x, kinds):
        _fail(path, want, x)
    return x


def _flag(x, path) -> bool:
    if not isinstance(x, bool):
        _fail(path, "a JSON boolean", x)
    return x


def _number(x):
    """A JSON scalar as an exact rational (`_exact`), read with no JSON
    path: a JSON integer as it is, and a string of decimal digits (any
    script's, as parse_rational reads them) with an optional minus sign by
    int; any other string through parse_rational. Anything else raises, as
    a malformed string does, and the caller names the JSON path."""
    if type(x) is int:
        return x
    if type(x) is not str:
        raise QhfibError("not a JSON rational")
    return int(x) if (x[1:] if x[:1] == "-" else x).isdecimal() else _exact(parse_rational(x))


def _rational(x, path):
    try:
        return _number(x)
    except QhfibError as exc:  # a wrong JSON type, else the string parse_rational refused
        _scalar(x, path, (str, int), 'a rational such as "1/3"')
        raise QhfibError(f"{path}: {exc}") from None


def _list(x, path, size=None) -> list:
    if not isinstance(x, list) or size not in (None, len(x)):
        _fail(path, "a JSON list" + ("" if size is None else f" of {size} items"), x)
    return x


# Each reads its elements without building their JSON paths; when one
# fails, it reads again from the start with paths, so the first bad element
# raises the text it always did.

def _rationals(x, path) -> list:
    x = _list(x, path)
    try:
        return [_number(v) for v in x]
    except QhfibError:
        return [_rational(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _matrix(x, path) -> list[list]:
    x = _list(x, path)
    try:
        return [[_number(v) for v in _list(row, path)] for row in x]
    except QhfibError:
        return [_rationals(row, f"{path}[{i}]") for i, row in enumerate(x)]


def _labels(x, path, size=None) -> tuple[str, ...]:
    x = _list(x, path, size)
    if all(isinstance(v, str) for v in x):
        return tuple(x)
    return tuple(_scalar(v, f"{path}[{i}]", str, "a label") for i, v in enumerate(x))


def _lattice_from_dict(d: dict, path: str) -> H2Lattice:
    return H2Lattice(
        generators=_labels(*_required(d, path, "generators")),
        omega=tuple(_rationals(*_required(d, path, "omega"))),
        c1=tuple(_rationals(*_required(d, path, "c1"))),
        spherical=tuple(_flag(x, f"{path}.spherical[{i}]")
                        for i, x in enumerate(_list(*_required(d, path, "spherical")))),
        embed=None if d.get("embed") is None
        else tuple(map(tuple, _matrix(d["embed"], f"{path}.embed"))),
    )


def manifold_to_dict(m: ManifoldModel) -> dict:
    return {
        "name": m.name,
        "n": m.n,
        "basis": [[lbl, d] for lbl, d in m.basis],
        "pairing": [[format_rational(x) for x in row] for row in m.pairing],
        "triple": sorted(
            [m.labels[i], m.labels[j], m.labels[k], format_rational(v)]
            for (i, j, k), v in m.triple.items()
        ),
        "triple_complete": m.triple_complete,
        "h2": _lattice_to_dict(m.h2),
    }


def _triple_form(triple, path) -> dict:
    """Triple entries keyed by their labels as written; a repeat is refused."""
    out, first = {}, {}
    for n, t in enumerate(triple):
        key = _labels(t[:3], f"{path}.triple[{n}]")
        out[key] = _rational(t[3], f"{path}.triple[{n}][3]")
        if first.setdefault(key, n) != n:
            raise QhfibError(f"{path}.triple[{n}]: repeats the entry at {path}.triple[{first[key]}]")
    return out


def manifold_from_dict(d: dict, path: str = "model") -> ManifoldModel:
    """A manifold model; a malformed node is named by its JSON path under path."""
    basis = [_list(b, f"{path}.basis[{i}]", 2)
             for i, b in enumerate(_list(*_required(d, path, "basis")))]
    triple = [_list(t, f"{path}.triple[{i}]", 4)
              for i, t in enumerate(_list(d.get("triple", []), f"{path}.triple"))]
    return ManifoldModel(
        _scalar(*_required(d, path, "name"), str, "a JSON string"),
        _scalar(*_required(d, path, "n"), (int, str), "a JSON integer or string"),
        [(_scalar(lbl, f"{path}.basis[{i}][0]", str, "a label"),
          _scalar(deg, f"{path}.basis[{i}][1]", (int, str), "an integer degree"))
         for i, (lbl, deg) in enumerate(basis)],
        _matrix(*_required(d, path, "pairing")),
        _triple_form(triple, path),
        _lattice_from_dict(*_required(d, path, "h2")),
        triple_complete=_flag(d.get("triple_complete", True), f"{path}.triple_complete"),
    )


def _entries_to_list(model: ManifoldModel, table: GWTable, arity: str) -> list:
    return sorted([[model.labels[i] for i in idx], [format_rational(x) for x in cls.coords],
                   format_rational(val)] for (idx, cls), val in table._store(arity).items())


def gw_to_dict(model: ManifoldModel, table: GWTable) -> dict:
    return {
        "kind": table.kind,
        **{arity: _entries_to_list(model, table, arity) for arity in ARITIES},
        "complete_below": {
            arity: (None if table.window(arity) is None else format_rational(table.window(arity)))
            for arity in ARITIES
        },
    }


def _entry_dicts(d: dict, lattice: H2Lattice, path: str) -> dict:
    """The entries [[labels], [coords], value] of a table, by arity; an
    entry repeating an earlier one's labels and class (classes compare by
    area and Chern number) is refused, where a dict would keep the last."""
    if not isinstance(d, dict):
        _fail(path, "a JSON object", d)
    tables, classes = {}, {}  # classes: one per coordinate tuple
    for arity in ARITIES:
        entries, first = {}, {}
        for n, entry in enumerate(_list(d.get(arity, []), f"{path}.{arity}")):
            at = f"{path}.{arity}[{n}]"
            labels, coords, val = _list(entry, at, 3)
            coords = tuple(_rationals(coords, f"{at}[1]"))
            cls = classes.get(coords) or classes.setdefault(coords, lattice.cls(coords))
            key = _labels(labels, f"{at}[0]") + (cls,)
            if first.setdefault(key, n) != n:
                raise QhfibError(f"{at}: repeats the entry at {path}.{arity}[{first[key]}]")
            entries[key] = _rational(val, f"{at}[2]")
        tables[arity] = entries
    cb = d.get("complete_below", {})
    if not isinstance(cb, dict):
        _fail(f"{path}.complete_below", "a JSON object", cb)
    tables["complete_below"] = {
        arity: (None if cb.get(arity) is None
                else _rational(cb[arity], f"{path}.complete_below.{arity}"))
        for arity in ARITIES
    }
    return tables


def gw_from_dict(d: dict, model: ManifoldModel, path: str = "gw") -> GWTable:
    t = _entry_dicts(d, model.h2, path)
    return GWTable(
        model, d.get("kind", "fiber"),
        two_point=t["two_point"],
        three_point=t["three_point"],
        four_point_chi=t["four_point_chi"],
        complete_below=t["complete_below"],
    )


def fibration_to_dict(fib: FibrationModel) -> dict:
    return {
        "format": "qhfib-fixture",
        "kind": "fibration",
        "name": fib.name,
        "fiber": manifold_to_dict(fib.fiber),
        "fiber_gw": gw_to_dict(fib.fiber, fib.fiber_gw),
        "total": manifold_to_dict(fib.total),
        "iota": [[format_rational(x) for x in row] for row in fib.iota],
        "splitting": [[format_rational(x) for x in row] for row in fib.splitting_map],
        "iota_h2": [[format_rational(x) for x in row] for row in fib.iota_h2],
        "sigma_ref": [format_rational(x) for x in fib.sigma_ref.coords],
        "vertical_gw": gw_to_dict(fib.total, fib.vertical_gw),
        "section_gw": gw_to_dict(fib.total, fib.section_gw),
        "base_area": None if fib.base_area is None else format_rational(fib.base_area),
        "product_structure": fib.product_structure,
    }


def fibration_from_dict(d: dict) -> FibrationModel:
    fiber = manifold_from_dict(*_required(d, "", "fiber"))
    fiber_gw = gw_from_dict(_required(d, "", "fiber_gw")[0], fiber, "fiber_gw")
    total = manifold_from_dict(*_required(d, "", "total"))
    vertical = _entry_dicts(d.get("vertical_gw", {}), total.h2, "vertical_gw")
    section = _entry_dicts(d.get("section_gw", {}), total.h2, "section_gw")
    return FibrationModel(
        _scalar(*_required(d, "", "name"), str, "a JSON string"), fiber, fiber_gw, total,
        _matrix(*_required(d, "", "iota")), _matrix(*_required(d, "", "splitting")),
        _matrix(*_required(d, "", "iota_h2")), _rationals(*_required(d, "", "sigma_ref")),
        vertical=vertical,
        section=section,
        base_area=None if d.get("base_area") is None
        else _rational(d["base_area"], "base_area"),
        product_structure=_flag(d.get("product_structure", False), "product_structure"),
    )


def to_dict(obj) -> dict:
    if isinstance(obj, FibrationModel):
        return fibration_to_dict(obj)
    model, table = obj
    return {
        "format": "qhfib-fixture",
        "kind": "ring",
        "model": manifold_to_dict(model),
        "gw": gw_to_dict(model, table),
    }


def from_dict(d: dict):
    if not isinstance(d, dict):
        raise QhfibError("a fixture is a JSON object")
    kind = d.get("kind")
    if kind not in ("ring", "fibration"):
        raise QhfibError(f"fixture kind must be 'ring' or 'fibration', got {kind!r}")
    if kind == "fibration":
        return fibration_from_dict(d)
    model = manifold_from_dict(*_required(d, "", "model"))
    return model, gw_from_dict(_required(d, "", "gw")[0], model)


def save(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path: str):
    with open(path) as fh:
        try:
            d = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise QhfibError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise QhfibError(f"{path}: fixture must be a JSON object")
    return from_dict(d)


def _reject_float(text):
    raise QhfibError(
        f"floating literal {text!r} in fixture: write rationals as strings like \"1/3\""
    )
