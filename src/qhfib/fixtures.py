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
from .novikov import H2Class, H2Lattice, format_rational, parse_rational
from .quantum import ARITIES, GWTable

_COEFF = re.compile(r"(\d+(?:/\d+)?)\*")


def _longest_match(names, s, i):
    best = None
    for name in names:
        if s.startswith(name, i) and (best is None or len(name) > len(best)):
            best = name
    return best


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


def format_lin(cls: H2Class) -> str:
    parts = []
    for g, x in zip(cls.lattice.generators, cls.coords):
        if x == 0:
            continue
        lead = "-" if x < 0 else ("+" if parts else "")
        mag = abs(x)
        parts.append(lead + (f"{format_rational(mag)}*" if mag != 1 else "") + g)
    return "".join(parts) if parts else "0"


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
    m = q.model
    keys = sorted(q.terms, key=lambda e: (-e.omega, e.c1, e.coords))
    parts = []
    for e in keys:
        suffix = "" if e.is_zero() else f"@e^{{{format_lin(e)}}}"
        for i, x in enumerate(q.terms[e]):
            if x == 0:
                continue
            lead = "-" if x < 0 else ("+" if parts else "")
            mag = abs(x)
            coeff = f"{format_rational(mag)}*" if mag != 1 else ""
            parts.append(lead + coeff + m.labels[i] + suffix)
    return "".join(parts) if parts else "0"


# -- JSON ---------------------------------------------------------------------


def _rat(x) -> str:
    return format_rational(Fraction(x))


def _lattice_to_dict(lat: H2Lattice) -> dict:
    return {
        "generators": list(lat.generators),
        "omega": [_rat(x) for x in lat.omega],
        "c1": [_rat(x) for x in lat.c1],
        "spherical": list(lat.spherical),
        "embed": None if lat.embed is None
        else [[_rat(x) for x in row] for row in lat.embed],
    }


def _lattice_from_dict(d: dict) -> H2Lattice:
    return H2Lattice(
        generators=tuple(d["generators"]),
        omega=tuple(parse_rational(x) for x in d["omega"]),
        c1=tuple(parse_rational(x) for x in d["c1"]),
        spherical=tuple(bool(x) for x in d["spherical"]),
        embed=None if d.get("embed") is None
        else tuple(tuple(parse_rational(x) for x in row) for row in d["embed"]),
    )


def manifold_to_dict(m: ManifoldModel) -> dict:
    return {
        "name": m.name,
        "n": m.n,
        "basis": [[lbl, d] for lbl, d in m.basis],
        "pairing": [[_rat(x) for x in row] for row in m.pairing],
        "triple": sorted(
            [m.labels[i], m.labels[j], m.labels[k], _rat(v)]
            for (i, j, k), v in m.triple.items()
        ),
        "triple_complete": m.triple_complete,
        "h2": _lattice_to_dict(m.h2),
    }


def manifold_from_dict(d: dict) -> ManifoldModel:
    return ManifoldModel(
        d["name"], d["n"],
        [(lbl, int(deg)) for lbl, deg in d["basis"]],
        [[parse_rational(x) for x in row] for row in d["pairing"]],
        {(a, b, c): parse_rational(v) for a, b, c, v in d.get("triple", [])},
        _lattice_from_dict(d["h2"]),
        triple_complete=d.get("triple_complete", True),
    )


def _entries_to_list(model: ManifoldModel, table: GWTable, arity: str) -> list:
    out = []
    for (idx, cls), val in table._store(arity).items():
        out.append([
            [model.labels[i] for i in idx],
            [_rat(x) for x in cls.coords],
            _rat(val),
        ])
    out.sort()
    return out


def gw_to_dict(model: ManifoldModel, table: GWTable) -> dict:
    return {
        "kind": table.kind,
        **{arity: _entries_to_list(model, table, arity) for arity in ARITIES},
        "complete_below": {
            arity: (None if table.window(arity) is None else _rat(table.window(arity)))
            for arity in ARITIES
        },
    }


# the keys each fixture kind must carry, as JSON paths with their types; the rest are optional
_MANIFOLD_KEYS = (("name", str), ("n", (int, str)), ("basis", list), ("pairing", list),
                  ("h2.generators", list), ("h2.omega", list), ("h2.c1", list),
                  ("h2.spherical", list))
_REQUIRED = {
    "fibration": (("name", str), ("iota", list), ("splitting", list), ("iota_h2", list),
                  ("sigma_ref", list), ("fiber_gw", dict))
    + tuple((f"{part}.{key}", kind) for part in ("fiber", "total") for key, kind in _MANIFOLD_KEYS),
    "ring": (("gw", dict),) + tuple((f"model.{key}", kind) for key, kind in _MANIFOLD_KEYS),
}
_JSON_TYPES = {dict: "object", list: "list", str: "string", (int, str): "integer or string"}


def _check_required(d: dict, paths) -> None:
    """Every required key is present with its JSON type; the first missing
    or mistyped one is named by its JSON path."""
    for path, kind in paths:
        node, seen = d, []
        for key in path.split("."):
            if not isinstance(node, dict):
                raise QhfibError(f"{'.'.join(seen)}: expected a JSON object")
            seen.append(key)
            if key not in node:
                raise QhfibError(f"fixture is missing the required key {'.'.join(seen)}")
            node = node[key]
        if not isinstance(node, kind):
            raise QhfibError(f"{path}: expected a JSON {_JSON_TYPES[kind]}, "
                             f"got {json.dumps(node, default=str)}")


def _check_tables(d: dict, keys) -> None:
    """Each table entry is [[labels], [coords], value]; a malformed one is
    named by its JSON path."""
    for key in keys:
        table = d.get(key, {})
        if not isinstance(table, dict):
            raise QhfibError(f"{key}: a table is a JSON object")
        for arity in ARITIES:
            entries = table.get(arity, [])
            if not isinstance(entries, list):
                raise QhfibError(f"{key}.{arity}: the entries form a JSON list")
            for n, entry in enumerate(entries):
                if not (isinstance(entry, list) and len(entry) == 3
                        and isinstance(entry[0], list) and isinstance(entry[1], list)):
                    raise QhfibError(
                        f"{key}.{arity}[{n}]: an entry is [[labels], [coords], value], "
                        f"got {json.dumps(entry, default=str)}"
                    )


def _entry_dicts(d: dict, lattice: H2Lattice) -> dict:
    tables = {}
    for arity in ARITIES:
        entries = {}
        for labels, coords, val in d.get(arity, []):
            cls = lattice.cls([parse_rational(x) for x in coords])
            key = tuple(labels) + (cls,)
            entries[key] = parse_rational(val)
        tables[arity] = entries
    cb = d.get("complete_below", {})
    tables["complete_below"] = {
        arity: (None if cb.get(arity) is None else parse_rational(cb[arity]))
        for arity in ARITIES
    }
    return tables


def gw_from_dict(d: dict, model: ManifoldModel) -> GWTable:
    t = _entry_dicts(d, model.h2)
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
        "iota": [[_rat(x) for x in row] for row in fib.iota],
        "splitting": [[_rat(x) for x in row] for row in fib.splitting_map],
        "iota_h2": [[_rat(x) for x in row] for row in fib.iota_h2],
        "sigma_ref": [_rat(x) for x in fib.sigma_ref.coords],
        "vertical_gw": gw_to_dict(fib.total, fib.vertical_gw),
        "section_gw": gw_to_dict(fib.total, fib.section_gw),
        "base_area": None if fib.base_area is None else _rat(fib.base_area),
        "product_structure": fib.product_structure,
    }


def fibration_from_dict(d: dict) -> FibrationModel:
    _check_tables(d, ("fiber_gw", "vertical_gw", "section_gw"))
    fiber = manifold_from_dict(d["fiber"])
    fiber_gw = gw_from_dict(d["fiber_gw"], fiber)
    total = manifold_from_dict(d["total"])
    vertical = _entry_dicts(d.get("vertical_gw", {}), total.h2)
    section = _entry_dicts(d.get("section_gw", {}), total.h2)
    return FibrationModel(
        d["name"], fiber, fiber_gw, total,
        [[parse_rational(x) for x in row] for row in d["iota"]],
        [[parse_rational(x) for x in row] for row in d["splitting"]],
        [[parse_rational(x) for x in row] for row in d["iota_h2"]],
        [parse_rational(x) for x in d["sigma_ref"]],
        vertical=vertical,
        section=section,
        base_area=None if d.get("base_area") is None
        else parse_rational(d["base_area"]),
        product_structure=bool(d.get("product_structure", False)),
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
    kind = d.get("kind")
    if kind not in ("ring", "fibration"):
        raise QhfibError(f"fixture kind must be 'ring' or 'fibration', got {kind!r}")
    _check_required(d, _REQUIRED[kind])
    if kind == "fibration":
        return fibration_from_dict(d)
    _check_tables(d, ("gw",))
    model = manifold_from_dict(d["model"])
    return model, gw_from_dict(d["gw"], model)


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
