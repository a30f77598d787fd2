"""Fixture files and the class-expression grammar."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhfib import QhfibError, UnknownBasisLabel, catalog, run_suite
from qhfib.cli import main
from qhfib.fixtures import (
    format_lin,
    format_qh,
    from_dict,
    load,
    parse_lin,
    parse_qh,
    save,
    to_dict,
)
from qhfib.quantum import ARITIES
from tests.conftest import BUILTINS, CUTOFF

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("name", BUILTINS)
def test_each_fixture_file_is_what_the_fixture_command_writes(name, tmp_path, capsys):
    # sphere-rotation is built through the corrected splitting
    assert sorted(p.stem for p in FIXTURES.glob("*.json")) == sorted(BUILTINS)
    out = tmp_path / f"{name}.json"
    assert main(["fixture", name, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", BUILTINS)
def test_fibrations_round_trip_through_json(name, tmp_path):
    fib = catalog.build(name)
    d = to_dict(fib)
    # the dict must be pure JSON with rationals as strings
    assert json.loads(json.dumps(d)) == d
    assert to_dict(from_dict(d)) == d
    path = tmp_path / f"{name}.json"
    save(fib, str(path))
    loaded = load(str(path))
    assert to_dict(loaded) == d
    assert run_suite(loaded, "all", CUTOFF).ok


def test_ring_pairs_round_trip(tmp_path):
    pair = catalog.ruled_surface_fiber()
    d = to_dict(pair)
    assert d["kind"] == "ring"
    path = tmp_path / "ring.json"
    save(pair, str(path))
    model, table = load(str(path))
    assert to_dict((model, table)) == d
    assert run_suite((model, table), "all", CUTOFF).ok


def test_float_literals_in_fixtures_are_rejected(tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"kind": "ring", "model": {"n": 0.5}}')
    with pytest.raises(QhfibError) as err:
        load(str(path))
    assert "0.5" in str(err.value)


def test_malformed_fixture_files_are_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(QhfibError):
        load(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(QhfibError):
        load(str(arr))
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"kind": "mystery"}')
    with pytest.raises(QhfibError):
        load(str(wrong))
    # a table entry missing its value names its JSON path
    d = to_dict(catalog.build("ruled"))
    d["section_gw"]["two_point"][0] = d["section_gw"]["two_point"][0][:2]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(d))
    with pytest.raises(QhfibError) as err:
        load(str(short))
    assert "section_gw.two_point[0]" in str(err.value)
    ring = to_dict(catalog.ruled_surface_fiber())
    ring["gw"]["three_point"][0] = "T-"
    with pytest.raises(QhfibError) as err:
        from_dict(ring)
    assert "gw.three_point[0]" in str(err.value)


def test_lattice_expression_round_trip(ruled):
    lat = ruled.total.h2
    cls = parse_lin(lat, "2*F-1/3*T+S")
    assert cls.coords == (Fraction(2), Fraction(-1, 3), Fraction(1))
    assert parse_lin(lat, format_lin(cls)) == cls
    assert format_lin(lat.zero()) == "0"
    assert parse_lin(lat, "0").is_zero()


def test_qh_expression_round_trip(ruled):
    m = ruled.fiber
    q = parse_qh(m, "3/2*T-@e^{-F}+pt-2*1@e^{2*F}")
    assert parse_qh(m, format_qh(q)) == q
    assert format_qh(m.qh()) == "0"
    assert parse_qh(m, "0").is_zero()


def test_labels_with_sign_characters_parse_greedily(ruled):
    m = ruled.fiber
    # "T-" contains a minus and must win over "T" plus a dangling sign
    q = parse_qh(m, "T-+F")
    assert q == m.qh_basis("T-") + m.qh_basis("F")
    q2 = parse_qh(m, "-T--F")
    assert q2 == -(m.qh_basis("T-") + m.qh_basis("F"))


def test_expression_errors():
    m, _ = catalog.ruled_surface_fiber()
    with pytest.raises(UnknownBasisLabel):
        parse_qh(m, "nope")
    with pytest.raises(QhfibError):
        parse_qh(m, "0.5*pt")
    with pytest.raises(QhfibError):
        parse_qh(m, "pt@e^{F")
    with pytest.raises(QhfibError):
        parse_qh(m, "")


def test_format_orders_terms_by_energy(ruled):
    m = ruled.fiber
    e = m.h2.gen("F")
    q = m.qh_basis("pt") + m.qh_basis("F").shift(-e) + m.qh_basis("T-").shift(e)
    text = format_qh(q)
    assert text.index("T-") < text.index("pt") < text.index("F@")


def test_fixture_dicts_are_stable_under_reload(ruled):
    # serialize, reload, serialize again: byte-identical JSON
    d1 = to_dict(ruled)
    s1 = json.dumps(d1, sort_keys=True)
    d2 = to_dict(from_dict(json.loads(s1)))
    assert json.dumps(d2, sort_keys=True) == s1


# the grammar's alphabet: labels, generators, digits and the operators,
# plus whole coefficients p/q* (q may be 0)
_QH_TOKENS = st.one_of(
    st.sampled_from(["1", "F", "T-", "pt", "S", "T", "0", "2", "/", "*", "+", "-",
                     "@e^{", "}", "{", "@", "^", " ", "x"]),
    st.builds("{}/{}*".format, st.integers(0, 3), st.integers(0, 2)),
)


@given(st.lists(_QH_TOKENS, max_size=12))
@settings(max_examples=300)
def test_parse_qh_and_parse_lin_raise_only_qhfib_errors(ruled, tokens):
    text = "".join(tokens)
    for parse, target in ((parse_qh, ruled.fiber), (parse_qh, ruled.total),
                          (parse_lin, ruled.fiber.h2), (parse_lin, ruled.total.h2)):
        try:
            parse(target, text)
        except QhfibError:
            pass


def json_nodes(node, path=()):
    """(parent, key, path) for every node below the root."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield node, key, path + (key,)
        yield from json_nodes(child, path + (key,))


REPLACEMENTS = (None, True, 99, "x", [], {})


def fixture_dict(name):
    """A shipped fixture file as a dict; "ring" is the ruled surface's fiber
    ring written as a ring fixture."""
    if name == "ring":
        return to_dict(catalog.ruled_surface_fiber())
    return json.loads((FIXTURES / f"{name}.json").read_text())


@pytest.mark.parametrize("name", ("ruled", "quantum-trivial-product", "ring"))
def test_any_malformed_node_is_a_data_error(name):
    """Each node replaced by each JSON kind: only QhfibError or ValueError
    (both exit 2) escapes, never a traceback."""
    d = fixture_dict(name)
    for value in REPLACEMENTS:
        with pytest.raises(QhfibError):
            from_dict(value)
    for parent, key, path in list(json_nodes(d)):
        kept = parent[key]
        for value in REPLACEMENTS:
            parent[key] = value
            try:
                from_dict(d)
            except (QhfibError, ValueError):
                pass
            except Exception as exc:
                raise AssertionError(f"{path} = {value!r}: {exc!r}") from exc
        parent[key] = kept
    assert from_dict(d)


@pytest.mark.parametrize("path, value, want", [
    (("fiber_gw", "three_point", 0, 2), True, 'fiber_gw.three_point[0][2]: expected a rational such as "1/3", got true'),
    (("base_area",), [], 'base_area: expected a rational such as "1/3", got []'),
    (("fiber", "triple", 0, 0), 99, "fiber.triple[0][0]: expected a label, got 99"),
    (("total", "basis", 2), "x", 'total.basis[2]: expected a JSON list of 2 items, got "x"'),
    (("vertical_gw", "three_point", 0, 0, 1), [], "vertical_gw.three_point[0][0][1]: expected a label, got []"),
    (("fiber", "h2", "embed"), {}, "fiber.h2.embed: expected a JSON list, got {}"),
    (("section_gw", "complete_below"), None, "section_gw.complete_below: expected a JSON object, got null"),
])
def test_a_malformed_node_is_named_by_its_json_path(path, value, want):
    d = json.loads((FIXTURES / "ruled.json").read_text())
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    assert str(err.value) == want


# the keys each fixture kind must carry, as JSON paths with their JSON types
MANIFOLD_KEYS = {"name": "string", "n": "integer or string", "basis": "list",
                 "pairing": "list", "h2.generators": "list", "h2.omega": "list",
                 "h2.c1": "list", "h2.spherical": "list"}
REQUIRED = {
    "ring": {"gw": "object", **{f"model.{key}": t for key, t in MANIFOLD_KEYS.items()}},
    "fibration": {"name": "string", "iota": "list", "splitting": "list", "iota_h2": "list",
                  "sigma_ref": "list", "fiber_gw": "object",
                  **{f"{part}.{key}": t for part in ("fiber", "total")
                     for key, t in MANIFOLD_KEYS.items()}},
}
# values of the wrong JSON type for each required type
WRONG_TYPES = {"string": (None, 5, True, [], {}), "integer or string": (None, [2], {}),
               "list": (None, 5, "x", {}), "object": (None, 5, "x", [])}
DELETED = object()


def required_node_error(kind, keys, value):
    """The error text of a fixture of `kind` with the node at `keys` set to
    value, or removed when value is DELETED."""
    d = fixture_dict("ring" if kind == "ring" else "ruled")
    *parents, last = keys
    node = d
    for key in parents:
        node = node[key]
    if value is DELETED:
        del node[last]
    else:
        node[last] = value
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    return str(err.value)


@pytest.mark.parametrize("kind, path", [(kind, path) for kind, paths in REQUIRED.items()
                                        for path in paths])
def test_each_required_node_is_named_by_its_json_path(kind, path):
    """A required key deleted, of a wrong JSON type, or under a parent that
    is deleted or not a JSON object: each is a QhfibError naming its JSON
    path."""
    keys = path.split(".")
    assert required_node_error(kind, keys, DELETED) == f"fixture is missing the required key {path}"
    for value in WRONG_TYPES[REQUIRED[kind][path]]:
        assert required_node_error(kind, keys, value) == (
            f"{path}: expected a JSON {REQUIRED[kind][path]}, got {json.dumps(value)}")
    parent = ".".join(keys[:-1])
    if parent:
        assert required_node_error(kind, keys[:-1], DELETED) == (
            f"fixture is missing the required key {parent}")
    for value in (None, 5, "x", [], [{}]):
        if parent:
            assert required_node_error(kind, keys[:-1], value) == f"{parent}: expected a JSON object"
        else:
            with pytest.raises(QhfibError) as err:
                from_dict(value)
            assert str(err.value) == "a fixture is a JSON object"


NOT_BOOLEANS = ("false", "no", 0, 1, None)
FLAG_PATHS = {  # the JSON path each error names, with its keys
    "product_structure": ("product_structure",),
    "fiber.triple_complete": ("fiber", "triple_complete"),
    "total.triple_complete": ("total", "triple_complete"),
    "fiber.h2.spherical[0]": ("fiber", "h2", "spherical", 0),
    "total.h2.spherical[1]": ("total", "h2", "spherical", 1),
}


@pytest.mark.parametrize("value", NOT_BOOLEANS, ids=json.dumps)
@pytest.mark.parametrize("where", FLAG_PATHS)
def test_a_flag_must_be_a_json_boolean(where, value):
    """A string such as "false" is not read by its truthiness: every flag
    is a JSON boolean or a data error named by its JSON path."""
    d = json.loads((FIXTURES / "ruled.json").read_text())
    *parents, last = FLAG_PATHS[where]
    node = d
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    assert str(err.value) == f"{where}: expected a JSON boolean, got {json.dumps(value)}"


@pytest.mark.parametrize("value", NOT_BOOLEANS, ids=json.dumps)
@pytest.mark.parametrize("key", ("triple_complete", "spherical"))
def test_a_ring_fixture_flag_must_be_a_json_boolean(key, value):
    d = to_dict(catalog.ruled_surface_fiber())
    if key == "spherical":
        d["model"]["h2"]["spherical"][0] = value
        where = "model.h2.spherical[0]"
    else:
        d["model"]["triple_complete"] = value
        where = "model.triple_complete"
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    assert str(err.value) == f"{where}: expected a JSON boolean, got {json.dumps(value)}"


def test_json_booleans_load_as_themselves():
    d = json.loads((FIXTURES / "ruled.json").read_text())
    d["product_structure"] = True
    d["total"]["triple_complete"] = False
    fib = from_dict(d)
    assert fib.product_structure is True
    assert fib.total.triple_complete is False
    assert fib.fiber.triple_complete is True
    assert fib.total.h2.spherical == (True, False, True)


# an entry with the labels of the first vertical two-point entry and a class
# equal to its class: the class itself, and a non-spherical class of the same
# area and Chern number
REPEATS = ([["T", "S"], ["1", "0", "0"], "5"], [["T", "S"], ["14", "2", "24"], "7"])


@pytest.mark.parametrize("entry", REPEATS, ids=["same class", "equal class"])
def test_a_repeated_table_entry_is_refused_naming_both_entries(entry):
    d = json.loads((FIXTURES / "ruled.json").read_text())
    assert d["vertical_gw"]["two_point"][0] == [["T", "S"], ["1", "0", "0"], "1"]
    d["vertical_gw"]["two_point"].append(entry)
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    assert str(err.value) == "vertical_gw.two_point[3]: repeats the entry at vertical_gw.two_point[0]"


def test_a_repeated_triple_entry_is_refused_naming_both_entries():
    d = json.loads((FIXTURES / "ruled.json").read_text())
    assert d["total"]["triple"][2] == ["M", "Zm", "Zm", "-1"]
    d["total"]["triple"].append(["M", "Zm", "Zm", "5"])
    with pytest.raises(QhfibError) as err:
        from_dict(d)
    assert str(err.value) == "total.triple[10]: repeats the entry at total.triple[2]"


@pytest.mark.parametrize("name", BUILTINS)
def test_shuffled_table_entries_give_the_same_check_statuses(name):
    """Every table's entries in a seeded random order, the labels inside
    each entry kept in place (odd labels carry a Koszul sign): the suite
    reaches the same verdicts. Statuses, not details, are compared: the
    ring-splitting lines follow table order."""
    d = json.loads((FIXTURES / f"{name}.json").read_text())
    rng = random.Random(f"shuffle {name}")
    lists = [d[part]["triple"] for part in ("fiber", "total")] + [
        d[table][arity] for table in ("fiber_gw", "vertical_gw", "section_gw") for arity in ARITIES]
    before = json.dumps(lists)
    for entries in lists:
        kept = list(entries)
        while len(entries) > 1 and entries == kept:  # each order really changes
            rng.shuffle(entries)
    assert json.dumps(lists) != before

    def statuses(fib):
        return {check: c["status"] for check, c in run_suite(fib, "all", CUTOFF).checks.items()}

    assert statuses(from_dict(d)) == statuses(catalog.build(name))
