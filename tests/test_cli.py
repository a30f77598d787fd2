"""Command line behavior: commands, sources, cutoff resolution, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qhfib import catalog, cli, fixtures
from qhfib.cli import main
from qhfib.fixtures import from_dict, parse_qh, to_dict
from qhfib.validator import NEEDS_CUTOFF, SUITE_NAMES
from tests.conftest import trivial_product_with_a_spherical_class

RULED_FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "ruled.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_command(capsys, ruled):
    code, out, _ = run(capsys, "product", "--builtin", "ruled",
                       "--cutoff", "6", "T-", "T-")
    assert code == 0
    want = parse_qh(ruled.fiber, "-pt+1@e^{-F}")
    assert parse_qh(ruled.fiber, out.strip()) == want


def test_product_from_a_fixture_file(capsys, ruled):
    code, out, _ = run(capsys, "product", "--fixture", RULED_FIXTURE,
                       "--cutoff", "6", "pt", "T-")
    assert code == 0
    assert parse_qh(ruled.fiber, out.strip()) == parse_qh(ruled.fiber, "F@e^{-F}")


def test_vertical_product_command(capsys):
    code, out, _ = run(capsys, "product", "--builtin", "ruled", "--cutoff", "6",
                       "--space", "vertical", "S", "T")
    assert code == 0
    assert out.strip() != ""


@pytest.mark.parametrize("cutoff, want", [
    ("6", "s(e2)+s(pt)+s(pt)@e^{-E1}\n"),
    ("1/2", "s(e2)+s(pt)\n"),  # the term at e^{-E1} falls outside the window
])
def test_horizontal_product_command(capsys, cutoff, want):
    assert run(capsys, "product", "--builtin", "quantum-trivial-product", "--cutoff", cutoff,
               "--space", "horizontal", "1+e1@e^{-E1}", "pt+e2") == (0, want, "")


def test_a_ring_fixture_multiplies_in_the_fiber_only(capsys, tmp_path):
    path = str(tmp_path / "ring.json")
    fixtures.save(catalog.ruled_surface_fiber(), path)
    assert run(capsys, "product", "--fixture", path, "--cutoff", "6", "T-", "T-") == (
        0, "-pt+1@e^{-F}\n", "")
    assert run(capsys, "product", "--fixture", path, "--cutoff", "6", "--space", "vertical",
               "T-", "T-") == (2, "", "error: ring fixtures only have the fiber product\n")


def test_cutoff_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("QHFIB_CUTOFF", "6")
    code, out, _ = run(capsys, "product", "--builtin", "ruled", "T-", "T-")
    assert code == 0
    assert "e^{-F}" in out


def test_explicit_cutoff_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("QHFIB_CUTOFF", "1/100")
    code, out, _ = run(capsys, "product", "--builtin", "ruled",
                       "--cutoff", "6", "T-", "T-")
    assert code == 0
    assert "e^{-F}" in out
    monkeypatch.delenv("QHFIB_CUTOFF")
    code, out, _ = run(capsys, "product", "--builtin", "ruled",
                       "--cutoff", "1/100", "T-", "T-")
    assert code == 0
    assert "e^{-F}" not in out  # the quantum term falls outside the window


def test_missing_cutoff_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    code, _, err = run(capsys, "product", "--builtin", "ruled", "T-", "T-")
    assert code == 2
    assert "cutoff" in err


def test_negative_cutoff_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    code, out, err = run(capsys, "rho", "--builtin", "ruled", "--cutoff", "-1")
    assert code == 2
    assert out == ""
    assert "cutoff" in err
    monkeypatch.setenv("QHFIB_CUTOFF", "-2")
    code, out, err = run(capsys, "product", "--builtin", "ruled", "T-", "T-")
    assert code == 2
    assert out == ""
    assert "cutoff" in err


def test_psi_refuses_a_non_section_class(capsys):
    # sigma_ref + S meets the fiber twice: there is no loop operator to report
    code, out, err = run(capsys, "psi", "--builtin", "ruled", "--cutoff", "6",
                         "--offset", "S", "1")
    assert code == 2
    assert out == ""
    assert "not a section class" in err


def test_exactly_one_source_is_required(capsys):
    code, _, err = run(capsys, "rho", "--cutoff", "6")
    assert code == 2
    code, _, err = run(capsys, "rho", "--builtin", "ruled",
                       "--fixture", RULED_FIXTURE, "--cutoff", "6")
    assert code == 2


def test_unknown_builtin_and_bad_params(capsys):
    code, _, err = run(capsys, "rho", "--builtin", "mystery", "--cutoff", "6")
    assert code == 2
    code, _, err = run(capsys, "rho", "--builtin", "ruled",
                       "--param", "area=1", "--cutoff", "6")
    assert code == 2
    code, _, err = run(capsys, "rho", "--builtin", "ruled",
                       "--param", "kappa:1", "--cutoff", "6")
    assert code == 2
    code, _, err = run(capsys, "rho", "--builtin", "ruled",
                       "--param", "kappa=0.5", "--cutoff", "6")
    assert code == 2


def test_rho_command(capsys):
    code, out, _ = run(capsys, "rho", "--builtin", "ruled",
                       "--param", "kappa=1/2", "--cutoff", "6")
    assert code == 0
    assert "rho = T-@e^{11/18*F}" in out
    assert "rho^-1 = " in out
    assert "monomial: coefficient 1, class T-" in out


def test_psi_command(capsys, ruled):
    code, out, _ = run(capsys, "psi", "--builtin", "ruled", "--cutoff", "6",
                       "--normalized", "1")
    assert code == 0
    assert parse_qh(ruled.fiber, out.strip()) == ruled.rho(Fraction(6))
    code, out2, _ = run(capsys, "psi", "--builtin", "ruled", "--cutoff", "6",
                        "--normalized", "--offset", "F", "1")
    assert code == 0
    shifted = ruled.rho(Fraction(6)).shift(ruled.fiber.h2.gen("F"))
    assert parse_qh(ruled.fiber, out2.strip()) == shifted


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--builtin", "ruled")
    assert code == 0
    assert "Ic = 1 (mod 2)" in out
    assert "Iu = {T: -2/3}" in out
    assert "I_1 = 8/3" in out


def test_split_command_exit_codes(capsys):
    code, out, _ = run(capsys, "split", "--builtin", "quantum-trivial-product",
                       "--cutoff", "6")
    assert code == 0
    assert "ring splits" in out
    code, out, _ = run(capsys, "split", "--builtin", "ruled", "--cutoff", "6")
    assert code == 1
    assert "hypothesis fails" in out


def test_split_and_verify_on_missing_fiber_data(capsys, tmp_path):
    # the Seidel element needs fiber three-point data through area 6
    d = to_dict(catalog.build("quantum-trivial-product"))
    d["fiber_gw"]["complete_below"]["three_point"] = "3"
    path = tmp_path / "qtp.json"
    path.write_text(json.dumps(d))
    text = "quantum-trivial: product needs three-point data through area 6"
    code, out, _ = run(capsys, "verify", "--fixture", str(path), "--suite", "all", "--cutoff", "6")
    assert code == 0
    assert f"ring-splitting: skip\n  {text}\n" in out and out.endswith("suite all: ok\n")
    assert run(capsys, "split", "--fixture", str(path), "--cutoff", "6") == (
        3, "", f"incomplete data: {text}\n")


def test_nonsqueeze_command(capsys):
    code, out, _ = run(capsys, "nonsqueeze", "--builtin", "quantum-trivial-product")
    assert code == 0
    assert "capacity bound = 2" in out
    code, _, err = run(capsys, "nonsqueeze", "--builtin", "ruled")
    assert code == 3
    assert "incomplete data" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "ruled", "--cutoff", "6")
    assert code == 0
    assert "suite all: ok" in out
    code, out, _ = run(capsys, "verify", "--builtin", "ruled",
                       "--suite", "structure")
    assert code == 0


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "sphere-rotation",
                       "--cutoff", "6", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["ok"] is True
    assert "module-identities" in d["checks"]


def test_verify_flags_a_tampered_fixture(capsys, tmp_path):
    d = to_dict(catalog.build("ruled"))
    d["fiber_gw"]["three_point"][0][2] = "2"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(d))
    code, out, _ = run(capsys, "verify", "--fixture", str(bad),
                       "--suite", "assoc", "--cutoff", "6")
    assert code == 1
    assert "fail" in out


def test_strict_verify_fails_on_a_skipped_check(capsys, tmp_path):
    # without section counts the section-based checks skip, and the suite
    # still reads ok; --strict turns any skip into exit 1
    d = json.loads(Path(RULED_FIXTURE).read_text())
    del d["section_gw"]
    path = tmp_path / "no-section-gw.json"
    path.write_text(json.dumps(d))
    args = ["verify", "--fixture", str(path), "--suite", "all", "--cutoff", "6"]
    code, out, err = run(capsys, *args)
    assert code == 0 and out.endswith("suite all: ok\n")
    code, strict_out, strict_err = run(capsys, *args, "--strict")
    assert code == 1 and strict_err == err
    skipped = [line.split(":")[0] for line in out.splitlines() if line.endswith(": skip")]
    assert "seidel-invertible" in skipped and "mirror-composition" in skipped
    assert strict_out == out + f"strict: skipped {', '.join(skipped)}\n"
    code, json_out, _ = run(capsys, *args, "--json")
    assert code == 0
    assert run(capsys, *args, "--json", "--strict") == (1, json_out, "")
    # a suite that skips nothing passes under --strict with unchanged output
    structure = ["verify", "--fixture", str(path), "--suite", "structure"]
    code, out, err = run(capsys, *structure)
    assert code == 0 and ": skip" not in out
    assert run(capsys, *structure, "--strict") == (0, out, err)


def test_verify_needs_a_cutoff_exactly_for_the_multiplying_suites(capsys, monkeypatch):
    monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    for suite in SUITE_NAMES:
        code, _, err = run(capsys, "verify", "--builtin", "ruled", "--suite", suite)
        assert (code == 2) == (suite in NEEDS_CUTOFF), (suite, code, err)
        assert ("an energy cutoff is required" in err) == (suite in NEEDS_CUTOFF)


def test_a_singular_pairing_fails_the_structure_suite(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    d = to_dict(catalog.quantum_trivial_fiber())
    d["model"]["pairing"][1][2] = d["model"]["pairing"][2][1] = "0"
    d["model"]["triple"] = [t for t in d["model"]["triple"] if t[:3] != ["1", "e1", "e2"]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--suite", "structure")
    assert code == 1
    assert out == ("nondegenerate-pairing: fail\n"
                   "  quantum-trivial: intersection pairing is singular\n"
                   "suite structure: FAILED\n")
    assert err == ""
    # suites that multiply classes still refuse the model as a data error
    for suite in ("assoc", "all"):
        code, out, err = run(capsys, "verify", "--fixture", str(path), "--suite", suite,
                             "--cutoff", "2")
        assert code == 2
        assert err == "error: quantum-trivial: intersection pairing is singular\n"


def test_compose_mirror_command(capsys):
    code, out, _ = run(capsys, "compose", "--builtin", "sphere-rotation",
                       "--cutoff", "6", "--mirror")
    assert code == 0
    assert "rho(composite) = 1" in out


def test_compose_with_a_fixture_file(capsys, tmp_path):
    code, out, _ = run(capsys, "compose", "--builtin", "ruled",
                       "--cutoff", "6", "--with", RULED_FIXTURE)
    assert code == 0
    assert "rho(composite) = " in out
    code, _, err = run(capsys, "compose", "--builtin", "ruled", "--cutoff", "6")
    assert code == 2


def test_fixture_command_round_trips(capsys, tmp_path):
    out_path = tmp_path / "rot.json"
    code, out, _ = run(capsys, "fixture", "sphere-rotation",
                       "--out", str(out_path))
    assert code == 0
    loaded = from_dict(json.loads(out_path.read_text()))
    assert loaded.name == catalog.build("sphere-rotation").name
    code, out, _ = run(capsys, "fixture", "quantum-trivial-product")
    assert code == 0
    assert json.loads(out)["kind"] == "fibration"


def test_missing_fixture_file_is_a_data_error(capsys):
    code, _, err = run(capsys, "rho", "--fixture", "/no/such/file.json",
                       "--cutoff", "6")
    assert code == 2


def test_console_script_entry_point():
    exe = shutil.which("qhfib")
    if exe is None:
        cmd = [sys.executable, "-m", "qhfib.cli"]
    else:
        cmd = [exe]
    # the package this process imported, also when only pytest's pythonpath finds it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    res = subprocess.run(cmd + ["invariants", "--builtin", "sphere-rotation"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert "Ic = 1 (mod 2)" in res.stdout


def test_python_dash_m_runs_the_command_line(capsys):
    argv = ["rho", "--builtin", "ruled", "--cutoff", "6"]
    code, out, err = run(capsys, *argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    res = subprocess.run([sys.executable, "-m", "qhfib"] + argv,
                         capture_output=True, text=True, env=env)
    assert code == 0 and out.startswith("rho = ")
    assert (res.returncode, res.stdout, res.stderr) == (code, out, err)


SPLIT_QTP = """\
hypothesis: pass (all listed fiber and vertical invariants vanish)
seidel-element: pass (rho = QH<quantum-trivial: 1>)
section-map: pass (s(x) classical for every basis class)
restricts-to-identity: pass
pairing-isotropic: pass
triple-isotropic: pass
fiber-squares-to-total: pass ([M] *h [M] = QH<quantum-trivialxS2: s(1)>, expected QH<quantum-trivialxS2: s(1)>)
chern-invariant-vanishes: pass (Ic = 0)
coupling-invariant-vanishes: pass (Iu = {E1: 0, E2: 0})
ring splits
"""

SPLIT_RULED = """\
splitting hypothesis fails: the fiber carries invariants
  fiber two_point (T-,pt; H2<1*F>) = 1
  fiber three_point (T-,T-,pt; H2<1*F>) = 1
  fiber four_point_chi (1,T-,T-,pt; H2<1*F>) = 1
  fiber four_point_chi (F,T-,T-,T-; H2<1*F>) = 1
  fiber four_point_chi (T-,T-,T-,T-; H2<1*F>) = -2
  vertical two_point (pt,Zm; H2<1*F>) = 1
  vertical two_point (pt,Zp; H2<1*F>) = 1
  vertical two_point (T,S; H2<1*F>) = 1
  vertical three_point (T,S,Zm; H2<1*F>) = 1
  vertical three_point (T,S,Zp; H2<1*F>) = 1
  vertical three_point (pt,Zm,Zm; H2<1*F>) = 1
  vertical three_point (pt,Zm,Zp; H2<1*F>) = 1
  vertical three_point (pt,Zp,Zp; H2<1*F>) = 1
"""

COMPOSE_RULED = """\
convolution-matches-operator-composition: pass (two-point convolution against Psi_g after Psi_f)
normalization-glues: pass (composite normalized coupling 0, glued sections give 0 (chern: 0 vs 0))
rho(composite) = 1
"""


@pytest.mark.parametrize("argv, code, want", [
    (("split", "--builtin", "quantum-trivial-product", "--cutoff", "6"), 0, SPLIT_QTP),
    (("split", "--builtin", "ruled", "--cutoff", "6"), 1, SPLIT_RULED),
    (("compose", "--builtin", "ruled", "--mirror", "--cutoff", "6"), 0, COMPOSE_RULED),
])
def test_split_and_compose_print_their_step_lines_exactly(capsys, argv, code, want):
    got, out, err = run(capsys, *argv)
    assert (got, out, err) == (code, want, "")


@pytest.mark.parametrize("argv", [
    ("fixture", "ruled", "--param", "kappa"),
    ("rho", "--builtin", "ruled", "--param", "kappa", "--cutoff", "6"),
])
def test_a_param_without_a_value_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --param wants K=V, got 'kappa'\n"


def test_main_reuses_one_parser_and_leaks_no_state_between_calls(capsys):
    # the --param lists of one call must not reach the next, whatever the subcommand
    first = run(capsys, "rho", "--builtin", "ruled", "--param", "kappa=2", "--cutoff", "6")
    other = run(capsys, "invariants", "--builtin", "ruled", "--param", "kappa=3/2")
    plain = run(capsys, "rho", "--builtin", "ruled", "--cutoff", "6")
    assert plain == run(capsys, "rho", "--builtin", "ruled", "--param", "kappa=1", "--cutoff", "6")
    assert first != plain and first[0] == other[0] == 0
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["fixture", "ruled"]).param == []
    # a usage error prints the same lines on every call
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["rho", "--bogus"])
        errors.append((exc.value.code, capsys.readouterr()))
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert errors[0][1].err.startswith("usage: qhfib [-h]")


def test_a_fixture_missing_a_required_key_is_a_data_error(capsys, tmp_path):
    for key in ("iota", "fiber"):
        d = json.loads(Path(RULED_FIXTURE).read_text())
        del d[key]
        path = tmp_path / f"no-{key}.json"
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
        assert code == 2
        assert out == ""
        assert err == f"error: fixture is missing the required key {key}\n"


def test_a_fixture_key_of_the_wrong_type_is_a_data_error(capsys, tmp_path):
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["iota"] = 5
    path = tmp_path / "int-iota.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
    assert code == 2
    assert out == ""
    assert err == "error: iota: expected a JSON list, got 5\n"


def test_a_malformed_fixture_node_is_a_data_error_named_by_its_path(capsys, tmp_path):
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["fiber"]["triple"][0][0] = 99
    path = tmp_path / "label-99.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
    assert (code, out) == (2, "")
    assert err == "error: fiber.triple[0][0]: expected a label, got 99\n"


@pytest.mark.parametrize("coords", (["1", "0", "0"], ["14", "2", "24"]))
def test_a_repeated_fixture_entry_is_a_data_error(capsys, tmp_path, coords):
    # the first vertical two-point entry again, at its class or at a
    # non-spherical class of equal area and Chern number
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["vertical_gw"]["two_point"].append([["T", "S"], coords, "5"])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
    assert (code, out) == (2, "")
    assert err == "error: vertical_gw.two_point[3]: repeats the entry at vertical_gw.two_point[0]\n"


def test_a_repeated_triple_entry_is_a_data_error(capsys, tmp_path):
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["total"]["triple"].append(["M", "Zm", "Zm", "5"])
    path = tmp_path / "repeated-triple.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
    assert (code, out) == (2, "")
    assert err == "error: total.triple[10]: repeats the entry at total.triple[2]\n"


@pytest.mark.parametrize("value", ("false", "no"))
def test_a_string_flag_in_a_fixture_is_a_data_error(capsys, tmp_path, value):
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["total"]["h2"]["spherical"][1] = value
    path = tmp_path / "string-flag.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "verify", "--fixture", str(path), "--cutoff", "6")
    assert (code, out) == (2, "")
    assert err == f'error: total.h2.spherical[1]: expected a JSON boolean, got "{value}"\n'


def test_a_seidel_element_that_is_not_a_unit_fails_at_every_cutoff(capsys, tmp_path):
    """Without the section count n(F, M) the Seidel element is -F e^{7/12 F},
    whose determinant is 0: not a unit, whatever the cutoff."""
    d = json.loads(Path(RULED_FIXTURE).read_text())
    del d["section_gw"]["two_point"][0]
    path = tmp_path / "no-FM.json"
    path.write_text(json.dumps(d))
    for cutoff in ("0", "6", "48"):
        code, out, err = run(capsys, "rho", "--fixture", str(path), "--cutoff", cutoff)
        assert code == 1
        assert out == ""
        assert err == (f"failed: ruled-loop: Seidel element QH<ruled-surface: -F@e^H2<7/12*F>> "
                       f"is not invertible modulo {cutoff}; section data is wrong or incomplete\n")


def test_module_identities_keep_their_failures_when_the_shifted_section_lacks_data(
        capsys, tmp_path):
    """With n(F, M; 0) = 3 the module identities fail, at a window of 7 as
    at 100. The module identities read the section data through the cutoff
    only, so the unedited window-7 copy passes them."""
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["section_gw"]["complete_below"]["two_point"] = "7"
    clean = tmp_path / "window-7.json"
    clean.write_text(json.dumps(d))
    entry = next(e for e in d["section_gw"]["two_point"] if e[:2] == [["F", "M"], ["0", "0", "0"]])
    entry[2] = "3"
    bad = tmp_path / "window-7-FM-3.json"
    bad.write_text(json.dumps(d))
    d["section_gw"]["complete_below"]["two_point"] = "100"
    wide = tmp_path / "window-100-FM-3.json"
    wide.write_text(json.dumps(d))

    def module(path):
        return run(capsys, "verify", "--fixture", str(path), "--suite", "module", "--cutoff", "6")

    code, out, err = module(bad)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "module-identities: fail"
    psi = [line for line in lines if line.startswith("  Psi(")]
    assert len(psi) == 8 and lines[1:9] == psi
    assert lines[9:] == [
        "seidel-invertible: skip",
        "  ruled-loop: two_point section data must be complete through area 43/6 (have 7)",
        "suite module: FAILED",
    ]
    code, wide_out, _ = module(wide)
    assert code == 1
    assert wide_out.splitlines()[:9] == lines[:9]
    assert module(clean) == (0, (
        "module-identities: pass\n"
        "seidel-invertible: skip\n"
        "  ruled-loop: two_point section data must be complete through area 43/6 (have 7)\n"
        "suite module: ok\n"), "")


@pytest.mark.parametrize("name,cutoff", [("ruled", c) for c in ("0", "1/4", "1/2", "1", "3/2")]
                         + [("sphere-rotation", c) for c in ("0", "1/4", "1/2")])
def test_sound_loops_verify_below_their_largest_exponent_area(capsys, name, cutoff):
    """compose reads each factor past the cutoff by the other's largest
    positive exponent area, so a positive-area term of one loop meets every
    term of the other it reaches at the cutoff."""
    code, out, err = run(capsys, "verify", "--builtin", name, "--suite", "all", "--cutoff", cutoff)
    assert (code, err) == (0, "")
    assert "mirror-composition: pass" in out.splitlines()
    code, out, _ = run(capsys, "compose", "--mirror", "--builtin", name, "--cutoff", cutoff)
    assert (code, out.splitlines()[-1]) == (0, "rho(composite) = 1")


@pytest.mark.parametrize("cutoff", ["99", "100"])
def test_module_identities_pass_up_to_the_section_window(capsys, cutoff):
    code, out, _ = run(capsys, "verify", "--builtin", "ruled", "--suite", "module",
                       "--cutoff", cutoff)
    assert code == 0
    assert out.splitlines()[0] == "module-identities: pass"


def test_rho_verifies_its_inverse_only_through_the_declared_window(capsys, tmp_path):
    """A fiber table complete only through area 3 cannot confirm
    rho * rho^-1 = 1 modulo 6, which needs area 8: rho exits 3, as the
    product does, instead of reading the undeclared classes as 0. At
    cutoff 1 the window covers the check and rho is unchanged."""
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["fiber_gw"]["complete_below"]["three_point"] = "3"
    path = tmp_path / "fiber-window-3.json"
    path.write_text(json.dumps(d))
    assert run(capsys, "rho", "--fixture", str(path), "--cutoff", "6") == (
        3, "", "incomplete data: ruled-surface: product needs three-point data through area 8\n")
    assert run(capsys, "product", "--fixture", str(path), "--cutoff", "6", "T-", "T-")[0] == 3
    assert run(capsys, "rho", "--fixture", str(path), "--cutoff", "1") == \
        run(capsys, "rho", "--fixture", RULED_FIXTURE, "--cutoff", "1")


def _fixture_with_a_zero_denominator(tmp_path):
    d = json.loads(Path(RULED_FIXTURE).read_text())
    d["fiber_gw"]["two_point"][0][2] = "1/0"
    path = tmp_path / "zero-denominator.json"
    path.write_text(json.dumps(d))
    return ["verify", "--fixture", str(path), "--cutoff", "6"]


@pytest.mark.parametrize("argv, env", [
    (["product", "--builtin", "ruled", "--cutoff", "6", "1/0*F", "F"], None),
    (["rho", "--builtin", "ruled", "--cutoff", "1/0"], None),
    (["rho", "--builtin", "ruled"], "3/0"),
    (["rho", "--builtin", "ruled", "--param", "kappa=1/0", "--cutoff", "6"], None),
    (["psi", "--builtin", "ruled", "--cutoff", "6", "--offset", "1/0*F", "1"], None),
    (None, None),
], ids=["class", "cutoff", "environment", "param", "offset", "fixture"])
def test_a_zero_denominator_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, env):
    if env is None:
        monkeypatch.delenv("QHFIB_CUTOFF", raising=False)
    else:
        monkeypatch.setenv("QHFIB_CUTOFF", env)
    argv = argv or _fixture_with_a_zero_denominator(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: zero denominator in '") and err.endswith("/0'\n")


def test_a_mirror_that_is_not_a_unit_still_gives_a_report(capsys, tmp_path):
    # without n(F, M) the reference-section class is -F, not a unit, so the
    # mirror cannot be built; mirror-composition fails and every check reports
    d = json.loads(Path(RULED_FIXTURE).read_text())
    del d["section_gw"]["two_point"][0]
    path = tmp_path / "no-FM.json"
    path.write_text(json.dumps(d))
    args = ["verify", "--fixture", str(path), "--suite", "all", "--cutoff", "6"]
    code, out, err = run(capsys, *args)
    assert (code, err) == (1, "")
    _, full, _ = run(capsys, "verify", "--builtin", "ruled", "--suite", "all", "--cutoff", "6")
    names = [line.split(":")[0] for line in full.splitlines() if not line.startswith(" ")]
    assert [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")] == names
    assert "mirror-composition: fail\n  QH<ruled-surface: -F> is not a unit\n" in out
    assert out.endswith("suite all: FAILED\n")
    code, out, err = run(capsys, *args, "--json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["ok"] is False
    assert report["checks"]["mirror-composition"] == {
        "status": "fail", "details": ["QH<ruled-surface: -F> is not a unit"]}


def mutations(d):
    """(what, mutated copy): each fiber and total triple entry +1 and
    negated, and each stored count deleted."""
    for space in ("fiber", "total"):
        for pos, entry in enumerate(d[space]["triple"]):
            for how, value in (("+1", Fraction(entry[3]) + 1), ("negated", -Fraction(entry[3]))):
                copy = json.loads(json.dumps(d))
                copy[space]["triple"][pos][3] = str(value)
                yield f"{space}.triple[{pos}] {how}", copy
    for tk in ("fiber_gw", "vertical_gw", "section_gw"):
        for part in ("two_point", "three_point", "four_point_chi"):
            for pos in range(len(d[tk].get(part, ()))):
                copy = json.loads(json.dumps(d))
                del copy[tk][part][pos]
                yield f"{tk}.{part}[{pos}] deleted", copy


@pytest.mark.parametrize("name", catalog.BUILTIN_FIBRATIONS)
def test_every_single_entry_mutation_is_refused_or_fails_a_check(capsys, tmp_path, name):
    path = tmp_path / "mutated.json"
    missed, aborted = [], []
    for what, d in mutations(to_dict(catalog.build(name))):
        path.write_text(json.dumps(d))
        code, out, err = run(capsys, "verify", "--fixture", str(path), "--suite", "all",
                             "--cutoff", "6", "--json")
        if code == 2 and out == "" and err.startswith("error: "):
            continue  # refused at load
        if code != 1 or err:
            aborted.append((what, code, err))
        elif not any(c["status"] == "fail" for c in json.loads(out)["checks"].values()):
            missed.append(what)
    assert (missed, aborted) == ([], [])


def test_rho_says_when_the_seidel_element_is_not_a_monomial(capsys, tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(trivial_product_with_a_spherical_class(two_point=[("1", "e1")])))
    assert run(capsys, "rho", "--fixture", str(path), "--cutoff", "6") == (
        0, "rho = 1+e2@e^{-E1}\nrho^-1 = 1-e2@e^{-E1}\nmonomial: no\n", "")


def test_nonsqueeze_without_a_through_point_invariant_gives_no_bound(capsys, tmp_path):
    d = to_dict(catalog.build("quantum-trivial-product"))
    section = d["section_gw"]
    section["three_point"] = [e for e in section["three_point"] if "pt" not in e[0]]
    path = tmp_path / "no-point.json"
    path.write_text(json.dumps(d))
    assert run(capsys, "nonsqueeze", "--fixture", str(path)) == (0, (
        "table complete through area 100\n"
        "no bound: all through-point section invariants vanish through area 100\n"), "")


def test_compose_with_a_loop_whose_composite_is_no_unit(capsys, tmp_path):
    # without two-point section counts the second loop's operator is 0
    d = to_dict(catalog.build("ruled"))
    d["section_gw"]["two_point"] = []
    path = tmp_path / "no-two-point.json"
    path.write_text(json.dumps(d))
    assert run(capsys, "compose", "--builtin", "ruled", "--cutoff", "6", "--with", str(path)) == (
        1,
        "convolution-matches-operator-composition: pass "
        "(two-point convolution against Psi_g after Psi_f)\n"
        "normalization-glues: pass (composite normalized coupling 0, glued sections give 0 "
        "(chern: 1/3 vs 1/3))\n"
        "rho(composite): ruled-loop*ruled-loop: composite Seidel element not invertible\n",
        "",
    )
