"""The package's star-import surface: the names `qhfib/__init__.py`
imports from its submodules, and `__version__`; never a submodule."""

import types

import qhfib

EXPORTS = {
    "CutoffTooSmall", "DegeneratePairing", "DimensionRuleViolation",
    "FiberMismatch", "Inconsistent", "MissingTripleData",
    "NotInvertible", "PrimingInvalid", "QhfibError", "TableIncomplete",
    "UnknownBasisLabel", "UnknownSuite",
    "FibrationModel", "LoopComposite", "NonsqueezingResult",
    "PsiOperator", "composable", "compose", "mirror",
    "ManifoldModel", "QHClass",
    "H2Class", "H2Lattice", "NovikovElement", "format_rational",
    "nov_invert", "parse_rational",
    "GWTable", "QuantumRing", "tensor_model",
    "corrected_splitting", "product_fixture",
    "ring_split_check", "splitting_correction", "verify_product_pattern",
    "SUITE_NAMES", "VerificationReport", "run_suite",
    "__version__",
}


def test_a_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from qhfib import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == EXPORTS
    assert namespace["__version__"] == qhfib.__version__
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_all_names_each_export_once():
    assert sorted(qhfib.__all__) == sorted(EXPORTS)
