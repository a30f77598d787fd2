"""Exact quantum homology for closed symplectic manifolds and Hamiltonian
fibrations over the sphere, driven by user-supplied invariant tables."""

from .errors import (
    CutoffTooSmall,
    DegeneratePairing,
    DimensionRuleViolation,
    FiberMismatch,
    Inconsistent,
    MissingTripleData,
    NotInvertible,
    PrimingInvalid,
    QhfibError,
    TableIncomplete,
    UnknownBasisLabel,
    UnknownSuite,
)
from .fibration import (
    FibrationModel,
    LoopComposite,
    NonsqueezingResult,
    PsiOperator,
    composable,
    compose,
    mirror,
)
from .manifold import ManifoldModel, QHClass
from .novikov import (
    H2Class,
    H2Lattice,
    NovikovElement,
    format_rational,
    nov_invert,
    parse_rational,
)
from .quantum import GWTable, QuantumRing, tensor_model
from .splitting import (
    corrected_splitting,
    product_fixture,
    ring_split_check,
    splitting_correction,
    verify_product_pattern,
)
from .validator import SUITE_NAMES, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
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
]
