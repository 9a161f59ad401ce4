"""Spectral bounds for Sturm-Liouville operators on metric graphs.

The library assembles piecewise-linear finite element forms for
(1/w)(-(p f')' + q f) with Kirchhoff vertex matching, then drives two
complementary procedures: the positive-solution test for the bottom of the
spectrum and the exhaustion limit for the bottom of the essential
spectrum.  Graphs, coefficients, and exhaustions are not changed once
built.
"""

from .coeff import (
    CoefficientField,
    HypothesisReport,
    load_coefficients,
    validate_hypotheses,
)
from .eig import EigenResult, dense_reference, smallest_eigenpair, solve_pencil
from .errors import (
    CoefficientError,
    ConvergenceError,
    EvaluationError,
    ExpressionError,
    GraphFormatError,
    GraphslError,
    GraphStructureError,
    HypothesisError,
    IntegrabilityError,
    MeshError,
    SolverError,
)
from .expressions import evaluate as evaluate_expression
from .expressions import parse_expression, pretty
from .fem import AssembledForms, GraphMesh, assemble, build_mesh, kirchhoff_residual
from .graph import Edge, Exhaustion, MetricGraph, build_exhaustion, load_graph
from .spectral import (
    APResult,
    PerssonTrace,
    PositiveSolutionCert,
    SobolevEstimate,
    SpectralReport,
    ap_check,
    inf_spectrum,
    persson_limit,
    positive_solution,
    sobolev_constant,
)

__version__ = "0.1.0"

__all__ = [
    "APResult",
    "AssembledForms",
    "CoefficientError",
    "CoefficientField",
    "ConvergenceError",
    "Edge",
    "EigenResult",
    "EvaluationError",
    "Exhaustion",
    "ExpressionError",
    "GraphFormatError",
    "GraphMesh",
    "GraphStructureError",
    "GraphslError",
    "HypothesisError",
    "HypothesisReport",
    "IntegrabilityError",
    "MeshError",
    "MetricGraph",
    "PerssonTrace",
    "PositiveSolutionCert",
    "SobolevEstimate",
    "SolverError",
    "SpectralReport",
    "ap_check",
    "assemble",
    "build_exhaustion",
    "build_mesh",
    "dense_reference",
    "evaluate_expression",
    "inf_spectrum",
    "kirchhoff_residual",
    "load_coefficients",
    "load_graph",
    "parse_expression",
    "persson_limit",
    "positive_solution",
    "pretty",
    "smallest_eigenpair",
    "sobolev_constant",
    "solve_pencil",
    "validate_hypotheses",
]
