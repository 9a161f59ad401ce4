import graphsl

# the public surface: a name added to or dropped from graphsl.__all__ must change this list too
PUBLIC = [
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


def test_every_exported_name_resolves_once():
    assert len(graphsl.__all__) == len(set(graphsl.__all__))
    assert [name for name in graphsl.__all__ if not hasattr(graphsl, name)] == []


def test_the_exported_names_are_the_pinned_list():
    assert graphsl.__all__ == PUBLIC
