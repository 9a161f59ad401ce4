"""Exception hierarchy for graphsl.

Every error raised on purpose by the library derives from GraphslError so
callers (and the CLI) can separate expected failure modes from bugs.
"""


class GraphslError(Exception):
    """Base class for all library errors."""


class GraphFormatError(GraphslError):
    """Graph description is malformed (bad JSON, unknown keys, bad ids)."""


class GraphStructureError(GraphslError):
    """Graph violates a structural requirement (disconnected, bad length)."""


class ExpressionError(GraphslError):
    """Coefficient expression failed to parse.

    Attributes
    ----------
    offset : int
        Byte offset into the source string where parsing failed.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(GraphslError):
    """Coefficient expression hit a pole or invalid operation at evaluation."""


class CoefficientError(GraphslError):
    """Coefficient document is malformed or violates a sign constraint."""


class IntegrabilityError(GraphslError):
    """An edge integral produced a nonfinite value."""


class MeshError(GraphslError):
    """Mesh construction or a piece cut failed (empty selection, bad h, edge outside the mesh, no dof left)."""


class SolverError(GraphslError):
    """A linear or eigenvalue solve failed structurally."""


class ConvergenceError(SolverError):
    """Iterative eigensolve did not reach the requested residual."""


class HypothesisError(GraphslError):
    """A computation was blocked by a failed hypothesis check."""
