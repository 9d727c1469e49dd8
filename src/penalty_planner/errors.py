"""Exception hierarchy for the planner library.

Domain failures derive from PlannerError so callers (and the CLI) can
distinguish them from programming errors.
"""

from __future__ import annotations


class PlannerError(Exception):
    """Base class for all domain-level failures."""


class GraphStructureError(PlannerError):
    """Graph violates a structural requirement (e.g. cycle where a DAG is needed)."""


class NoPathError(PlannerError):
    """Target is unreachable from the source."""


class UnknownEdgeError(PlannerError):
    """Referenced edge does not exist in the graph."""


class InvalidPathError(PlannerError):
    """Node sequence is not a source-to-target path of the graph."""


class BudgetExceededError(PlannerError):
    """Exhaustive search refused: instance exceeds the configured budget."""


class DisconnectedError(PlannerError):
    """Kept edge set does not connect source to target."""


class BiasOutOfRangeError(PlannerError):
    """Present-bias parameter outside its valid range."""


class EpsilonTooLargeError(PlannerError):
    """Margin parameter violates the bound required by the construction."""


class ParameterOutOfRangeError(PlannerError):
    """Generator parameter outside its documented domain."""


class IncompleteAssignmentError(PlannerError):
    """Truth assignment does not cover every variable."""


class NoWalkError(PlannerError):
    """Agent abandons, so no complete walk exists to read an assignment from."""


class InternalVerificationError(PlannerError):
    """A construction failed its built-in guarantee check; indicates a bug."""


class CnfError(PlannerError):
    """Malformed CNF formula or DIMACS input."""


class InstanceSyntaxError(PlannerError):
    """Instance file is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(PlannerError):
    """Instance file is valid JSON but violates the schema."""


class ValidationError(PlannerError):
    """Parsed graph violates task-graph invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))
