"""Exception hierarchy shared by all lcft modules."""


class LcftError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LcftError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(LcftError):
    """Evaluation requested exactly at a pole of the function."""


class BudgetExceeded(LcftError):
    """An iteration/shift budget was exhausted before convergence."""


class NearPole(LcftError):
    """A structure-constant argument is within the proximity threshold of a pole."""


class DegenerateWeight(LcftError):
    """A Gram matrix is numerically singular (weight near a Kac zero)."""


class DimensionMismatch(LcftError):
    """Vector lengths (p, q, alpha, ...) are inconsistent with each other."""


class GraphInvalid(LcftError):
    """A multigraph violates the structural rules for pants decompositions."""


class ValidationError(LcftError):
    """Input validation failed (bounds, positivity, ordering constraints)."""


class CostGuard(LcftError):
    """The requested computation exceeds the configured evaluation budget."""


class SingularPoint(LcftError):
    """Evaluation exactly on a lattice point / singular locus."""
