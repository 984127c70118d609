"""Exception types shared across the package.

``StructuralSetError`` covers both a vertex set that is not structural and
a structural set whose stored layering does not belong to the graph it is
swept over.
"""


class IsoreduceError(Exception):
    """Base class for all package errors."""


class GraphFormatError(IsoreduceError):
    """A graph, delta, or state file could not be parsed."""


class StructuralSetError(IsoreduceError):
    """A vertex set failed structural validation.

    Carries the failure witness: either a non-loop cycle avoiding the set,
    or a complement vertex whose loop weight equals the spectral parameter.
    A layering refused by the depth sweep, one built for another graph,
    carries neither.
    """

    def __init__(self, message, *, cycle=None, vertex=None):
        super().__init__(message)
        self.cycle = cycle
        self.vertex = vertex


class SingularWeightError(IsoreduceError):
    """A branch weight denominator fell within tolerance of zero."""


class NotPrimitiveError(IsoreduceError):
    """A matrix required to be primitive is not."""


class NonStochasticError(IsoreduceError):
    """An operation restricted to stochastic graphs got a non-stochastic one."""


class DegenerateRestrictionError(IsoreduceError):
    """An eigenvector restricts to (numerically) zero on the structural set."""


class DeltaError(IsoreduceError):
    """A graph delta was rejected; the stored state is unchanged."""


class SimulationError(IsoreduceError):
    """A chain simulation got stuck before reaching the target set."""


class AmbiguousStationaryError(IsoreduceError):
    """The chain is reducible, so the stationary distribution is not unique."""


class GenerationError(IsoreduceError):
    """Random graph generation exhausted its retry budget."""
