"""Exception types shared across the package."""


class NerveMPError(Exception):
    """Base class for all package errors."""


class InvalidInstance(NerveMPError):
    """An instance file or constructed object violates a structural invariant."""


class DisconnectedNerve(NerveMPError):
    """The nerve skeleton is not connected, so no spanning tree exists."""


class DimensionMismatch(NerveMPError):
    """An assignment or matrix has the wrong dimension."""


class MissingVariable(NerveMPError):
    """A required variable is absent from a variable set."""


class UnknownVariable(NerveMPError):
    """A referenced variable is not part of the function's variable set."""


class UnboundedBelow(NerveMPError):
    """The minimum is -inf along a kernel or negative direction of the quadratic.

    `block_size` and `min_eig` describe the eliminated block that showed it;
    `edge` is the tree edge whose message was being formed, if any.
    """

    def __init__(self, message, edge=None, block_size=None, min_eig=None):
        super().__init__(message)
        self.edge = edge
        self.block_size = block_size
        self.min_eig = min_eig


class NonUniqueArgmin(NerveMPError):
    """An elimination block was singular; eliminated values are not unique."""


class IllDefinedTask(NerveMPError):
    """The task is not constant on the constrained minimizer set."""


class InnerOptimizationFailed(NerveMPError):
    """An inner minimization did not converge within its budget."""


class SingularFit(NerveMPError):
    """A surrogate fit was rank-deficient beyond ridge rescue."""


class InfeasibleStats(NerveMPError):
    """No cover realizes the requested per-subgraph statistics."""
