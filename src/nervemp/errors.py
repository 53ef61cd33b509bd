"""Exception types shared across the package.

The base of an error fixes the command-line exit code: an `InvalidInput`
exits 2, a `NumericalFailure` exits 3, and a bare `NerveMPError` exits 4.
"""


class NerveMPError(Exception):
    """Base class for all package errors."""


class InvalidInput(NerveMPError):
    """The input breaks a rule of the package (exit code 2)."""


class NumericalFailure(NerveMPError):
    """The input admits no numerical answer (exit code 3).  `edge` is the
    tree edge whose message was being formed, if any."""

    edge = None

    def at(self, where: str, edge=None) -> "NumericalFailure":
        """The same failure, with `where: ` in front of its message, its
        attributes kept and `edge` set."""
        located = type(self)(f"{where}: {self}")
        located.__dict__.update(self.__dict__, edge=edge)
        return located


class InvalidInstance(InvalidInput):
    """An instance file or constructed object violates a structural invariant."""


class DisconnectedNerve(InvalidInput):
    """The nerve skeleton is not connected, so no spanning tree exists."""


class DimensionMismatch(InvalidInput):
    """An assignment or matrix has the wrong dimension."""


class MissingVariable(InvalidInput):
    """A required variable is absent from a variable set."""


class UnknownVariable(InvalidInput):
    """A referenced variable is not part of the function's variable set."""


class InfeasibleStats(InvalidInput):
    """No cover realizes the requested per-subgraph statistics."""


class UnboundedBelow(NumericalFailure):
    """The minimum is -inf along a kernel or negative direction of the quadratic.

    `block_size` and `min_eig` describe the eliminated block that showed it.
    """

    def __init__(self, message, edge=None, block_size=None, min_eig=None):
        super().__init__(message)
        self.edge = edge
        self.block_size = block_size
        self.min_eig = min_eig


class NonUniqueArgmin(NumericalFailure):
    """An elimination block was singular; eliminated values are not unique."""


class IllDefinedTask(NumericalFailure):
    """The task is not constant on the constrained minimizer set."""


class InnerOptimizationFailed(NumericalFailure):
    """An inner minimization did not converge within its budget."""


class SingularFit(NumericalFailure):
    """A surrogate fit failed: rank-deficient beyond ridge rescue, diverged
    in training at the full step and again at half of it, or fitted a
    quadratic that is not convex."""
