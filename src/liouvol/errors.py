"""Exception hierarchy.

InputError subclasses signal bad user input (CLI exit code 1);
ContractError subclasses signal a numerical contract that failed to hold
(CLI exit code 2).
"""


class LiouvolError(Exception):
    pass


class InputError(LiouvolError):
    pass


class DomainError(InputError):
    """Argument outside the validity region of a map or operation."""


class ContractError(LiouvolError):
    pass


class SingularDerivative(ContractError):
    """|f'| at or below series.DERIVATIVE_FLOOR times its largest value."""


class NonConvergence(ContractError):
    """Boundary-correspondence iteration stalled."""

    def __init__(self, iterations, residual, message=""):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            message or f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class CorrespondenceError(ContractError):
    """Nearest-boundary-point match exceeded tolerance."""


class DivergenceSuspected(ContractError):
    """Quadrature refinements keep moving; integrand may not be integrable."""


class CapTopologyError(ContractError):
    """Height-level clip curves do not assemble into closed loops."""


class NoConvergence(ContractError):
    """Successive extrapolants diverge."""


class DeformationError(ContractError):
    """Deformed curve is no longer simple."""


class RefitError(ContractError):
    """Series refit residual above tolerance."""


class Stalled(ContractError):
    """No decreasing step found down to the minimum step size."""
