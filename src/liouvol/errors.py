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
    """An iteration stalled, a fit failed its certificate, or successive
    extrapolants diverged."""


class CorrespondenceError(ContractError):
    """A welding mismatch: g misses f's boundary point beyond tolerance."""


class DivergenceSuspected(ContractError):
    """The two envelope sheets' areas do not cancel: the rays of volume()
    do not resolve the maps."""


class CapTopologyError(ContractError):
    """Height-level clip curves do not assemble into closed loops."""


class DeformationError(ContractError):
    """The moved curve or refit of a flow trial is not star shaped."""


class RefitError(ContractError):
    """Series refit residual above tolerance."""


class Stalled(ContractError):
    """No decreasing step found down to the minimum step size."""
