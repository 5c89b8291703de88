"""Exception hierarchy for bathkit.

All library errors derive from :class:`BathkitError` so that callers (and the
command line front end) can distinguish numerical failures from programming
errors.
"""

__all__ = [
    "BathkitError",
    "InvalidInputError",
    "PoleError",
    "DivergenceError",
    "AccuracyError",
    "DegeneratePoleError",
    "ConvergenceError",
    "UnsupportedOrderError",
    "RangeError",
]


class BathkitError(Exception):
    """Base class for all bathkit errors."""


class InvalidInputError(BathkitError, ValueError):
    """An argument violates a documented precondition."""


class PoleError(BathkitError):
    """A special function was evaluated exactly at one of its poles."""


class DivergenceError(BathkitError):
    """The requested integral does not exist (non-integrable integrand)."""


class AccuracyError(BathkitError):
    """An adaptive scheme failed to reach the requested tolerance.

    The best error bound actually achieved is carried in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegeneratePoleError(BathkitError):
    """A statistics-function pole coincides with a spectral-density pole.

    In a Lorentzian series that happens exactly when a term has
    omega_tilde = 0 and gamma equals an approximant rate xi_k (within 1e-12
    relative): its pole -i*gamma is then the approximant's pole -i*xi_k.
    """


class ConvergenceError(BathkitError):
    """An iterative refinement loop hit its cap before reaching tolerance.

    ``best_error`` records the smallest error seen; ``best_result`` the
    corresponding object (may be ``None``).
    """

    def __init__(self, message, best_error=None, best_result=None):
        super().__init__(message)
        self.best_error = best_error
        self.best_result = best_result


class UnsupportedOrderError(BathkitError):
    """A special-function order outside the implemented domain (e.g. a
    fractional polygamma order)."""


class RangeError(BathkitError, OverflowError):
    """A result, or a value needed on the way to it, lies beyond the range
    of floating-point numbers (e.g. alpha(t) of a very steep power law)."""
