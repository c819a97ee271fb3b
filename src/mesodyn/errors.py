"""Exception hierarchy and warnings shared across the package."""

from __future__ import annotations


class MesodynError(Exception):
    """Base class for all package errors: the command line exits with
    ``exit_code`` and prefixes its stderr line with ``label``."""

    exit_code, label = 1, ""


class _EvolutionStop(MesodynError):
    """An error that may stop an integration part way.

    For mid-flight failures of the direct integrator, ``last_good_time``
    holds the last completed step time and ``partial`` the samples emitted
    before the failure: the prefix of ``rk4``'s output array, which the
    direct solver turns into a Trajectory on its output grid.
    """

    def __init__(self, message, last_good_time=None, partial=None):
        super().__init__(message)
        self.last_good_time = last_good_time
        self.partial = partial

    def __reduce__(self):
        # pickled (out of verify's worker process) without the partial samples
        return type(self), (str(self),), dict(vars(self), partial=None)


class NonFiniteError(_EvolutionStop):
    """A matrix or scalar contains NaN or Inf entries."""


class NonSquareError(MesodynError):
    """An operation requiring a square matrix received a rectangular one."""


class ShapeMismatchError(MesodynError):
    """Operands have incompatible shapes."""


class NearSingularError(_EvolutionStop):
    """A conditioning floor was crossed (det K -> 0 regime)."""

    exit_code, label = 4, "near-singular"


class OutOfDomainError(MesodynError):
    """A time profile was sampled outside its domain."""


class RequiresConstantCoefficientsError(MesodynError):
    """The power-series solver needs constant Hamiltonian and field profiles."""

    exit_code, label = 6, "solver precondition not met"


class TruncationDominatesError(MesodynError):
    """The truncated series' first omitted term exceeds the accuracy budget."""

    exit_code, label = 6, "solver precondition not met"


class NotOrthonormalError(MesodynError):
    """Frame columns are not orthonormal within tolerance."""


class RankDeficientError(MesodynError):
    """An extended operator does not have the expected rank."""


class NotHermitianGaugeError(MesodynError):
    """A gauge function sample is not Hermitian."""


class NuDoesNotDominateError(MesodynError):
    """The critical-point multiplier does not dominate the Hamiltonian spectrum."""


class NotDiagonalError(MesodynError):
    """The closed-form diagonal solution needs a diagonal Hamiltonian."""


class ZeroImageError(MesodynError):
    """The operator annihilates the coherent state."""


class InsufficientSamplesError(MesodynError):
    """Too few trajectory samples for a finite-difference evaluation."""


class ConfigInvalidError(MesodynError):
    """A scenario file failed to parse or validate.

    ``report`` carries the ValidationReport when validation produced one.
    """

    exit_code, label = 3, "invalid config"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UsageError(MesodynError):
    """Command line could not be parsed."""

    exit_code = 2


class ConvergenceWarning(UserWarning):
    """The series evaluation is outside its comfortable convergence radius."""
