"""Exception hierarchy and warnings shared across the package."""

from __future__ import annotations


class MesodynError(Exception):
    """Base class for all package errors."""


class _EvolutionStop(MesodynError):
    """An error that may stop an integration part way.

    For mid-flight failures of the direct integrator, ``last_good_time``
    holds the last completed step time and ``partial`` the samples emitted
    before the failure: the list of states from ``rk4``, which the direct
    solver turns into a Trajectory on its output grid.
    """

    def __init__(self, message, last_good_time=None, partial=None):
        super().__init__(message)
        self.last_good_time = last_good_time
        self.partial = partial


class NonFiniteError(_EvolutionStop):
    """A matrix or scalar contains NaN or Inf entries."""


class NonSquareError(MesodynError):
    """An operation requiring a square matrix received a rectangular one."""


class ShapeMismatchError(MesodynError):
    """Operands have incompatible shapes."""


class NearSingularError(_EvolutionStop):
    """A conditioning floor was crossed (det K -> 0 regime)."""


class OutOfDomainError(MesodynError):
    """A time profile was sampled outside its domain."""


class RequiresConstantCoefficientsError(MesodynError):
    """The power-series solver needs constant Hamiltonian and field profiles."""


class TruncationDominatesError(MesodynError):
    """The truncated series' first omitted term exceeds the accuracy budget."""


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

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UsageError(MesodynError):
    """Command line could not be parsed."""


class ConvergenceWarning(UserWarning):
    """The series evaluation is outside its comfortable convergence radius."""


class OffGridKnotWarning(UserWarning):
    """A Hamiltonian knot lies strictly inside a step of the time grid."""
