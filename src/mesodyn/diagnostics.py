"""Conserved quantities, identities and special solutions.

Everything in here evaluates a trajectory (or a single operator) against
the structure the flow is supposed to preserve: the total energy
functional, its differential and time derivative, the conserved K K*,
the constant-H trace invariant, closed-form diagonal solutions, critical
points, and the flux-distribution postulate.

The energy's log det(K K*) is 2 sum log s over the singular values of K,
behind linalg's one full-rank floor on them.  The eigenvalues of K K* are
never formed: forming K K* squares the condition number, and its smallest
eigenvalues carry a rounding error of about eps times the largest.

Finite-difference conventions, used everywhere: directional derivatives
use a centered step of 1e-5; time derivatives use the trajectory's own
sample spacing (centered inside, one-sided at the ends, so every report
entry is finite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InsufficientSamplesError,
    MesodynError,
    NonFiniteError,
    NotDiagonalError,
    NuDoesNotDominateError,
    ShapeMismatchError,
    ZeroImageError,
)
from .fixed_domain import MAGNUS_CHUNK, Trajectory, polar_init
from .linalg import (
    DEFAULT_PD_FLOOR,
    adjoint_inverse,
    as_matrix,
    frobenius_norms,
    hermitian,
    hermitian_part,
    pairing,
    require_square,
    require_unitary,
    singular_values,
)
from .scenario import ScenarioConfig

DIRECTIONAL_STEP = 1e-5


def total_hamiltonian(k, h, b: float, pd_floor: float = DEFAULT_PD_FLOOR) -> float:
    """Total energy trace(K H K*) + B^2 log det(K K*).

    The log-determinant is 2 sum log s over the singular values s of K,
    which ``singular_values`` floors at ``pd_floor``; the sum survives
    dimension growth without overflow.  A finite K whose energy overflows
    raises NonFiniteError.
    """
    a, hm = require_square(k), hermitian(h)
    entropy = 2.0 * float(np.sum(np.log(singular_values(a, pd_floor))))
    xi = float(np.trace(a @ hm @ a.conj().T).real) + (b * b) * entropy
    if not np.isfinite(xi):
        raise NonFiniteError(f"the energy of a finite K is {xi}")
    return xi


class DifferentialCheck(NamedTuple):
    """Finite-difference directional derivative vs the flow pairing.

    rhs is the first variation 2 Re trace((K H + B^2 (K*)^-1) L*);
    rhs_symplectic is the same value written through the symplectic form,
    2 w(i (K H + B^2 (K*)^-1), L).
    """

    lhs: float
    rhs: float
    rhs_symplectic: float


def differential_check(k, h, b: float, l,
                       pd_floor: float = DEFAULT_PD_FLOOR) -> DifferentialCheck:
    """Centered difference of the total energy along L vs its exact value.

    The real directional derivative of trace(K H K*) + B^2 log det(K K*)
    along L carries a factor 2 on both terms (each appears once
    holomorphically and once anti-holomorphically).
    """
    a = require_square(k)
    direction = as_matrix(l)
    flow = a @ hermitian(h) + (b * b) * adjoint_inverse(a, pd_floor)
    riem = 2.0 * pairing(flow, direction).riemannian
    sympl = 2.0 * pairing(1j * flow, direction).symplectic
    plus = total_hamiltonian(a + DIRECTIONAL_STEP * direction, h, b, pd_floor)
    minus = total_hamiltonian(a - DIRECTIONAL_STEP * direction, h, b, pd_floor)
    lhs = (plus - minus) / (2.0 * DIRECTIONAL_STEP)
    return DifferentialCheck(lhs=lhs, rhs=riem, rhs_symplectic=sympl)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-sample invariants, one array per column, aligned with ``times``.

    trace_khk_drift is None for a time-dependent H.
    """

    times: np.ndarray
    xi: np.ndarray
    xi_rate_predicted: np.ndarray
    xi_rate_observed: np.ndarray
    kk_star_drift: np.ndarray
    unitarity_defect: np.ndarray
    trace_khk_drift: np.ndarray | None

    def max_kk_star_drift(self) -> float:
        return float(np.max(self.kk_star_drift))

    def max_trace_khk_drift(self) -> float | None:
        if self.trace_khk_drift is None:
            return None
        return float(np.max(self.trace_khk_drift))


def invariant_report(trajectory: Trajectory, cfg: ScenarioConfig) -> DiagnosticsReport:
    """Evaluate every conserved quantity along a trajectory.

    kk_star_drift is the relative Frobenius drift of K K*; the trace
    invariant is reported for constant-H scenarios only; the unitarity
    defect is that of the implied unitary factor R^-1 K with R fixed by
    the first sample.  xi_rate_predicted is
    trace(K dH/dt K*) + d(B^2)/dt log det(K0 K0*) with finite-difference
    profile derivatives (the first term is not formed for a constant H,
    where it is zero), xi_rate_observed the finite difference of xi
    itself; at interior samples both converge at second order in the
    sample spacing.

    The samples go through in (c, n, n) slices of ``trajectory.ks``,
    c = max(1, MAGNUS_CHUNK // n**2): per slice one values-only SVD of K,
    which floors every sample and gives log det(K K*) = 2 sum log s, one
    K K* for the drift and one R^-1 K.  A finite K whose K K* or R^-1 K
    overflows raises NonFiniteError.  Every value has the bits of its
    sample evaluated alone, and a slice holding a failing sample raises
    that sample's own error: the first failing sample's, in the order a
    per-sample loop checks them.
    """
    times, ks = trajectory.times, trajectory.ks
    if not len(ks):
        raise InsufficientSamplesError("empty trajectory")
    rates = len(ks) >= 2  # a time derivative needs two samples
    u, s, _ = polar_init(ks[0], cfg.pd_floor)
    radial_inv = hermitian_part((u / s) @ u.conj().T)
    h_samples = cfg.hamiltonian.samples(times)
    b_samples = np.array([cfg.field.sample(float(t)) for t in times])
    h_dot = (np.gradient(h_samples, times, axis=0)
             if rates and not cfg.hamiltonian.is_constant() else None)
    n = ks.shape[-1]
    size = max(1, MAGNUS_CHUNK // (n * n))
    electronic, entropy, h_rate, gram_drift, defect = [], [], [], [], []
    for start in range(0, len(ks), size):
        window = slice(start, start + size)
        stack = ks[window]
        adjoint = stack.conj().swapaxes(-1, -2)
        grams = stack @ adjoint
        hermitian_part(grams, out=grams)
        factors = radial_inv @ stack
        try:
            sigma = singular_values(stack, cfg.pd_floor)
            if not (np.isfinite(grams).all() and np.isfinite(factors).all()):
                raise NonFiniteError("matrix contains NaN or Inf entries")
        except MesodynError:
            for k, gram, factor in zip(stack, grams, factors):  # raise as the sample alone
                singular_values(k, cfg.pd_floor)
                as_matrix(gram)
                as_matrix(factor)
            raise
        if not start:
            gram0 = grams[0].copy()
        electronic.append(_traces(stack, h_samples[window], adjoint))
        entropy.append(2.0 * np.sum(np.log(sigma), axis=-1))
        if h_dot is not None:
            h_rate.append(_traces(stack, h_dot[window], adjoint))
        gram_drift.append(frobenius_norms(grams - gram0))
        defect.append(frobenius_norms(factors.conj().swapaxes(-1, -2) @ factors
                                      - np.eye(n)))
    electronic, entropy = np.concatenate(electronic), np.concatenate(entropy)
    xi = electronic + (b_samples * b_samples) * entropy
    if rates:
        b_dot = (np.zeros_like(b_samples) if cfg.field.kind == "constant"
                 else np.gradient(b_samples, times))
        # log det(K0 K0*) weighs d(B^2)/dt; 0.0 stands for the zero H term
        predicted = ((np.concatenate(h_rate) if h_dot is not None else 0.0)
                     + 2.0 * b_samples * b_dot * entropy[0])
        observed = np.gradient(xi, times)
    else:
        predicted, observed = np.zeros(1), np.zeros(1)
    trace0 = electronic[0]  # trace(K0 H K0*), the constant-H invariant
    trace_drift = (np.abs(electronic - trace0) / max(abs(trace0), 1e-300)
                   if cfg.hamiltonian.is_constant() else None)
    return DiagnosticsReport(
        times=times, xi=xi, xi_rate_predicted=predicted, xi_rate_observed=observed,
        kk_star_drift=np.concatenate(gram_drift) / float(np.linalg.norm(gram0)),
        unitarity_defect=np.concatenate(defect), trace_khk_drift=trace_drift)


def _traces(stack, h, adjoint) -> np.ndarray:
    """Re trace(K H K*) of each member, K from ``stack``, K* from ``adjoint``."""
    return np.trace((stack @ h) @ adjoint, axis1=-2, axis2=-1).real


@dataclass(frozen=True)
class CriticalPointSpec:
    """Data for the constrained critical point U B (nu - H)^(-1/2)."""

    nu: float
    unitary: np.ndarray
    hamiltonian: np.ndarray
    b: float


def critical_point(spec: CriticalPointSpec) -> np.ndarray:
    """Closed-form critical operator; solves K H + B^2 (K*)^-1 = nu K.

    The multiplier must strictly dominate every eigenvalue of H.  With
    H = Q diag(w) Q*, (nu - H)^(-1/2) = Q diag((nu - w)^(-1/2)) Q*.
    """
    h = hermitian(spec.hamiltonian)
    u = require_unitary(spec.unitary)
    if u.shape != h.shape:
        raise ShapeMismatchError(
            f"unitary shape {u.shape} does not match the hamiltonian's {h.shape}")
    w, q = np.linalg.eigh(h)
    if spec.nu <= float(w[-1]):
        raise NuDoesNotDominateError(
            f"nu={spec.nu} does not dominate the spectrum (max eigenvalue "
            f"{float(w[-1])})")
    inv_sqrt = hermitian_part((q / np.sqrt(spec.nu - w)) @ q.conj().T)
    return spec.b * (u @ inv_sqrt)


def special_diagonal_solution(h, b: float, r0, phi0, t: float,
                              hbar: float) -> np.ndarray:
    """Closed-form diagonal trajectory for constant diagonal H and constant B.

    Each mode keeps its radius and rotates with phase
    (E_n + B^2 / r0_n^2) t / hbar + phi0_n.
    """
    hm = require_square(h)
    off = hm - np.diag(np.diag(hm))
    scale = max(float(np.max(np.abs(hm))), 1.0)
    if float(np.max(np.abs(off))) > 1e-13 * scale:
        raise NotDiagonalError("hamiltonian must be diagonal")
    energies = np.diag(hm).real
    radii = np.asarray(r0, dtype=np.float64)
    phases0 = np.asarray(phi0, dtype=np.float64)
    if radii.shape != energies.shape or phases0.shape != energies.shape:
        raise ValueError("r0 and phi0 must have one entry per mode")
    if np.any(radii <= 0.0):
        raise ValueError("r0 entries must be positive")
    phases = (energies + (b * b) / (radii * radii)) * t / hbar + phases0
    return np.diag(radii * np.exp(1j * phases)).astype(np.complex128)


@dataclass(frozen=True)
class FluxInput:
    """Coherent state (sum of filled single-particle states) and total flux."""

    upsilon: np.ndarray
    total_flux: float


def flux_distribution(k, flux: FluxInput) -> np.ndarray:
    """Flux distribution Phi |K Y|^2, normalized so the entries sum to Phi.

    ``k`` is one operator or a (T, m, n) stack, with one distribution per
    member; each has the bits of its member evaluated alone.
    """
    a = np.asarray(k, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise ShapeMismatchError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    y = np.asarray(flux.upsilon, dtype=np.complex128).reshape(-1)
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        raise ValueError("the coherent state must be nonzero")
    if a.shape[-1] != y.shape[0]:
        raise ValueError(
            f"operator columns ({a.shape[-1]}) do not match the state "
            f"dimension ({y.shape[0]})")
    stack = a.reshape(-1, *a.shape[-2:])
    images = stack @ y
    # a (1, m) @ (m, 1) matmul per member is np.vdot(image, image), bit for bit
    weights = (images.conj()[:, None, :] @ images[:, :, None])[:, 0, 0].real
    if (weights <= (1e-15 * frobenius_norms(stack) * y_norm) ** 2).any():
        raise ZeroImageError("the operator annihilates the coherent state")
    out = flux.total_flux * (np.abs(images) ** 2) / weights[:, None]
    return out.reshape(a.shape[:-2] + out.shape[-1:])
