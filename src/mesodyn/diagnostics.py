"""Conserved quantities, identities and special solutions.

Everything in here evaluates a trajectory (or a single operator) against
the structure the flow is supposed to preserve: the total energy
functional, its differential and time derivative, the conserved K K*,
the constant-H trace invariant, closed-form diagonal solutions, critical
points, and the flux-distribution postulate.

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
    NearSingularError,
    NotDiagonalError,
    NuDoesNotDominateError,
    ShapeMismatchError,
    ZeroImageError,
)
from .fixed_domain import Trajectory, polar_init
from .linalg import (
    DEFAULT_PD_FLOOR,
    adjoint_inverse,
    as_matrix,
    below_floor,
    hermitian,
    hermitian_part,
    pairing,
    require_square,
    require_unitary,
    unitary_defect,
)
from .scenario import ScenarioConfig

DIRECTIONAL_STEP = 1e-5


def total_hamiltonian(k, h, b: float, pd_floor: float = DEFAULT_PD_FLOOR) -> float:
    """Total energy trace(K H K*) + B^2 log det(K K*).

    The log-determinant is evaluated as the sum of eigenvalue logs of
    K K*, which survives dimension growth without overflow.
    """
    electronic, entropy = _energy_terms(k, h, pd_floor)
    return electronic + (b * b) * entropy


def _energy_terms(k, h, pd_floor: float) -> tuple[float, float]:
    """(trace(K H K*), log det(K K*)) from one eigvalsh of K K*."""
    a = require_square(k)
    hm = hermitian(h)
    gram = hermitian_part(a @ a.conj().T)
    w = np.linalg.eigvalsh(gram)
    if below_floor(float(w[0]), float(w[-1]), pd_floor * pd_floor):
        raise NearSingularError(
            f"K K* eigenvalue ratio {float(w[0]):.3e}/{float(w[-1]):.3e} "
            f"crosses the floor")
    return float(np.trace(a @ hm @ a.conj().T).real), float(np.sum(np.log(w)))


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
class DiagnosticsRecord:
    """Per-sample invariants; trace_khk_drift is None for time-dependent H."""

    t: float
    xi: float
    xi_rate_predicted: float
    xi_rate_observed: float
    kk_star_drift: float
    trace_khk_drift: float | None
    unitarity_defect: float


@dataclass(frozen=True)
class DiagnosticsReport:
    records: tuple

    def max_kk_star_drift(self) -> float:
        return max(r.kk_star_drift for r in self.records)

    def max_trace_khk_drift(self) -> float | None:
        values = [r.trace_khk_drift for r in self.records
                  if r.trace_khk_drift is not None]
        return max(values) if values else None


def invariant_report(trajectory: Trajectory, cfg: ScenarioConfig) -> DiagnosticsReport:
    """Evaluate every conserved quantity along a trajectory.

    kk_star_drift is the relative Frobenius drift of K K*; the trace
    invariant is reported for constant-H scenarios only; the unitarity
    defect is that of the implied unitary factor R^-1 K with R fixed by
    the first sample.  xi_rate_predicted is
    trace(K dH/dt K*) + d(B^2)/dt log det(K0 K0*) with finite-difference
    profile derivatives, xi_rate_observed the finite difference of xi
    itself; at interior samples both converge at second order in the
    sample spacing.
    """
    if not trajectory.states:
        raise InsufficientSamplesError("empty trajectory")
    times = trajectory.times
    ks = [s.k for s in trajectory.states]
    gram0 = hermitian_part(ks[0] @ ks[0].conj().T)
    gram0_norm = float(np.linalg.norm(gram0))
    radial_inv = polar_init(ks[0], cfg.pd_floor).radial_inv
    constant_h = cfg.hamiltonian.is_constant()
    h_samples = np.array([cfg.hamiltonian.sample(float(t)) for t in times])
    b_samples = np.array([cfg.field.sample(float(t)) for t in times])
    terms = [_energy_terms(k, h_samples[i], cfg.pd_floor) for i, k in enumerate(ks)]
    xi = np.array([electronic + (b * b) * entropy
                   for (electronic, entropy), b in zip(terms, map(float, b_samples))])
    trace0 = terms[0][0]  # trace(K0 H K0*), the constant-H invariant
    if len(ks) >= 2:
        logdet_r2 = terms[0][1]  # log det(K0 K0*), from sample 0's eigenvalues
        if constant_h:
            h_dot = np.zeros_like(h_samples)
        else:
            h_dot = np.gradient(h_samples, times, axis=0)
        if cfg.field.kind == "constant":
            b_dot = np.zeros_like(b_samples)
        else:
            b_dot = np.gradient(b_samples, times)
        predicted = np.array([
            float(np.trace(ks[i] @ h_dot[i] @ ks[i].conj().T).real)
            + 2.0 * float(b_samples[i]) * float(b_dot[i]) * logdet_r2
            for i in range(len(ks))
        ])
        observed = np.gradient(xi, times)
    else:
        predicted, observed = np.zeros(1), np.zeros(1)

    records = []
    for i, k in enumerate(ks):
        gram = hermitian_part(k @ k.conj().T)
        kk_drift = float(np.linalg.norm(gram - gram0)) / gram0_norm
        defect = unitary_defect(radial_inv @ k)
        trace_drift = (abs(terms[i][0] - trace0) / max(abs(trace0), 1e-300)
                       if constant_h else None)
        records.append(DiagnosticsRecord(
            t=float(times[i]), xi=float(xi[i]),
            xi_rate_predicted=float(predicted[i]),
            xi_rate_observed=float(observed[i]),
            kk_star_drift=kk_drift, trace_khk_drift=trace_drift,
            unitarity_defect=defect))
    return DiagnosticsReport(records=tuple(records))


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
    """Flux distribution Phi |K Y|^2, normalized so the entries sum to Phi."""
    a = as_matrix(k)
    y = np.asarray(flux.upsilon, dtype=np.complex128).reshape(-1)
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        raise ValueError("the coherent state must be nonzero")
    if a.shape[1] != y.shape[0]:
        raise ValueError(
            f"operator columns ({a.shape[1]}) do not match the state "
            f"dimension ({y.shape[0]})")
    image = a @ y
    weight = float(np.vdot(image, image).real)
    if weight <= (1e-15 * float(np.linalg.norm(a)) * y_norm) ** 2:
        raise ZeroImageError("the operator annihilates the coherent state")
    return flux.total_flux * (np.abs(image) ** 2) / weight
