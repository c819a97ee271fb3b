"""Solutions whose domain frame evolves inside an ambient space.

The dense domain of the (formally unbounded) ambient Hamiltonian is
modeled by a finite ambient dimension M; the operator keeps a fixed
rank-N image spanned by phi0 while the domain frame psi(t) evolves by
the one-particle Schroedinger propagator.  The frame is carried as its
bras psi(t)*, which solve i*hbar d<psi|/dt = -<psi| H: the Schroedinger
factor W of the fixed domain, multiplied from the right.  Frame and
gauge propagators are ``unitary_propagator``'s, exact for a constant
generator, fourth-order Magnus products for a time-dependent one.

The assembled operator is K(t) = phi0 . A'(t) . psi(t)*, with the
coefficient matrix driven purely by the magnetic term:

    A'(t) = sqrt(A0 A0*) . exp((i/hbar) Int B^2 (A0 A0*)^-1 dt') . polar_unitary(A0)

This is the factorized fixed-domain solution with H = 0, formed as that is
in A0's singular basis: with A0 = U diag(s) V* and the magnetic phases
v_j(t) = exp(i Int B^2 dt' / (hbar s_j^2)), A'(t) = U . diag(s v(t)) . V*.
The trailing polar-unitary factor U V* preserves A'(0) = A0 for arbitrary
full-rank A0; the ``literal`` flag drops it, giving U . diag(s v(t)) . U*,
which is only correct for positive-definite A0.  So K(t) is
(phi0 U) diag(s v(t)) W(t) with W(0) = V* psi0*, assembled by
``fixed_domain.factorized_samples`` as the fixed-domain solution is;
``moving_solution`` returns it as a ``Trajectory`` tagged "moving".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamplesError,
    NotHermitianGaugeError,
    NotOrthonormalError,
    RankDeficientError,
    ShapeMismatchError,
)
from .fixed_domain import (MAGNUS_CHUNK, Trajectory, factorized_samples, magnetic_factor,
                           polar_init, rk4, rk4_stages, unitary_propagator)
from .linalg import (
    DEFAULT_PD_FLOOR,
    adjoint_inverse,
    as_matrix,
    below_floor,
    frobenius_norms,
    hermitian_excess,
    hermitian_part,
    svd_pseudo_inverse,
    unitary_defect,
)
from .scenario import FieldProfile, HamiltonianProfile, step_plan

FRAME_ORTHONORMAL_TOL = 1e-10
_GAUGE_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class AmbientSpace:
    """Finite proxy for the two ambient Hilbert spaces.

    dim_h1 is the ambient domain dimension M, dim_h2 the ambient image
    dimension, n the rank of the operator, and ambient_hamiltonian the
    positive-definite profile acting on the domain space.
    """

    dim_h1: int
    dim_h2: int
    n: int
    ambient_hamiltonian: HamiltonianProfile

    def check(self) -> None:
        if self.n < 1 or self.dim_h1 < self.n or self.dim_h2 < self.n:
            raise ShapeMismatchError(
                f"need 1 <= n <= min(dim_h1, dim_h2), got n={self.n}, "
                f"dim_h1={self.dim_h1}, dim_h2={self.dim_h2}")
        if self.ambient_hamiltonian.dim != self.dim_h1:
            raise ShapeMismatchError(
                f"ambient hamiltonian dimension {self.ambient_hamiltonian.dim} "
                f"!= dim_h1 {self.dim_h1}")


def require_orthonormal_columns(m) -> np.ndarray:
    a = as_matrix(m)
    defect = unitary_defect(a)
    if defect > FRAME_ORTHONORMAL_TOL:
        raise NotOrthonormalError(
            f"columns are not orthonormal: ||psi* psi - I||_F = {defect:.3e}")
    return a


def coefficient_matrix_evolution(a0, field: FieldProfile, hbar: float, times,
                                 pd_floor: float = DEFAULT_PD_FLOOR,
                                 literal: bool = False) -> list:
    """Closed-form coefficient matrix A'(t), one per requested time.

    Satisfies i*hbar dA'/dt = -B^2 (A'*)^-1 with A'(0) = a0 and keeps
    A'(t) A'(t)* = a0 a0* for all t.  With ``literal=True`` the polar
    unitary of a0 is dropped (the printed closed form), which changes the
    initial value unless a0 is positive definite.
    """
    u, s, vh = polar_init(a0, pd_floor)
    right = u.conj().T if literal else vh
    return [(u * (s * v)) @ right for v in magnetic_factor(s, field, hbar, times)]


def _image_and_coefficients(space: AmbientSpace, psi0, phi0, a0):
    """The checked domain frame (dim_h1 x n), image basis (dim_h2 x n) and
    coefficient matrix (n x n)."""
    space.check()
    frame = require_orthonormal_columns(psi0)
    if frame.shape != (space.dim_h1, space.n):
        raise ShapeMismatchError(
            f"psi0 must be {space.dim_h1} x {space.n}, got {frame.shape}")
    image = require_orthonormal_columns(phi0)
    if image.shape != (space.dim_h2, space.n):
        raise ShapeMismatchError(
            f"phi0 must be {space.dim_h2} x {space.n}, got {image.shape}")
    a = as_matrix(a0)
    if a.shape != (space.n, space.n):
        raise ShapeMismatchError(f"a0 must be {space.n} x {space.n}, got {a.shape}")
    return frame, image, a


def moving_solution(space: AmbientSpace, psi0, phi0, a0, field: FieldProfile,
                    hbar: float, t_end: float, dt: float, output_stride: int = 1,
                    pd_floor: float = DEFAULT_PD_FLOOR,
                    literal: bool = False) -> Trajectory:
    """The extended operator K(t) = phi0 . A'(t) . psi(t)*, tagged "moving".

    The inputs are checked and a0's SVD taken (rejecting a singular a0)
    before the frame evolves.  The image of every sample is span(phi0)
    and the rank is exactly n.
    """
    frame, image, a0 = _image_and_coefficients(space, psi0, phi0, a0)
    u, s, vh = polar_init(a0, pd_floor)
    right = u.conj().T if literal else vh
    plan = step_plan(t_end, dt, output_stride, space.ambient_hamiltonian.times + field.times)
    return Trajectory(plan.output_times, factorized_samples(
        image @ u, s, right @ frame.conj().T, space.ambient_hamiltonian, field, hbar,
        plan), "moving")


def image_projector(k, pd_floor: float = DEFAULT_PD_FLOOR) -> np.ndarray:
    """Orthogonal projector onto the image of K (rank from the floor)."""
    u, s, _ = np.linalg.svd(as_matrix(k), full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((k.shape[0], k.shape[0]), dtype=np.complex128)
    return _image_projectors(u[None], s[None], pd_floor)[0]


def _image_projectors(u, s, pd_floor: float) -> np.ndarray:
    """``image_projector`` of each member of a stack, from its thin SVD (u, s)."""
    keep = ~below_floor(s, s[:, :1], pd_floor)
    if (keep == keep[0]).all():  # one rank for the whole stack: one stacked product
        cols = u[:, :, keep[0]]
        return cols @ cols.conj().swapaxes(-1, -2)
    return np.stack([c @ c.conj().T for c in (m[:, kept] for m, kept in zip(u, keep))])


def _svd_chunks(ks):
    """(start, stack, u, s, vh) per chunk of samples, from one stacked thin SVD.

    A chunk holds max(1, MAGNUS_CHUNK // (rows * cols)) samples, and each
    member's factors have the bits of its own ``np.linalg.svd``.
    """
    rows, cols = ks[0].shape
    size = max(1, MAGNUS_CHUNK // (rows * cols))
    for start in range(0, len(ks), size):
        stack = np.stack(ks[start:start + size])
        yield (start, stack, *np.linalg.svd(stack, full_matrices=False))


def moving_drift(trajectory: Trajectory, pd_floor: float = DEFAULT_PD_FLOOR) -> tuple:
    """(image_drifts, radial_drifts) per sample, relative to the first.

    image_drift is ||P(t) - P(0)||_F for the image projectors, radial_drift
    is ||K K*(t) - K K*(0)||_F; both vanish for an exact moving solution.
    """
    image, radial, _ = _moving_columns(trajectory, pd_floor, drifts=True)
    return image, radial


def weak_residual(trajectory: Trajectory, space: AmbientSpace, field: FieldProfile,
                  hbar: float, pd_floor: float = DEFAULT_PD_FLOOR) -> list:
    """Residual of the defining equation tested on the ambient basis.

    For each interior sample, dK/dt is the centered difference and
    (K*)^-1 the zero-extended pseudo-inverse at rank n; the value is max
    over ambient basis vectors of the residual column norm, one per time
    in ``trajectory.times[1:-1]``.  For assembled solutions this decays at
    second order in the sample spacing.
    """
    ks = trajectory.ks
    if len(ks) < 3:
        raise InsufficientSamplesError(
            f"need >= 3 samples for centered differences, got {len(ks)}")
    space.check()
    return _moving_columns(trajectory, pd_floor, drifts=False,
                           residual=(space, field, hbar))[2]


def moving_report(trajectory: Trajectory, space: AmbientSpace, field: FieldProfile,
                  hbar: float, pd_floor: float = DEFAULT_PD_FLOOR) -> tuple:
    """(weak_residuals, image_drifts, radial_drifts), one entry each per sample.

    ``moving_drift`` and ``weak_residual`` in one pass, each sample's SVD
    serving both.  The weak residual exists at interior samples only: it is
    None at the two ends, and at every sample of a trajectory shorter than 3.
    """
    if len(trajectory.ks) < 3:
        image, radial = moving_drift(trajectory, pd_floor)
        return [None] * len(image), image, radial
    space.check()
    image, radial, interior = _moving_columns(trajectory, pd_floor, drifts=True,
                                              residual=(space, field, hbar))
    return [None, *interior, None], image, radial


def _moving_columns(trajectory: Trajectory, pd_floor: float, drifts: bool,
                    residual: tuple | None = None) -> tuple:
    """(image_drifts, radial_drifts, weak_residuals) from one stacked SVD per chunk.

    The drifts are formed when ``drifts`` is set, the interior samples' weak
    residuals when ``residual`` holds (space, field, hbar); each value has
    the bits of its sample evaluated alone, and a rank-deficient interior
    sample raises for the first one.
    """
    ks = trajectory.ks
    image, radial, residuals = [], [], []
    for start, stack, u, s, vh in _svd_chunks(ks):
        if drifts:
            projectors = _image_projectors(u, s, pd_floor)
            grams = stack @ stack.conj().swapaxes(-1, -2)
            if not start:
                p0, gram0 = projectors[0].copy(), grams[0].copy()
            image += frobenius_norms(projectors - p0).tolist()
            radial += frobenius_norms(grams - gram0).tolist()
        if residual is not None:
            lo, hi = max(start, 1), min(start + len(stack), len(ks) - 1)
            if lo < hi:
                inner = slice(lo - start, hi - start)
                residuals += _weak_residuals(trajectory, lo, hi, stack[inner],
                                             (u[inner], s[inner], vh[inner]),
                                             *residual, pd_floor)
    return image, radial, residuals


def _weak_residuals(trajectory: Trajectory, lo: int, hi: int, stack, svd,
                    space: AmbientSpace, field: FieldProfile, hbar: float,
                    pd_floor: float) -> list:
    """``weak_residual`` at the interior samples lo..hi-1, whose K form ``stack``."""
    ks, times = trajectory.ks, trajectory.times
    pinv, ranks = svd_pseudo_inverse(*svd, pd_floor)
    deficient = np.flatnonzero(ranks != space.n)
    if deficient.size:
        j = int(deficient[0])
        raise RankDeficientError(f"sample at t={float(times[lo + j])} has rank "
                                 f"{int(ranks[j])}, expected {space.n}")
    spans = times[lo + 1:hi + 1] - times[lo - 1:hi - 1]
    kdot = (np.stack(ks[lo + 1:hi + 1]) - np.stack(ks[lo - 1:hi - 1])) / spans[:, None, None]
    b = np.array([field.sample(t) for t in times[lo:hi].tolist()])
    out = (1j * hbar * kdot + stack @ space.ambient_hamiltonian.samples(times[lo:hi])
           + (b * b)[:, None, None] * pinv)
    return np.max(np.linalg.norm(out, axis=-2), axis=-1).tolist()


def _as_gauge(c, n: int):
    """A gauge spec as a propagator's generator, checked n x n and Hermitian.

    A constant matrix is checked once and returned symmetrized; a callable
    ``t -> C(t)`` becomes a sampler ``times -> (T, n, n)`` that calls it one
    Python float at a time, in order, and checks every sample.
    """
    def checked(m, what: str) -> np.ndarray:
        m = as_matrix(m)
        if m.shape != (n, n):
            raise ShapeMismatchError(f"{what} has shape {m.shape}, expected {(n, n)}")
        dev = hermitian_excess(m, _GAUGE_HERMITIAN_TOL)
        if dev is not None:
            raise NotHermitianGaugeError(
                f"{what} is not Hermitian (max |C - C*| = {dev:.3e})")
        return hermitian_part(m)

    if callable(c):
        return lambda times: np.array([checked(c(t), f"gauge sample at t={t}")
                                       for t in np.asarray(times).tolist()])
    return checked(c, "constant gauge")


def gauge_propagators(c_prime, c_double_prime, n: int, t_end: float, dt: float,
                      hbar: float) -> tuple:
    """Unitary frame-change propagators for a Hermitian gauge pair.

    g1 solves i*hbar dg1/dt = g1 C'(t) so that the image basis evolves as
    phi(t) = phi0 g1(t); g2 solves i*hbar dg2/dt = -g2 C''(t) so that
    <psi'_n| = sum [g2]_nl <psi_l| turns the gauged domain frame back into
    the free one.  A constant gauge gives exact exponentials, a callable
    one fourth-order Magnus products on the fine grid, sampling it at each
    step's two Gauss-Legendre nodes.

    Returns (g1s, g2s), one matrix each per time of the fine grid
    ``step_plan(t_end, dt).times``, t = 0 included.
    """
    return _gauge_propagators(_as_gauge(c_prime, n), _as_gauge(c_double_prime, n), n,
                              step_plan(t_end, dt, 1).times, hbar)


def _gauge_propagators(c1, c2, n: int, times, hbar: float) -> tuple:
    """``gauge_propagators`` of gauges built by ``_as_gauge``, on the grid ``times``."""
    every = range(len(times))
    eye = np.eye(n, dtype=np.complex128)
    # g1 carries the opposite sign: its generator is -C'
    minus_c1 = (lambda times: -c1(times)) if callable(c1) else -c1
    return (unitary_propagator(eye, minus_c1, times, every, hbar),
            unitary_propagator(eye, c2, times, every, hbar))


def gauge_equivalence_checks(space: AmbientSpace, psi0, phi0, a0,
                             field: FieldProfile, hbar: float, t_end: float,
                             dt: float, gauges,
                             pd_floor: float = DEFAULT_PD_FLOOR) -> list:
    """Max distance between the gauged and the gauge-free assembled operator,
    one per (C', C'') pair in ``gauges``.

    The gauge-free (primed) solution uses the free frame and the closed
    coefficient form, computed once, and its operator is formed once per
    time for every pair.  The gauged solution evolves the image
    basis phi0 g1(t), the domain frame psi'(t) g2(t), and the coefficient
    matrix by integrating its gauged equation: all P pairs as one (P, n, n)
    RK4, whose rhs reads C', C'' and B^2 from ``rk4_stages`` stacks (a
    callable gauge sampled once per distinct stage time).  Every rhs
    operation is per member, so each distance has the bits of its pair run
    alone.  Gauge invariance of the physical operator makes the distance
    vanish up to integration accuracy.
    """
    frame, image, a0 = _image_and_coefficients(space, psi0, phi0, a0)
    times = step_plan(t_end, dt, 1, space.ambient_hamiltonian.times + field.times).times
    # a singular a0 and a bad constant gauge are rejected before the frame evolves
    a_primed = coefficient_matrix_evolution(a0, field, hbar, times, pd_floor)
    c1s, c2s = zip(*[(_as_gauge(c1, space.n), _as_gauge(c2, space.n)) for c1, c2 in gauges])
    bras = unitary_propagator(frame.conj().T, space.ambient_hamiltonian.generator(),
                              times, range(len(times)), hbar)
    propagators = [_gauge_propagators(c1, c2, space.n, times, hbar)
                   for c1, c2 in zip(c1s, c2s)]

    def sample(ts: list) -> tuple:
        def stack(cs) -> np.ndarray:
            return np.stack([c(ts) if callable(c) else np.broadcast_to(c, (len(ts), *c.shape))
                             for c in cs], axis=1)

        return stack(c1s), stack(c2s), [b * b for b in [field.sample(t) for t in ts]]

    stages = rk4_stages(times, max(1, MAGNUS_CHUNK // (len(c1s) * space.n ** 2)), sample)

    # RK4 for i*hbar dA/dt = -C' A - A C'' - B^2 (A*)^-1
    def rhs(t: float, a: np.ndarray) -> np.ndarray:
        c1, c2, b2 = stages(t)
        return (1j / hbar) * (c1 @ a + a @ c2 + b2 * adjoint_inverse(a, pd_floor))

    a_gauged = rk4(rhs, np.stack([a0] * len(c1s)), times, range(len(times)))
    worst = [0.0] * len(c1s)
    for j, (bra, a_g, a_p) in enumerate(zip(bras, a_gauged, a_primed)):
        k_p = image @ a_p @ bra  # gauge-free: one per time, for every pair
        for m, (g1s, g2s) in enumerate(propagators):
            k_u = (image @ g1s[j]) @ a_g[m] @ (g2s[j].conj().T @ bra)
            worst[m] = max(worst[m], float(np.linalg.norm(k_u - k_p)))
    return worst


def gauge_equivalence_check(space: AmbientSpace, psi0, phi0, a0,
                            field: FieldProfile, hbar: float, t_end: float,
                            dt: float, c_prime, c_double_prime,
                            pd_floor: float = DEFAULT_PD_FLOOR) -> float:
    """The one-pair case of ``gauge_equivalence_checks``."""
    return gauge_equivalence_checks(space, psi0, phi0, a0, field, hbar, t_end, dt,
                                    [(c_prime, c_double_prime)], pd_floor)[0]
