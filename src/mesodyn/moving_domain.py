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

``moving_solution``, ``moving_report`` and ``gauge_equivalence_checks``
take their scenario as the fixed domain's routes do, a ``ScenarioConfig``;
the two that integrate step to its knots.  Its ``hamiltonian`` is the
ambient H and its ``initial_k`` is not read; the dimensions come from the
frames: psi0 is M x n with M the dimension of H, phi0 is m x n and a0 is
n x n.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    NotHermitianGaugeError,
    NotOrthonormalError,
    RankDeficientError,
    ShapeMismatchError,
)
from .fixed_domain import (MAGNUS_CHUNK, Trajectory, factorized_samples, magnetic_factor,
                           max_distance, polar_init, rk4, unitary_propagator)
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
from .scenario import FieldProfile, ScenarioConfig, step_plan

FRAME_ORTHONORMAL_TOL = 1e-10
_GAUGE_HERMITIAN_TOL = 1e-12


def require_orthonormal_columns(m) -> np.ndarray:
    a = as_matrix(m)
    defect = unitary_defect(a)
    if defect > FRAME_ORTHONORMAL_TOL:
        raise NotOrthonormalError(
            f"columns are not orthonormal: ||psi* psi - I||_F = {defect:.3e}")
    return a


def coefficient_matrix_evolution(a0, field: FieldProfile, hbar: float, times,
                                 pd_floor: float = DEFAULT_PD_FLOOR,
                                 literal: bool = False) -> np.ndarray:
    """Closed-form coefficient matrix A'(t): a (T, n, n) stack, one per requested time.

    Satisfies i*hbar dA'/dt = -B^2 (A'*)^-1 with A'(0) = a0 and keeps
    A'(t) A'(t)* = a0 a0* for all t.  With ``literal=True`` the polar
    unitary of a0 is dropped (the printed closed form), which changes the
    initial value unless a0 is positive definite.
    """
    u, s, vh = polar_init(a0, pd_floor)
    right = u.conj().T if literal else vh
    return (u * (s * magnetic_factor(s, field, hbar, times))[:, None, :]) @ right


def _image_and_coefficients(cfg: ScenarioConfig, psi0, phi0, a0):
    """The checked domain frame (M x n, M the ambient H's dimension), image
    basis (m x n) and coefficient matrix (n x n)."""
    frame = require_orthonormal_columns(psi0)
    (dim, n), ambient = frame.shape, cfg.hamiltonian.dim
    if dim != ambient or n < 1:
        raise ShapeMismatchError(f"psi0 must be {ambient} x n with n >= 1, got {frame.shape}")
    image = require_orthonormal_columns(phi0)
    if image.shape[1] != n:
        raise ShapeMismatchError(f"phi0 must have psi0's {n} columns, got {image.shape}")
    a = as_matrix(a0)
    if a.shape != (n, n):
        raise ShapeMismatchError(f"a0 must be {n} x {n}, got {a.shape}")
    return frame, image, a


def moving_solution(cfg: ScenarioConfig, psi0, phi0, a0,
                    literal: bool = False) -> Trajectory:
    """The extended operator K(t) = phi0 . A'(t) . psi(t)*, tagged "moving",
    at the output times of ``cfg.plan()``.

    The inputs are checked and a0's SVD taken (rejecting a singular a0)
    before the frame evolves.  The image of every sample is span(phi0)
    and the rank is exactly n.
    """
    frame, image, a0 = _image_and_coefficients(cfg, psi0, phi0, a0)
    u, s, vh = polar_init(a0, cfg.pd_floor)
    right = u.conj().T if literal else vh
    plan = cfg.plan()
    return Trajectory(plan.output_times, factorized_samples(
        image @ u, s, right @ frame.conj().T, cfg.hamiltonian, cfg.field, cfg.hbar,
        plan), "moving")


def _image_projectors(u, keep) -> np.ndarray:
    """Each stack member's image projector, from its thin SVD's u and floor mask."""
    if (keep == keep[0]).all():  # one rank for the whole stack: one stacked product
        cols = u[:, :, keep[0]]
        return cols @ cols.conj().swapaxes(-1, -2)
    return np.stack([c @ c.conj().T for c in (m[:, kept] for m, kept in zip(u, keep))])


def moving_report(trajectory: Trajectory, cfg: ScenarioConfig, rank: int) -> tuple:
    """(weak_residuals, image_drifts, radial_drifts), one entry each per sample.

    image_drift is ||P(t) - P(0)||_F for the image projectors P, radial_drift
    ||K K*(t) - K K*(0)||_F; both vanish for an exact moving solution.  The
    weak residual tests the defining equation on the ambient basis: with
    dK/dt the centered difference and (K*)^-1 the zero-extended
    pseudo-inverse at rank ``rank``, it is the max over ambient basis vectors
    of the residual column norm, with the scenario's H, B and hbar.  For
    assembled solutions it decays at second order in the sample spacing.
    It exists at interior samples only: it is None at the two ends, and at
    every sample of a trajectory shorter than 3.

    The samples go through in chunks of max(1, MAGNUS_CHUNK // (rows *
    cols)): one stacked thin SVD per chunk, whose floor mask (singular values
    at or below ``cfg.pd_floor`` times the largest count as zeros) serves both
    the projectors and the pseudo-inverses.  Each value has the bits of its
    sample evaluated alone, and a rank-deficient interior sample raises
    RankDeficientError for the first one.
    """
    ks = trajectory.ks
    size = max(1, MAGNUS_CHUNK // ks[0].size)
    image, radial, interior = [], [], []
    for start in range(0, len(ks), size):
        stack = ks[start:start + size]
        u, s, vh = np.linalg.svd(stack, full_matrices=False)
        keep = ~below_floor(s, s[:, :1], cfg.pd_floor)
        projectors = _image_projectors(u, keep)
        grams = stack @ stack.conj().swapaxes(-1, -2)
        if not start:
            p0, gram0 = projectors[0].copy(), grams[0].copy()
        image += frobenius_norms(projectors - p0).tolist()
        radial += frobenius_norms(grams - gram0).tolist()
        lo, hi = max(start, 1), min(start + len(stack), len(ks) - 1)
        if lo < hi:
            inner = slice(lo - start, hi - start)
            interior += _weak_residuals(trajectory, lo, hi, stack[inner],
                                        (u[inner], s[inner], vh[inner], keep[inner]),
                                        cfg, rank)
    residuals = [None, *interior, None] if len(ks) >= 3 else [None] * len(ks)
    return residuals, image, radial


def _weak_residuals(trajectory: Trajectory, lo: int, hi: int, stack, factors,
                    cfg: ScenarioConfig, rank: int) -> list:
    """The weak residuals at the interior samples lo..hi-1, whose K form
    ``stack``; ``factors`` holds their thin SVDs (u, s, vh) and floor masks."""
    ks, times = trajectory.ks, trajectory.times
    ranks = np.count_nonzero(factors[-1], axis=-1)
    deficient = np.flatnonzero(ranks != rank)
    if deficient.size:
        j = int(deficient[0])
        raise RankDeficientError(f"sample at t={float(times[lo + j])} has rank "
                                 f"{int(ranks[j])}, expected {rank}")
    spans = times[lo + 1:hi + 1] - times[lo - 1:hi - 1]
    kdot = (ks[lo + 1:hi + 1] - ks[lo - 1:hi - 1]) / spans[:, None, None]
    b = np.array([cfg.field.sample(t) for t in times[lo:hi].tolist()])
    out = (1j * cfg.hbar * kdot + stack @ cfg.hamiltonian.samples(times[lo:hi])
           + (b * b)[:, None, None] * svd_pseudo_inverse(*factors))
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

    Returns (g1s, g2s), two (T, n, n) stacks with one matrix per time of
    the fine grid ``step_plan(t_end, dt).times``, t = 0 included.
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


def gauge_equivalence_checks(cfg: ScenarioConfig, psi0, phi0, a0, gauges) -> list:
    """Max distance between the gauged and the gauge-free assembled operator,
    one per (C', C'') pair in ``gauges``, on the fine grid of ``cfg`` with a
    step time at each of its knots.

    The gauge-free (primed) solution uses the free frame and the closed
    coefficient form, computed once, and its operator is formed once per
    time for every pair.  The gauged solution evolves the image basis
    phi0 g1(t), the domain frame psi'(t) g2(t), and the coefficient
    matrix by integrating its gauged equation: all P pairs as one (P, n, n)
    RK4, whose rhs reads C', C'' and B^2 from the stacks ``rk4`` samples (a
    callable gauge once per distinct stage time).  Every rhs operation is
    per member, and each pair's operators are formed as one (T, m, M)
    stack, so each distance has the bits of its pair run alone.  Gauge
    invariance of the physical operator makes the distance vanish up to
    integration accuracy.
    """
    frame, image, a0 = _image_and_coefficients(cfg, psi0, phi0, a0)
    n, hbar, field = len(a0), cfg.hbar, cfg.field
    times = step_plan(cfg.t_end, cfg.dt, 1, cfg.knots).times
    # a singular a0 and a bad constant gauge are rejected before the frame evolves
    a_primed = coefficient_matrix_evolution(a0, field, hbar, times, cfg.pd_floor)
    c1s, c2s = zip(*[(_as_gauge(c1, n), _as_gauge(c2, n)) for c1, c2 in gauges])
    bras = unitary_propagator(frame.conj().T, cfg.hamiltonian.generator(),
                              times, range(len(times)), hbar)
    propagators = [_gauge_propagators(c1, c2, n, times, hbar)
                   for c1, c2 in zip(c1s, c2s)]

    def coefficients(ts: list) -> tuple:
        def stack(cs) -> np.ndarray:
            return np.stack([c(ts) if callable(c) else np.broadcast_to(c, (len(ts), *c.shape))
                             for c in cs], axis=1)

        return stack(c1s), stack(c2s), [b * b for b in [field.sample(t) for t in ts]]

    # RK4 for i*hbar dA/dt = -C' A - A C'' - B^2 (A*)^-1
    def rhs(a: np.ndarray, c1: np.ndarray, c2: np.ndarray, b2: float) -> np.ndarray:
        return (1j / hbar) * (c1 @ a + a @ c2 + b2 * adjoint_inverse(a, cfg.pd_floor))

    a_gauged = rk4(rhs, np.stack([a0] * len(c1s)), times, range(len(times)), coefficients)
    k_p = image @ a_primed @ bras  # the gauge-free operator, shared by every pair
    return [max_distance(image @ g1 @ a_gauged[:, m] @ (g2.conj().swapaxes(-1, -2) @ bras), k_p)
            for m, (g1, g2) in enumerate(propagators)]
