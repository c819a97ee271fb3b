"""Fixed-domain solvers for the operator flow i*hbar*dK/dt = -K H - B^2 (K*)^-1.

Three independent routes to the same trajectory:

* ``evolve_factorized`` — the structure-preserving closed form
  K(t) = sqrt(K0 K0*) . exp((i/hbar) Int B^2 (K0 K0*)^-1 dt') . W(t),
  with the unitary W solving i*hbar*dW/dt = -W H(t), run in K0's own
  singular basis: with K0 = U diag(s) V*, phi(t) = Int_0^t B^2 and M(t)
  the H-propagator from the identity,
  K(t) = U . diag(s v(t)) . V* M(t),  v_j(t) = exp(i phi(t) / (hbar s_j^2)).
  K K* = U diag(s^2) U* holds by construction, so this solver cannot hit
  the singularity, and for constant H so does trace(K H K*).
* ``evolve_direct`` — classical fixed-step RK4 on the equation itself,
  re-checking the full-rank invariant at every stage;
  ``evolve_direct_many`` runs scenarios that share a shape and dt, and
  whose time grids nest, as one stacked RK4, bit-identical to one at a
  time, reading H and B^2 from stacks sampled a chunk of steps at a time
  (``rk4_stages``).
* ``evolve_series`` — the binomial power series for constant H and B,
  truncated at a caller-chosen number of terms.

Each returns a ``Trajectory``.  Fixed steps keep trajectories
bit-reproducible; convergence studies (dt, dt/2) replace adaptivity.  The
two propagation schemes live here once and also drive the moving-domain
and gauge evolutions: classical RK4 (``rk4``) and ``unitary_propagator``
for i*hbar*dU/dt = -U G, factors from the right (exact for a constant G,
fourth-order Magnus products for a time-dependent one, sampled, formed and
eigendecomposed a chunk of steps at a time).  Both return only their
matrices, one per wanted time; ``factorized_samples`` assembles
U diag(s v(t)) W(t) for both domains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    NearSingularError,
    NonFiniteError,
    RequiresConstantCoefficientsError,
    TruncationDominatesError,
)
from .linalg import (
    DEFAULT_PD_FLOOR,
    adjoint_inverse,
    full_rank_svd,
    hermitian_part,
    require_square,
    unitary_exponentials,
)
from .scenario import ScenarioConfig, integrate_b_squared

SERIES_RADIUS_LIMIT = 10.0
SERIES_TRUNCATION_RTOL = 1e-10

# the Gauss-Legendre nodes of one step, as fractions of it, and the Magnus
# commutator weight sqrt(3)/12
_GAUSS_NODES = np.array([0.5 - 3.0 ** 0.5 / 6.0, 0.5 + 3.0 ** 0.5 / 6.0])
_SQRT3_12 = 3.0 ** 0.5 / 12.0
# Matrix entries per Magnus chunk: a chunk of max(1, MAGNUS_CHUNK // n**2)
# steps is sampled, multiplied and eigendecomposed as one stack, so up to
# dim 128 a (chunk, n, n) array stays within 256 KB.  Dims up to 8 take 256
# or more steps per chunk, dim 64 four, dims from 91 up one: there eigh
# dominates and a larger stack only leaves the cache (README "Constant
# generators").
MAGNUS_CHUNK = 16384


@dataclass(frozen=True)
class Trajectory:
    """K sampled on the step plan's output times: ``ks[i]`` at ``times[i]``.

    A run that stopped holds the plan's first ``len(ks)`` output times.
    """

    times: np.ndarray
    ks: list
    solver_tag: str


def polar_init(k0, pd_floor: float = DEFAULT_PD_FLOOR):
    """The SVD (U, s, V*) of K0 = U diag(s) V* behind the polar split.

    Every factor follows from it: sqrt(K0 K0*) = U diag(s) U*, the
    unitary factor U V* and (K0 K0*)^-1 = U diag(s^-2) U*.  Its
    singular-value floor raises NearSingularError at ``pd_floor``.
    """
    return full_rank_svd(require_square(k0), pd_floor)


def unitary_propagator(u0: np.ndarray, generator, times, wanted, hbar: float) -> list:
    """Time-ordered U(t) = u0 . exp(i Int G dt' / hbar), one per wanted time.

    U solves i*hbar*dU/dt = -U G with U(0) = u0 (u0 may be rectangular);
    ``times`` is the step grid, ``wanted`` the indices returned.  The
    generator picks the method.  A Hermitian matrix G is exact: one
    eigendecomposition gives exp(i G t / hbar) at every wanted time.  A
    sampler ``times -> (T, n, n)`` stack of G(t) takes the fourth-order
    Magnus step at the two Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) dt:
    with G1, G2 sampled there, step by step exp(i dt M / hbar),
    M = (G1 + G2)/2 + (i sqrt(3) dt / (12 hbar)) [G1, G2].  Fourth order,
    exactly unitary; the commutator's sign is that of factors on the right.
    Its samples must be exactly Hermitian, as the profiles' and gauges'
    symmetrized samples are.  Then so is M, since [G1, G2] is formed as
    X - X* with X = G1 G2, exactly anti-Hermitian, and M is
    eigendecomposed without a re-check.

    The steps run in chunks of max(1, MAGNUS_CHUNK // n**2): one sampler
    call for the chunk's nodes, in time order, and X, M, one ``eigh`` and
    the step exponentials on its (chunk, n, n) stack, so memory stays flat
    in the step count.  Only the products u . E_k run step by step.  Every
    stacked operation applies a single step's floating point operations,
    so the product is bit-identical to stepping one at a time.
    """
    if not callable(generator):
        exps = unitary_exponentials(
            generator, [float(times[i]) / hbar for i in sorted(wanted)])
        return [u0 @ e for e in exps]
    times = np.asarray(times, dtype=np.float64)
    n = u0.shape[-1]
    chunk = max(1, MAGNUS_CHUNK // (n * n))
    u = u0
    out = [u0.copy()] if 0 in wanted else []
    for start in range(0, len(times) - 1, chunk):
        steps = _magnus_exponentials(generator, times[start:start + chunk + 1], hbar)
        for i, e in enumerate(steps, start + 1):
            u = u @ e
            if i in wanted:
                out.append(u)
    return out


def _magnus_exponentials(generator, times: np.ndarray, hbar: float) -> np.ndarray:
    """The (c, n, n) stack of Magnus step exponentials on the c steps of ``times``.

    Each stage drops the arrays the next one does not read, so a chunk
    holds few (c, n, n) arrays at once.
    """
    t0, dt = times[:-1, None], times[1:, None] - times[:-1, None]
    # the nodes in time order: G1 at even, G2 at odd positions
    g = generator((t0 + _GAUSS_NODES * dt).ravel())
    g1, g2 = g[0::2], g[1::2]
    # M = (G1 + G2)/2 + c (X - X*), formed in place: a product with c = i r or
    # with 0.5 has one zero component, so the operand order keeps the bits
    m = g1 @ g2
    np.subtract(m, m.conj().swapaxes(-1, -2), out=m)
    m *= (1j * (_SQRT3_12 * dt / hbar))[..., None]
    half = g1 + g2
    del g, g1, g2
    half *= 0.5
    m += half
    del half
    w, q = np.linalg.eigh(m)
    del m
    q_star = q.conj().swapaxes(-1, -2)
    q *= np.exp(1j * (dt / hbar) * w)[:, None, :]
    return q @ q_star


def rk4(rhs, y0: np.ndarray, times, wanted) -> list:
    """Classical fixed-step RK4 for dy/dt = rhs(t, y) on the grid ``times``.

    Returns the list of y at the indices in ``wanted``.  A NearSingularError
    or NonFiniteError raised inside a step is re-raised naming the step,
    with ``last_good_time`` set to the step start and ``partial`` holding
    the samples emitted before it.  Overflow and invalid-operation warnings
    are silenced for the whole loop: a state that overflows reaches the rhs's
    own finiteness check as the next step's start, and stops as a
    NonFiniteError of the step that produced it, without its sample.  The
    final state is no stage input, so it is checked once after the loop.
    """
    y = np.array(y0, dtype=np.complex128)
    out = [y.copy()] if 0 in wanted else []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(times) - 1):
            t0 = float(times[i])
            h = float(times[i + 1] - times[i])
            tm = t0 + 0.5 * h
            try:
                s1 = rhs(t0, y)
                s2 = rhs(tm, y + (0.5 * h) * s1)
                s3 = rhs(tm, y + (0.5 * h) * s2)
                s4 = rhs(t0 + h, y + h * s3)
            except (NearSingularError, NonFiniteError) as exc:
                raise _step_stop(exc, times, i, y, wanted, out) from exc
            y = y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            if (i + 1) in wanted:
                out.append(y)
    if len(times) > 1 and not np.isfinite(y).all():
        raise _step_stop(NonFiniteError("the final state is not finite"),
                         times, len(times) - 1, y, wanted, out)
    return out


def _step_stop(exc, times, i, y, wanted, out):
    """The error of step i, whose start state is ``y``, for ``rk4`` to raise.

    A non-finite start state was produced by step i - 1: that step is named
    instead, and its sample is dropped from ``out``.
    """
    if i > 0 and not np.isfinite(y).all():
        if i in wanted:
            out.pop()
        i -= 1
        error = NonFiniteError
    else:
        error = type(exc)
    what = "rank loss" if error is NearSingularError else "non-finite state"
    t0 = float(times[i])
    h = float(times[i + 1] - times[i])
    return error(f"{what} inside step [{t0}, {t0 + h}]: {exc}",
                 last_good_time=t0, partial=out)


def magnetic_factor(s: np.ndarray, field, hbar: float, times) -> list:
    """[exp((i/hbar) Int_0^t B^2 dt' / s^2) for t in times], ``times`` increasing.

    The eigenvalues of the magnetic factor V(t) = U diag(v) U*, whose
    generator B^2 (K0 K0*)^-1 = B^2 U diag(s^-2) U* is diagonal in K0's
    left singular basis: one phase vector per requested time, no
    eigendecomposition.  The accumulated integral reuses each previous
    interval, one quadrature per requested time.
    """
    s2 = s * s
    out = []
    acc = 0.0
    prev_t = 0.0
    for t in times:
        t = float(t)
        if t > prev_t:
            acc += integrate_b_squared(field, prev_t, t)
            prev_t = t
        out.append(np.exp(1j * (acc / hbar) / s2))
    return out


def factorized_samples(left, s, w0, hamiltonian, field, hbar: float, plan) -> list:
    """[left diag(s v(t)) W(t) for t in plan.output_times], W(0) = w0.

    W solves i*hbar*dW/dt = -W H(t), v(t) is the magnetic phase vector of
    the singular values ``s``.  The fixed domain passes left = U, the moving
    one folds its image basis into ``left`` and its frame into ``w0``.
    """
    ws = unitary_propagator(w0, hamiltonian.generator(), plan.times,
                            set(plan.output_indices), hbar)
    vs = magnetic_factor(s, field, hbar, plan.output_times)
    return [(left * (s * v)) @ w for w, v in zip(ws, vs)]


def evolve_factorized(cfg: ScenarioConfig) -> Trajectory:
    """Closed-form trajectory K(t) = U diag(s v(t)) W(t), W(0) = V*.

    With K0 = U diag(s) V*, W solves i*hbar*dW/dt = -W H(t) and v(t) is the
    magnetic phase vector (``factorized_samples``).
    """
    u, s, vh = polar_init(cfg.initial_k, cfg.pd_floor)
    plan = cfg.plan()
    return Trajectory(plan.output_times, factorized_samples(
        u, s, vh, cfg.hamiltonian, cfg.field, cfg.hbar, plan), "factorized")


def rk4_stages(times, chunk: int, sample):
    """t -> the samples at a stage time of ``rk4`` on the grid ``times``.

    ``sample(ts)`` returns a tuple of arrays or lists indexed like ``ts``.
    It is called once per chunk of ``chunk`` steps, in time order, with the
    chunk's distinct stage times ``t0``, ``t0 + 0.5*h`` and ``t0 + h``,
    formed as ``rk4`` forms them; a chunk's first ``t0`` is the previous
    chunk's last end and is not sampled again.  So each distinct stage time
    is sampled once, and one chunk's samples are held, zipped once into one
    tuple per time that a stage then looks up by index.  The times must be
    asked in ``rk4``'s order; a time out of it raises ValueError.
    """
    ts, entries, at, start = [], [], -1, 0

    def lookup(t: float) -> tuple:
        nonlocal ts, entries, at, start
        if not ts or ts[at] != t:
            at += 1
            if at == len(ts):
                last, wanted = ts[-1] if ts else None, {}
                for i in range(start, min(start + chunk, len(times) - 1)):
                    t0, h = float(times[i]), float(times[i + 1] - times[i])
                    wanted.update(dict.fromkeys([t0, t0 + 0.5 * h, t0 + h]))
                ts = [s for s in wanted if s != last]
                entries = []  # drop the previous chunk before sampling this one
                entries, at, start = list(zip(*sample(ts))), 0, start + chunk
            if at == len(ts) or ts[at] != t:
                raise ValueError(f"stage time {t!r} asked out of rk4's order")
        return entries[at]

    return lookup


def _direct_rhs(cfgs, times):
    """The stacked right-hand side (i/hbar)(K H + B^2 (K*)^-1) of one group.

    ``1j/hbar`` and the floor are per-member arrays, or one value where all
    members share it: a complex scalar multiplies faster than a broadcast
    array, and ``adjoint_inverse`` takes a float floor as its screen's
    maximum.  The rhs reads H and B^2 from ``rk4_stages`` stacks of
    (T, S, n, n), a chunk of max(1, MAGNUS_CHUNK // (S n**2)) steps at a
    time: each member's profile sampled once per chunk by ``samples``, B
    with the scalar ``FieldProfile.sample`` once per member and stage time,
    its square filled over the member's n x n block as the complex value
    it is cast to anyway, so a stage multiplies two contiguous stacks.  The
    rhs forms its result in place, in the operand order of the expression.
    """
    profiles = [cfg.hamiltonian for cfg in cfgs]
    fields = [cfg.field for cfg in cfgs]
    i_over_hbar = np.array([1j / cfg.hbar for cfg in cfgs])[:, None, None]
    if (i_over_hbar == i_over_hbar[0]).all():
        i_over_hbar = complex(i_over_hbar[0, 0, 0])
    floors = np.array([cfg.pd_floor for cfg in cfgs])
    floor = float(floors[0]) if (floors == floors[0]).all() else floors

    def sample(ts: list) -> tuple:
        hs = [profile.samples(ts) for profile in profiles]
        b2 = np.array([[b * b for b in [f.sample(t) for f in fields]] for t in ts],
                      dtype=np.complex128)
        return (hs[0][:, None] if len(hs) == 1 else np.stack(hs, axis=1),
                np.broadcast_to(b2[..., None, None], (len(ts), len(fields), n, n)).copy())

    n = np.shape(cfgs[0].initial_k)[-1]
    stages = rk4_stages(times, max(1, MAGNUS_CHUNK // (len(cfgs) * n * n)), sample)

    def rhs(t: float, k: np.ndarray) -> np.ndarray:
        h, b2 = stages(t)
        # The checked (K*)^-1 is also the per-stage full-rank test.
        x = adjoint_inverse(k, floor)
        np.multiply(b2, x, out=x)
        out = k @ h
        out += x
        return np.multiply(i_over_hbar, out, out=out)

    return rhs


def _evolve_direct_stack(cfgs) -> list:
    """RK4 on the (S, n, n) stack of one group; one trajectory per member.

    The run steps on the longest member grid, which every other member's
    grid begins, and keeps the union of the members' output indices; each
    member takes its own plan's samples from it.  A floor crossing or a
    non-finite state in any member raises, with ``partial`` the first
    member's trajectory up to the stop (empty when K0 is rejected), as
    ``evolve_direct_many`` re-runs a stopped group: one member at a time.
    """
    plans = [cfg.plan() for cfg in cfgs]
    grid = max((plan.times for plan in plans), key=len)
    union = sorted(set().union(*(plan.output_indices for plan in plans)))
    where = {index: j for j, index in enumerate(union)}  # step index -> sample
    try:
        k0 = np.stack([require_square(cfg.initial_k) for cfg in cfgs])
        samples = rk4(_direct_rhs(cfgs, grid), k0, grid, where)
    except (NearSingularError, NonFiniteError) as exc:
        done = exc.partial or []
        plan = plans[0]
        ks = [done[where[i]][0] for i in plan.output_indices if where[i] < len(done)]
        exc.partial = Trajectory(plan.output_times[:len(ks)], ks, "direct")
        raise
    return [Trajectory(plan.output_times,
                       [samples[where[i]][m] for i in plan.output_indices], "direct")
            for m, plan in enumerate(plans)]


def _direct_groups(cfgs) -> list:
    """The member indices of each of ``evolve_direct_many``'s stacked runs.

    Scenarios that share the shape of K0 and dt form a family, whose
    longest grid (``ScenarioConfig.plan`` times, knots included) is its
    run's.  A member joins that run when its own grid is an exact prefix of
    it and its H and B domains reach the run's end; any other member groups
    with those of its own grid.
    """
    families = {}
    for i, cfg in enumerate(cfgs):
        families.setdefault((np.shape(cfg.initial_k), cfg.dt), []).append(i)
    groups = []
    for members in families.values():
        grids = [cfgs[i].plan().times for i in members]
        longest = max(grids, key=len)
        end = float(longest[-1])
        nested, own = [], {}
        for i, times in zip(members, grids):
            cfg = cfgs[i]
            if (np.array_equal(times, longest[:len(times)])
                    and cfg.hamiltonian.domain()[1] >= end and cfg.field.domain()[1] >= end):
                nested.append(i)
            else:
                own.setdefault(times.tobytes(), []).append(i)
        groups += [group for group in (nested, *own.values()) if group]
    return groups


def evolve_direct_many(cfgs) -> list:
    """``[evolve_direct(cfg) for cfg in cfgs]``, integrating stacks at once.

    Each group of ``_direct_groups`` (one shape of K0 and dt, grids that
    nest, whatever the H and B profiles) is integrated as one (S, n, n) RK4
    run, so members whose inserted knots differ run apart.  One stacked
    (K*)^-1 and matmul per stage serve S members.  A member's state does not
    depend on the steps after its end or on which samples are emitted, so
    members may differ in t_end and ``output_stride``.  Every member's
    trajectory is bit-identical to its own ``evolve_direct``.
    If a member crosses the floor or turns non-finite, even after its own
    end, its group is re-run one member at a time, each on its own grid,
    and the first scenario in list order that stops raises its own
    NearSingularError or NonFiniteError, ``last_good_time`` and ``partial``
    as ``evolve_direct`` gives them.
    """
    cfgs = list(cfgs)
    out = [None] * len(cfgs)
    failures = []
    for members in _direct_groups(cfgs):
        if len(members) > 1:
            try:
                stacked = _evolve_direct_stack([cfgs[i] for i in members])
            except (NearSingularError, NonFiniteError):
                pass  # re-run one at a time for the member's own error
            else:
                for i, trajectory in zip(members, stacked):
                    out[i] = trajectory
                continue
        for i in members:
            try:
                (out[i],) = _evolve_direct_stack([cfgs[i]])
            except (NearSingularError, NonFiniteError) as exc:
                failures.append((i, exc))
                break
    if failures:
        _, error = min(failures, key=lambda failure: failure[0])
        raise error
    return out


def evolve_direct(cfg: ScenarioConfig) -> Trajectory:
    """Fixed-step RK4 on dK/dt = (i/hbar)(K H + B^2 (K*)^-1).

    On rank loss or a non-finite state the solver stops with the last good
    state: the raised NearSingularError or NonFiniteError carries
    ``last_good_time`` and the partial trajectory emitted so far.  The one-scenario case of
    ``evolve_direct_many``.
    """
    return evolve_direct_many([cfg])[0]


def series_unitary(u0: np.ndarray, h: np.ndarray, h_b: np.ndarray, t: float,
                   hbar: float, terms: int):
    """Truncated series for the unitary factor with constant coefficients.

    Term k is z^k/k! times the binomial sum over C(k, j) h_b^j u0 h^(k-j),
    z = i t / hbar, carried scaled by the recurrence
    T_{k+1} = (z / (k+1)) (h_b T_k + T_k h), so a term overflows only where
    the series does.  Returns (U, estimate) where the estimate is the
    Frobenius norm of the first omitted term T_terms.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    z = 1j * t / hbar
    term = u0.astype(np.complex128)
    u = np.zeros_like(term)
    for k in range(1, terms + 1):
        u = u + term
        term = (z / k) * (h_b @ term + term @ h)
    return u, float(np.linalg.norm(term))


def evolve_series(cfg: ScenarioConfig, terms: int) -> Trajectory:
    """Power-series trajectory K(t) = radial . U(t) for constant H and B.

    ``terms`` counts the series terms kept (k = 0 .. terms-1).  A
    first-omitted-term estimate above 1e-10 * ||U||, or either of them not
    finite (an overflowed series), raises TruncationDominatesError.
    """
    if not (cfg.hamiltonian.is_constant() and cfg.field.kind == "constant"):
        raise RequiresConstantCoefficientsError(
            "the series solver needs constant hamiltonian and field profiles")
    u, s, vh = polar_init(cfg.initial_k, cfg.pd_floor)
    uh = u.conj().T
    radial, u0 = hermitian_part((u * s) @ uh), u @ vh
    h = cfg.hamiltonian.samples([0.0])[0]
    b = cfg.field.value
    h_b = (b * b) * hermitian_part((u / (s * s)) @ uh)
    radius = float(np.linalg.norm(h + h_b)) * cfg.t_end / cfg.hbar
    if radius > SERIES_RADIUS_LIMIT:
        warnings.warn(
            f"series argument norm {radius:.2f} exceeds {SERIES_RADIUS_LIMIT}; "
            f"convergence will be slow", ConvergenceWarning, stacklevel=2)
    plan = cfg.plan()
    ks = []
    for t in plan.output_times.tolist():
        with np.errstate(over="ignore", invalid="ignore"):
            unitary, estimate = series_unitary(u0, h, h_b, t, cfg.hbar, terms)
            norm = float(np.linalg.norm(unitary))
        # not (a <= b) also catches a NaN estimate
        if not (np.isfinite(norm) and estimate <= SERIES_TRUNCATION_RTOL * norm):
            raise TruncationDominatesError(
                f"first omitted term ({estimate:.3e}) dominates ||U|| ({norm:.3e}) "
                f"at t={t}; increase terms, or use another solver if either overflowed")
        ks.append(radial @ unitary)
    return Trajectory(plan.output_times, ks, "series")
