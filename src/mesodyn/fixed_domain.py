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
  time, reading H and B^2 from stacks that ``rk4`` samples a chunk of
  steps at a time.
* ``evolve_series`` — the binomial power series for constant H and B,
  truncated at a caller-chosen number of terms.

Each returns a ``Trajectory``.  Fixed steps keep trajectories
bit-reproducible; convergence studies (dt, dt/2) replace adaptivity.  The
two propagation schemes live here once and also drive the moving-domain
and gauge evolutions: classical RK4 (``rk4``) and ``unitary_propagator``
for i*hbar*dU/dt = -U G, factors from the right (exact for a constant G,
fourth-order Magnus products for a time-dependent one, sampled, formed and
eigendecomposed a chunk of steps at a time).  Both return only their
matrices, as one (T, ...) array with a row per wanted time;
``factorized_samples`` assembles U diag(s v(t)) W(t) for both domains.
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
    frobenius_norms,
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

    ``ks`` is one C-contiguous complex128 array of shape (T, rows, cols).
    A run that stopped holds the plan's first ``len(ks)`` output times.
    """

    times: np.ndarray
    ks: np.ndarray
    solver_tag: str


def max_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max_i ||a_i - b_i||_F of two (T, m, n) stacks, NaN if any is, with a per-sample
    loop's bits; the differences are formed MAGNUS_CHUNK entries (or one sample) at a time."""
    size = max(1, MAGNUS_CHUNK // a[0].size)
    return float(np.max([np.max(frobenius_norms(a[i:i + size] - b[i:i + size]))
                         for i in range(0, len(a), size)]))


def polar_init(k0, pd_floor: float = DEFAULT_PD_FLOOR):
    """The SVD (U, s, V*) of K0 = U diag(s) V* behind the polar split.

    Every factor follows from it: sqrt(K0 K0*) = U diag(s) U*, the
    unitary factor U V* and (K0 K0*)^-1 = U diag(s^-2) U*.  Its
    singular-value floor raises NearSingularError at ``pd_floor``.
    """
    return full_rank_svd(require_square(k0), pd_floor)


def unitary_propagator(u0: np.ndarray, generator, times, wanted, hbar: float) -> np.ndarray:
    """Time-ordered U(t) = u0 . exp(i Int G dt' / hbar), a row per wanted time.

    U solves i*hbar*dU/dt = -U G with U(0) = u0 (u0 may be rectangular);
    ``times`` is the step grid, ``wanted`` the indices returned, in
    increasing order, as one array.  The generator picks the method.  A
    Hermitian matrix G is exact: one eigendecomposition gives the stack of
    exp(i G t / hbar) at every wanted time.  A sampler ``times -> (T, n, n)``
    stack of G(t) takes the fourth-order Magnus step at the two
    Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) dt:
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
    times = np.asarray(times, dtype=np.float64)
    if not callable(generator):
        return u0 @ unitary_exponentials(generator, times[sorted(wanted)] / hbar)
    chunk = max(1, MAGNUS_CHUNK // u0.shape[-1] ** 2)
    u = u0
    out = _wanted_rows(wanted, times, u0.shape)
    count = int(0 in wanted)
    out[:count] = u0
    for start in range(0, len(times) - 1, chunk):
        steps = _magnus_exponentials(generator, times[start:start + chunk + 1], hbar)
        for i, e in enumerate(steps, start + 1):
            u = u @ e
            if i in wanted:
                out[count] = u
                count += 1
    return out


def _wanted_rows(wanted, times, shape) -> np.ndarray:
    """An empty complex array of one ``shape`` row per wanted index of the grid."""
    return np.empty((sum(0 <= i < len(times) for i in wanted), *shape), dtype=np.complex128)


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


def rk4(rhs, y0: np.ndarray, times, wanted, coefficients) -> np.ndarray:
    """Classical fixed-step RK4 for dy/dt = rhs(y, *c(t)) on the grid ``times``.

    Returns one complex array of y, a row per index in ``wanted``, in
    increasing order.  Step i, t0 = times[i] and h = times[i + 1] - t0,
    reads c at its stage times t0, t0 + 0.5*h (twice) and t0 + h, sampled
    max(1, MAGNUS_CHUNK // y0.size) steps at a time: ``coefficients(ts)`` gets a chunk's distinct stage
    times as increasing floats and returns a tuple of arrays or lists
    indexed like ``ts``, and a stage calls ``rhs(y, *entries)`` with its
    time's entries; a plain ODE passes ``lambda ts: (ts,)``.  A chunk's
    first t0 equal to the previous chunk's last t0 + h is not sampled
    again but carried over as a copy, so each time is sampled once and the
    previous chunk's samples are freed before the next chunk's are taken.

    A NearSingularError or NonFiniteError raised inside a step is re-raised
    naming the step, with ``last_good_time`` set to the step start and
    ``partial`` the rows emitted before it, a prefix of the array.  Overflow and
    invalid-operation warnings are silenced for the whole loop: a state that
    overflows reaches the rhs's own finiteness check as the next step's
    start, and stops as a NonFiniteError of the step that produced it,
    without its sample.  The final state is no stage input, so it is checked
    once after the loop.
    """
    times = np.asarray(times, dtype=np.float64)
    y = np.array(y0, dtype=np.complex128)
    out = _wanted_rows(wanted, times, y.shape)
    count = int(0 in wanted)
    out[:count] = y
    chunk = max(1, MAGNUS_CHUNK // y.size)
    carried_t = carried = None  # the previous chunk's last stage time, its entries
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(times) - 1, chunk):
            grid = times[start:start + chunk + 1]
            t0, h = grid[:-1], grid[1:] - grid[:-1]
            ts, at = np.unique(np.concatenate([t0, t0 + 0.5 * h, t0 + h]),
                               return_inverse=True)
            ts = ts.tolist()
            entries = None  # drop the previous chunk before sampling this one
            if ts[0] == carried_t:
                entries = [carried, *zip(*coefficients(ts[1:]))]
            else:
                entries = list(zip(*coefficients(ts)))
            carried_t = ts[-1]
            carried = tuple(e.copy() if isinstance(e, np.ndarray) else e for e in entries[-1])
            at_start, at_mid, at_end = at.reshape(3, -1).tolist()
            for i, step, a, m, e in zip(range(start, len(times)), h.tolist(),
                                        at_start, at_mid, at_end):
                try:
                    s1 = rhs(y, *entries[a])
                    s2 = rhs(y + (0.5 * step) * s1, *entries[m])
                    s3 = rhs(y + (0.5 * step) * s2, *entries[m])
                    s4 = rhs(y + step * s3, *entries[e])
                except (NearSingularError, NonFiniteError) as exc:
                    raise _step_stop(exc, times, i, y, wanted, out[:count]) from exc
                y = y + (step / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                if (i + 1) in wanted:
                    out[count] = y
                    count += 1
    if len(times) > 1 and not np.isfinite(y).all():
        raise _step_stop(NonFiniteError("the final state is not finite"),
                         times, len(times) - 1, y, wanted, out[:count])
    return out


def _step_stop(exc, times, i, y, wanted, out):
    """The error of step i, whose start state is ``y``, for ``rk4`` to raise.

    ``out`` holds the samples emitted before step i.  A non-finite start
    state was produced by step i - 1: that step is named instead, and its
    sample is dropped from ``out``.
    """
    if i > 0 and not np.isfinite(y).all():
        if i in wanted:
            out = out[:-1]
        i -= 1
        error = NonFiniteError
    else:
        error = type(exc)
    what = "rank loss" if error is NearSingularError else "non-finite state"
    t0 = float(times[i])
    h = float(times[i + 1] - times[i])
    return error(f"{what} inside step [{t0}, {t0 + h}]: {exc}",
                 last_good_time=t0, partial=out)


def magnetic_factor(s: np.ndarray, field, hbar: float, times) -> np.ndarray:
    """The (T, n) array of exp((i/hbar) Int_0^t B^2 dt' / s^2), a row per t in ``times``.

    ``times`` increase.  A row holds the eigenvalues of the magnetic factor
    V(t) = U diag(v) U*, whose generator B^2 (K0 K0*)^-1 = B^2 U diag(s^-2) U*
    is diagonal in K0's left singular basis: no eigendecomposition.  Each
    interval between requested times is integrated once, and ``np.cumsum``
    adds the integrals in time order, as a running sum does.
    """
    pieces, prev_t = [], 0.0
    for t in np.asarray(times, dtype=np.float64).tolist():
        pieces.append(integrate_b_squared(field, prev_t, t) if t > prev_t else 0.0)
        prev_t = max(prev_t, t)
    return np.exp(1j * (np.cumsum(pieces) / hbar)[:, None] / (s * s))


def factorized_samples(left, s, w0, hamiltonian, field, hbar: float, plan) -> np.ndarray:
    """The (T, rows, cols) stack of left diag(s v(t)) W(t), t in plan.output_times.

    W(0) = w0 solves i*hbar*dW/dt = -W H(t), v(t) is the magnetic phase vector
    of the singular values ``s``.  The fixed domain passes left = U, the moving
    one folds its image basis into ``left`` and its frame into ``w0``.  The
    products run max(1, MAGNUS_CHUNK // (rows * cols)) samples at a time.
    """
    ws = unitary_propagator(w0, hamiltonian.generator(), plan.times,
                            set(plan.output_indices), hbar)
    sv = s * magnetic_factor(s, field, hbar, plan.output_times)
    out = np.empty((len(ws), len(left), ws.shape[-1]), dtype=np.complex128)
    size = max(1, MAGNUS_CHUNK // out[0].size)
    for start in range(0, len(out), size):
        window = slice(start, start + size)
        np.matmul(left * sv[window, None, :], ws[window], out=out[window])
    return out


def evolve_factorized(cfg: ScenarioConfig) -> Trajectory:
    """Closed-form trajectory K(t) = U diag(s v(t)) W(t), W(0) = V*.

    With K0 = U diag(s) V*, W solves i*hbar*dW/dt = -W H(t) and v(t) is the
    magnetic phase vector (``factorized_samples``).
    """
    u, s, vh = polar_init(cfg.initial_k, cfg.pd_floor)
    plan = cfg.plan()
    return Trajectory(plan.output_times, factorized_samples(
        u, s, vh, cfg.hamiltonian, cfg.field, cfg.hbar, plan), "factorized")


def _direct_rhs(cfgs):
    """(coefficients, rhs) of ``rk4`` for (i/hbar)(K H + B^2 (K*)^-1) of one group.

    ``1j/hbar`` and the floor are per-member arrays, or one value where all
    members share it: a complex scalar multiplies faster than a broadcast
    array, and ``adjoint_inverse`` takes a float floor as its screen's
    maximum.  ``coefficients`` samples each member's H profile once per
    chunk and B with the scalar ``FieldProfile.sample`` once per member and
    stage time, into (T, S, n, n) stacks: B^2 is filled over the member's
    n x n block as the complex value it is cast to anyway, so a stage
    multiplies two contiguous stacks.  The rhs forms its result in place, in
    the operand order of the expression.
    """
    profiles = [cfg.hamiltonian for cfg in cfgs]
    fields = [cfg.field for cfg in cfgs]
    i_over_hbar = np.array([1j / cfg.hbar for cfg in cfgs])[:, None, None]
    if (i_over_hbar == i_over_hbar[0]).all():
        i_over_hbar = complex(i_over_hbar[0, 0, 0])
    floors = np.array([cfg.pd_floor for cfg in cfgs])
    floor = float(floors[0]) if (floors == floors[0]).all() else floors
    n = np.shape(cfgs[0].initial_k)[-1]

    def coefficients(ts: list) -> tuple:
        hs = [profile.samples(ts) for profile in profiles]
        b2 = np.array([[b * b for b in [f.sample(t) for f in fields]] for t in ts],
                      dtype=np.complex128)
        return (hs[0][:, None] if len(hs) == 1 else np.stack(hs, axis=1),
                np.broadcast_to(b2[..., None, None], (len(ts), len(fields), n, n)).copy())

    def rhs(k: np.ndarray, h: np.ndarray, b2: np.ndarray) -> np.ndarray:
        # The checked (K*)^-1 is also the per-stage full-rank test.
        x = adjoint_inverse(k, floor)
        np.multiply(b2, x, out=x)
        out = k @ h
        out += x
        return np.multiply(i_over_hbar, out, out=out)

    return coefficients, rhs


def _evolve_direct_stack(cfgs) -> list:
    """RK4 on the (S, n, n) stack of one group; one trajectory per member.

    The run steps on the longest member grid, which every other member's
    grid begins, and keeps the union of the members' output indices; each
    member takes its own plan's samples from it: a copy, or for a lone
    member the run's own array.  A floor crossing or a non-finite state in
    any member raises, with ``partial`` the first member's trajectory up to
    the stop (empty when K0 is rejected), as ``evolve_direct_many`` re-runs a
    stopped group: one member at a time.
    """
    plans = [cfg.plan() for cfg in cfgs]
    grid = max((plan.times for plan in plans), key=len)
    union = sorted(set().union(*(plan.output_indices for plan in plans)))
    where = {index: j for j, index in enumerate(union)}  # step index -> sample
    try:
        k0 = np.stack([require_square(cfg.initial_k) for cfg in cfgs])
        coefficients, rhs = _direct_rhs(cfgs)
        samples = rk4(rhs, k0, grid, where, coefficients)
    except (NearSingularError, NonFiniteError) as exc:
        done = exc.partial
        if done is None:  # K0 was rejected before the first sample
            done = np.empty((0, 1, *np.shape(cfgs[0].initial_k)), dtype=np.complex128)
        rows = [where[i] for i in plans[0].output_indices if where[i] < len(done)]
        exc.partial = Trajectory(plans[0].output_times[:len(rows)], done[rows, 0], "direct")
        raise
    return [Trajectory(plan.output_times, samples[:, m] if len(cfgs) == 1 else
                       samples[[where[i] for i in plan.output_indices], m], "direct")
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
    ks = np.empty((len(plan.output_times), *radial.shape), dtype=np.complex128)
    for i, t in enumerate(plan.output_times.tolist()):
        with np.errstate(over="ignore", invalid="ignore"):
            unitary, estimate = series_unitary(u0, h, h_b, t, cfg.hbar, terms)
            norm = float(np.linalg.norm(unitary))
        # not (a <= b) also catches a NaN estimate
        if not (np.isfinite(norm) and estimate <= SERIES_TRUNCATION_RTOL * norm):
            raise TruncationDominatesError(
                f"first omitted term ({estimate:.3e}) dominates ||U|| ({norm:.3e}) "
                f"at t={t}; increase terms, or use another solver if either overflowed")
        ks[i] = radial @ unitary
    return Trajectory(plan.output_times, ks, "series")
