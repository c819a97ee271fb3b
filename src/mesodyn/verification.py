"""Seeded property battery: every conserved quantity and identity, checked.

Each check draws reproducible random problem instances (numpy
SeedSequence children of one root seed), computes a worst-case metric,
and compares it against the pinned threshold.  The CLI ``verify`` verb
runs the whole battery; the acceptance tests run the same functions at
their full pinned scale.

The checks that run the direct route are generators: each yields its
scenarios and is sent their trajectories.  Called alone, a check makes
its own ``evolve_direct_many`` call; ``run_battery`` draws the scenarios
of the checks in each of its halves first and integrates them in one
call per half, where scenarios of different checks whose grids nest
share one stacked RK4 run.  Either way each check returns the same
results, bit for bit, and so does the battery whether or not it runs its
two halves in two processes.  The halves end in order, so a failing battery
raises its first half's error if that half fails, else its second's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .concurrency import run_halves
from .diagnostics import (
    CriticalPointSpec,
    critical_point,
    differential_check,
    invariant_report,
)
from .fixed_domain import (  # evolve_direct stays importable here for perfbench's tracer
    evolve_direct,
    evolve_direct_many,
    evolve_factorized,
    evolve_series,
    polar_init,
)
from .linalg import adjoint_inverse, hermitian_part, unitary_exponential
from .moving_domain import (
    AmbientSpace,
    gauge_equivalence_checks,
    moving_drift,
    moving_solution,
    weak_residual,
)
from .scenario import FieldProfile, HamiltonianProfile, ScenarioConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    metric: float
    threshold: float
    comparison: str  # "<=" or ">="
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.name}: {self.metric:.3e} "
                f"{self.comparison} {self.threshold:.3e}")


def _result(name: str, metric: float, threshold: float,
            comparison: str = "<=") -> CheckResult:
    if comparison == "<=":
        passed = metric <= threshold
    elif comparison == ">=":
        passed = metric >= threshold
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return CheckResult(name=name, metric=float(metric), threshold=float(threshold),
                       comparison=comparison, passed=passed)


# ---------------------------------------------------------------------------
# Reproducible random instances


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return random_orthonormal_columns(rng, n, n)


def random_hermitian(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Random Hermitian with eigenvalues drawn uniformly from [lo, hi]."""
    q = random_unitary(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return hermitian_part((q * w) @ q.conj().T)


def random_full_rank(rng: np.random.Generator, n: int, smin: float,
                     smax: float) -> np.ndarray:
    """Random matrix with singular values drawn uniformly from [smin, smax]."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    s = rng.uniform(smin, smax, size=n)
    return (u * s) @ v.conj().T


def random_orthonormal_columns(rng: np.random.Generator, rows: int,
                               cols: int) -> np.ndarray:
    q, r = np.linalg.qr(crandn(rng, rows, cols))
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_drifting_hamiltonian(rng: np.random.Generator, dim: int,
                                t_end: float) -> HamiltonianProfile:
    """Linear blend over [0, t_end] of a PD sample and a small Hermitian kick."""
    h0 = random_hermitian(rng, dim, 0.5, 2.5)
    h1 = hermitian_part(h0 + random_hermitian(rng, dim, -0.4, 0.4))
    return HamiltonianProfile.interpolated([0.0, t_end], [h0, h1])


def random_sinusoid(rng: np.random.Generator) -> FieldProfile:
    return FieldProfile.sinusoid(amplitude=rng.uniform(0.2, 0.5),
                                 frequency=rng.uniform(0.1, 0.4),
                                 phase=rng.uniform(0.0, 2.0 * np.pi),
                                 offset=rng.uniform(0.5, 0.9))


def random_scenario(rng: np.random.Generator, dim: int, t_end: float = 1.0,
                    dt: float = 1e-3, output_stride: int = 100) -> ScenarioConfig:
    """Time-dependent H (linear blend of two PD samples) and sinusoidal B.

    Magnitudes are kept at desk scale (||H|| <~ 2.5, ||H_B|| <~ 4) so the
    fixed-step integrators run well inside their accuracy budgets.
    """
    hamiltonian = random_drifting_hamiltonian(rng, dim, t_end)
    field = random_sinusoid(rng)
    k0 = random_full_rank(rng, dim, 0.7, 1.5)
    return ScenarioConfig(hbar=1.0, hamiltonian=hamiltonian, field=field,
                          initial_k=k0, t_end=t_end, dt=dt,
                          output_stride=output_stride)


def random_constant_scenario(rng: np.random.Generator, dim: int,
                             t_end: float = 0.5, dt: float = 1e-3,
                             output_stride: int = 100) -> ScenarioConfig:
    hamiltonian = HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.5))
    field = FieldProfile.constant(rng.uniform(0.3, 1.0))
    k0 = random_full_rank(rng, dim, 0.8, 1.4)
    return ScenarioConfig(hbar=1.0, hamiltonian=hamiltonian, field=field,
                          initial_k=k0, t_end=t_end, dt=dt,
                          output_stride=output_stride)


def random_diagonal_scenario(rng: np.random.Generator, dim: int,
                             t_end: float = 1.0, dt: float = 1e-3,
                             output_stride: int = 10):
    """Diagonal constant H, constant B, diagonal K0; returns (cfg, r0, phi0)."""
    energies = np.sort(rng.uniform(0.5, 2.5, size=dim))
    hamiltonian = HamiltonianProfile.constant(np.diag(energies).astype(complex))
    field = FieldProfile.constant(rng.uniform(0.3, 1.0))
    r0 = rng.uniform(0.7, 1.4, size=dim)
    phi0 = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    k0 = np.diag(r0 * np.exp(1j * phi0))
    cfg = ScenarioConfig(hbar=1.0, hamiltonian=hamiltonian, field=field,
                         initial_k=k0, t_end=t_end, dt=dt,
                         output_stride=output_stride)
    return cfg, r0, phi0


def _child_rngs(seed: int, count: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def convergence_order(errors) -> float:
    """Worst observed order log2(e_i / e_{i+1}) over errors at halving steps."""
    return min(float(np.log2(errors[i] / errors[i + 1]))
               for i in range(len(errors) - 1))


def _run_direct_checks(checks) -> list:
    """Drive direct-route checks through one ``evolve_direct_many`` call.

    Each check is a generator that yields its scenarios, is sent their
    direct trajectories, and returns its results.  Every check draws
    before the one call; the results come back one list per check.
    """
    batches = [next(check) for check in checks]
    directs = iter(evolve_direct_many([cfg for batch in batches for cfg in batch]))
    results = []
    for check, batch in zip(checks, batches):
        try:
            check.send([next(directs) for _ in batch])
        except StopIteration as done:
            results.append(done.value)
    return results


def _direct_check(steps):
    """A check from its generator ``steps``, which stays reachable for batching."""
    @functools.wraps(steps)
    def check(*args, **kwargs) -> list:
        (results,) = _run_direct_checks([steps(*args, **kwargs)])
        return results

    check.steps = steps
    return check


# ---------------------------------------------------------------------------
# Checks


@_direct_check
def check_conservation_and_agreement(seed: int, scenario_count: int) -> list:
    """Conservation of K K* for both solvers plus their final-state distance."""
    (rng,) = _child_rngs(seed, 1)
    cfgs = [random_scenario(rng, int(rng.integers(2, 6)))
            for _ in range(scenario_count)]
    worst_fact = 0.0
    worst_direct = 0.0
    worst_cross = 0.0
    worst_heisenberg = 0.0
    directs = yield cfgs
    for cfg, direct in zip(cfgs, directs):
        fact = evolve_factorized(cfg)
        worst_fact = max(worst_fact,
                         invariant_report(fact, cfg).max_kk_star_drift())
        worst_direct = max(worst_direct,
                           invariant_report(direct, cfg).max_kk_star_drift())
        worst_cross = max(worst_cross, float(np.linalg.norm(
            fact.ks[-1] - direct.ks[-1])))
        # K*K(t) = W0* K0*K0 W0 whatever B is; the factorized K*K is that by
        # construction, so it is the reference for the direct one
        scale = float(np.linalg.norm(cfg.initial_k.conj().T @ cfg.initial_k))
        for d_k, f_k in zip(direct.ks, fact.ks):
            worst_heisenberg = max(worst_heisenberg, float(np.linalg.norm(
                d_k.conj().T @ d_k - f_k.conj().T @ f_k)) / scale)
    return [
        _result("conservation_factorized", worst_fact, 1e-10),
        _result("conservation_direct", worst_direct, 1e-8),
        _result("cross_solver_distance", worst_cross, 1e-6),
        _result("kstar_k_heisenberg", worst_heisenberg, 1e-10),
    ]


@_direct_check
def check_series_agreement(seed: int, scenario_count: int, terms: int = 30) -> list:
    """Constant-coefficient series vs both solvers at t = 0.5."""
    (rng,) = _child_rngs(seed, 1)
    cfgs = [random_constant_scenario(rng, int(rng.integers(2, 6)), t_end=0.5)
            for _ in range(scenario_count)]
    worst_fact = 0.0
    worst_direct = 0.0
    directs = yield cfgs
    for cfg, direct in zip(cfgs, directs):
        series = evolve_series(cfg, terms)
        fact = evolve_factorized(cfg)
        for s_k, f_k, d_k in zip(series.ks, fact.ks, direct.ks):
            worst_fact = max(worst_fact, float(np.linalg.norm(s_k - f_k)))
            worst_direct = max(worst_direct, float(np.linalg.norm(s_k - d_k)))
    return [
        _result("series_vs_factorized", worst_fact, 1e-9),
        _result("series_vs_direct", worst_direct, 1e-9),
    ]


@_direct_check
def check_diagonal_closed_form(seed: int, scenario_count: int) -> list:
    """Closed-form diagonal trajectory vs both solvers on the output grid."""
    from .diagnostics import special_diagonal_solution

    (rng,) = _child_rngs(seed, 1)
    draws = [random_diagonal_scenario(rng, int(rng.integers(2, 5)))
             for _ in range(scenario_count)]
    directs = yield [cfg for cfg, _, _ in draws]
    worst = 0.0
    for (cfg, r0, phi0), direct in zip(draws, directs):
        h0 = cfg.hamiltonian.samples([0.0])[0]
        b = cfg.field.value
        fact = evolve_factorized(cfg)
        for t, f_k, d_k in zip(fact.times.tolist(), fact.ks, direct.ks):
            reference = special_diagonal_solution(h0, b, r0, phi0, t, cfg.hbar)
            worst = max(worst, float(np.linalg.norm(f_k - reference)))
            worst = max(worst, float(np.linalg.norm(d_k - reference)))
    return [_result("diagonal_closed_form", worst, 1e-8)]


@_direct_check
def check_critical_points(seed: int, draw_count: int = 10) -> list:
    """Construction residual and pure-phase evolution of critical points."""
    (rng,) = _child_rngs(seed, 1)
    worst_residual = 0.0
    cfgs = []
    nus = []
    for _ in range(draw_count):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(rng, dim, 0.5, 2.5)
        nu = float(np.linalg.eigvalsh(h)[-1]) + rng.uniform(0.4, 0.9)
        b = rng.uniform(0.5, 1.2)
        u = random_unitary(rng, dim)
        k = critical_point(CriticalPointSpec(nu=nu, unitary=u, hamiltonian=h, b=b))
        residual = np.linalg.norm(
            k @ h + (b * b) * adjoint_inverse(k) - nu * k)
        worst_residual = max(worst_residual,
                             float(residual) / float(np.linalg.norm(k)))
        cfgs.append(ScenarioConfig(hbar=1.0,
                                   hamiltonian=HamiltonianProfile.constant(h),
                                   field=FieldProfile.constant(b),
                                   initial_k=k, t_end=1.0, dt=1e-3,
                                   output_stride=1000))
        nus.append(nu)
    worst_phase = 0.0
    directs = yield cfgs
    for cfg, nu, direct in zip(cfgs, nus, directs):
        expected = np.exp(1j * nu * float(direct.times[-1])) * cfg.initial_k
        worst_phase = max(worst_phase, float(np.linalg.norm(direct.ks[-1] - expected)))
    return [
        _result("critical_point_residual", worst_residual, 1e-11),
        _result("critical_point_phase_rotation", worst_phase, 1e-8),
    ]


def check_differential_identity(seed: int, draw_count: int) -> list:
    """Finite-difference directional derivative vs the flow pairing."""
    (rng,) = _child_rngs(seed, 1)
    worst = 0.0
    for _ in range(draw_count):
        dim = int(rng.integers(2, 6))
        k = random_full_rank(rng, dim, 0.6, 1.6)
        h = random_hermitian(rng, dim, 0.3, 2.0)
        b = rng.uniform(0.0, 1.2)
        direction = crandn(rng, dim, dim)
        check = differential_check(k, h, b, direction)
        rel = abs(check.lhs - check.rhs) / (1.0 + abs(check.rhs))
        worst = max(worst, float(rel))
    return [_result("differential_identity", worst, 1e-6)]


def check_energy_rate_order(seed: int) -> list:
    """Predicted vs observed energy rate converges at second order in dt."""
    (rng,) = _child_rngs(seed, 1)
    base = random_scenario(rng, 3, t_end=1.0, dt=1e-2, output_stride=1)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        cfg = replace(base, dt=dt)
        report = invariant_report(evolve_factorized(cfg), cfg)
        errors.append(float(np.max(np.abs(report.xi_rate_predicted[1:-1]
                                          - report.xi_rate_observed[1:-1]))))
    return [_result("energy_rate_order", convergence_order(errors), 1.9, ">=")]


@_direct_check
def check_constant_h_invariant(seed: int, scenario_count: int) -> list:
    """trace(K H K*) is an integral of motion when H is constant."""
    (rng,) = _child_rngs(seed, 1)
    cfgs = []
    for _ in range(scenario_count):
        dim = int(rng.integers(2, 6))
        hamiltonian = HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.5))
        cfgs.append(ScenarioConfig(
            hbar=1.0, hamiltonian=hamiltonian, field=random_sinusoid(rng),
            initial_k=random_full_rank(rng, dim, 0.7, 1.5),
            t_end=1.0, dt=1e-3, output_stride=100))
    worst = 0.0
    directs = yield cfgs
    for cfg, direct in zip(cfgs, directs):
        report = invariant_report(direct, cfg)
        worst = max(worst, report.max_trace_khk_drift())
    return [_result("constant_h_trace_invariant", worst, 1e-8)]


def check_magnus_order(seed: int) -> list:
    """Factorized self-convergence at fourth order: the Magnus step of W."""
    (rng,) = _child_rngs(seed, 1)
    base = random_scenario(rng, 3, t_end=1.0, dt=1e-1, output_stride=10 ** 9)
    finals = [evolve_factorized(replace(base, dt=dt)).ks[-1]
              for dt in (1e-1, 5e-2, 2.5e-2)]
    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1])) for i in range(2)]
    return [_result("magnus_self_convergence_order", convergence_order(diffs), 3.5, ">=")]


def _moving_setup(rng: np.random.Generator, dim_h1: int = 8, dim_h2: int = 5,
                  n: int = 3, t_end: float = 1.0):
    space = AmbientSpace(
        dim_h1=dim_h1, dim_h2=dim_h2, n=n,
        ambient_hamiltonian=random_drifting_hamiltonian(rng, dim_h1, t_end))
    psi0 = random_orthonormal_columns(rng, dim_h1, n)
    phi0 = random_orthonormal_columns(rng, dim_h2, n)
    a0 = random_full_rank(rng, n, 0.7, 1.4)
    return space, psi0, phi0, a0, random_sinusoid(rng)


def check_moving_domain(seed: int) -> list:
    """Image fixedness, radial conservation, weak-residual order, 1x1 form."""
    rng_main, rng_rank1 = _child_rngs(seed, 2)
    space, psi0, phi0, a0, field = _moving_setup(rng_main)
    trajectory = moving_solution(space, psi0, phi0, a0, field, hbar=1.0, t_end=1.0,
                                 dt=1e-3, output_stride=10)
    image, radial = moving_drift(trajectory)
    image_drift = max(image)
    radial_drift = max(radial)

    # Weak-residual order study on a refined grid.
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        ops = moving_solution(space, psi0, phi0, a0, field, hbar=1.0, t_end=0.5,
                              dt=dt, output_stride=1)
        errors.append(max(weak_residual(ops, space, field, hbar=1.0)))

    # Rank-one closed form: constant diagonal ambient H, constant B.
    dim = 6
    energies = np.sort(rng_rank1.uniform(0.5, 2.5, size=dim))
    space1 = AmbientSpace(
        dim_h1=dim, dim_h2=4, n=1,
        ambient_hamiltonian=HamiltonianProfile.constant(np.diag(energies).astype(complex)))
    psi1 = random_orthonormal_columns(rng_rank1, dim, 1)
    phi1 = random_orthonormal_columns(rng_rank1, 4, 1)
    r0 = float(rng_rank1.uniform(0.7, 1.4))
    phase0 = float(rng_rank1.uniform(0.0, 2.0 * np.pi))
    a1 = np.array([[r0 * np.exp(1j * phase0)]])
    b = float(rng_rank1.uniform(0.3, 1.0))
    ops1 = moving_solution(space1, psi1, phi1, a1, FieldProfile.constant(b),
                           hbar=1.0, t_end=1.0, dt=1e-3, output_stride=100)
    h_ambient = space1.ambient_hamiltonian.samples([0.0])[0]
    worst_rank1 = 0.0
    for t, k in zip(ops1.times.tolist(), ops1.ks):
        psi_t = unitary_exponential(h_ambient, -t) @ psi1
        closed = (r0 * np.exp(1j * (phase0 + b * b * t / (r0 * r0)))
                  * (phi1 @ psi_t.conj().T))
        worst_rank1 = max(worst_rank1, float(np.linalg.norm(k - closed)))

    return [
        _result("moving_image_drift", image_drift, 1e-10),
        _result("moving_radial_drift", radial_drift, 1e-9),
        _result("weak_residual_order", convergence_order(errors), 1.9, ">="),
        _result("moving_rank_one_closed_form", worst_rank1, 1e-10),
    ]


def check_moving_full_rank_reduction(seed: int) -> list:
    """At full rank, psi0 = V, phi0 = U, a0 = diag(s) is K0 = U diag(s) V*.

    The moving solution then is the fixed-domain one in K0's singular
    basis; the metric is their largest relative distance over the samples.
    """
    (rng,) = _child_rngs(seed, 1)
    cfg = random_scenario(rng, 3, t_end=1.0, dt=1e-2, output_stride=10)
    u, s, vh = polar_init(cfg.initial_k)
    space = AmbientSpace(dim_h1=3, dim_h2=3, n=3, ambient_hamiltonian=cfg.hamiltonian)
    moving = moving_solution(space, vh.conj().T, u, np.diag(s).astype(complex),
                             cfg.field, cfg.hbar, cfg.t_end, cfg.dt, cfg.output_stride)
    fact = evolve_factorized(cfg)
    worst = max(float(np.linalg.norm(m - f) / np.linalg.norm(f))
                for m, f in zip(moving.ks, fact.ks))
    return [_result("moving_full_rank_reduction", worst, 1e-12)]


def check_gauge_equivalence(seed: int) -> list:
    """Two valid gauges of the same data produce the same physical operator."""
    (rng,) = _child_rngs(seed, 1)
    space, psi0, phi0, a0, field = _moving_setup(rng, dim_h1=6, dim_h2=5, n=2)
    gauges = [(random_hermitian(rng, space.n, -0.8, 0.8),
               random_hermitian(rng, space.n, -0.8, 0.8)) for _ in range(2)]
    distances = gauge_equivalence_checks(space, psi0, phi0, a0, field, hbar=1.0,
                                         t_end=1.0, dt=1e-3, gauges=gauges)
    # Each gauged assembly is compared to the shared gauge-free one, so the
    # distance between the two gauged assemblies is bounded by the sum.
    return [_result("gauge_equivalence", float(sum(distances)), 1e-8)]


@_direct_check
def check_rk4_order(seed: int) -> list:
    """Direct-solver self-convergence at fourth order (uniqueness regression)."""
    (rng,) = _child_rngs(seed, 1)
    base = random_scenario(rng, 3, t_end=1.0, dt=4e-3, output_stride=10 ** 9)
    directs = yield [replace(base, dt=dt) for dt in (4e-3, 2e-3, 1e-3)]
    finals = [direct.ks[-1] for direct in directs]
    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1])) for i in range(2)]
    return [_result("rk4_self_convergence_order", convergence_order(diffs), 3.5, ">=")]


def run_battery(seed: int = 42, scenario_count: int = 10, draw_count: int = 40,
                series_count: int = 5, diagonal_count: int = 5,
                constant_h_count: int = 5) -> list:
    """Run every check with child seeds derived from one root seed.

    The battery runs as two halves by ``concurrency.run_halves``: the
    first in a forked worker beside the second when two CPUs are free,
    else one after the other.  The halves are balanced by their measured
    cost.  The first is the conservation, diagonal, critical-point and
    constant-H checks, whose scenarios share the four t_end 1, dt 1e-3
    grids of dims 2 to 5, integrated in one ``evolve_direct_many`` call.
    The second integrates the series and RK4-order checks in one call,
    where the series' dim-3 members ride on the RK4-order check's dt 1e-3
    run (nested grids), then runs the six checks off the direct route.
    In-process with BLAS pinned each half takes about 0.4 s (README
    "Stacking").  Each result equals its own ``check_*``, and the list
    keeps the battery's order.  Should both halves fail, the first half's
    error is raised.
    """
    def first_half():
        return _run_direct_checks([
            check_conservation_and_agreement.steps(seed + 1, scenario_count),
            check_diagonal_closed_form.steps(seed + 3, diagonal_count),
            check_critical_points.steps(seed + 4),
            check_constant_h_invariant.steps(seed + 7, constant_h_count),
        ])

    def second_half():
        return (_run_direct_checks([check_series_agreement.steps(seed + 2, series_count),
                                    check_rk4_order.steps(seed + 10)])
                + [check_differential_identity(seed + 5, draw_count),
                   check_energy_rate_order(seed + 6),
                   check_moving_domain(seed + 8),
                   check_gauge_equivalence(seed + 9),
                   check_magnus_order(seed + 11),
                   check_moving_full_rank_reduction(seed + 12)])

    (conservation, diagonal, critical, constant_h), (
        series, rk4_order, differential, energy, moving, gauge, magnus, full_rank,
    ) = run_halves(first_half, second_half)
    return (conservation + series + diagonal + critical + differential + energy
            + constant_h + moving + gauge + rk4_order + magnus + full_rank)
