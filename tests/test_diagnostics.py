import dataclasses

import numpy as np
import pytest

from mesodyn import cli
from mesodyn.diagnostics import (
    CriticalPointSpec,
    DiagnosticsReport,
    DifferentialCheck,
    FluxInput,
    critical_point,
    differential_check,
    flux_distribution,
    invariant_report,
    special_diagonal_solution,
    total_hamiltonian,
)
from mesodyn.errors import (
    NearSingularError,
    NonFiniteError,
    NotDiagonalError,
    NuDoesNotDominateError,
    ZeroImageError,
)
from mesodyn.fixed_domain import MAGNUS_CHUNK, evolve_direct, evolve_factorized, polar_init
from mesodyn.linalg import adjoint_inverse, below_floor, hermitian_part, pairing, unitary_defect
from mesodyn.reports import trajectory_csv
from mesodyn.scenario import FieldProfile, HamiltonianProfile, ScenarioConfig
from mesodyn.verification import (
    crandn,
    random_full_rank,
    random_hermitian,
    random_scenario,
    random_unitary,
)


def frob(m):
    return float(np.linalg.norm(m))


def reference_invariant_report(trajectory, cfg):
    """One sample at a time: the definition of every column invariant_report stacks."""
    times, ks = trajectory.times, trajectory.ks
    rates = len(ks) >= 2
    u, s, _ = polar_init(ks[0], cfg.pd_floor)
    radial_inv = hermitian_part((u / s) @ u.conj().T)
    h_samples = cfg.hamiltonian.samples(times)
    b_samples = np.array([cfg.field.sample(float(t)) for t in times])
    if rates:
        h_dot = (np.zeros_like(h_samples) if cfg.hamiltonian.is_constant()
                 else np.gradient(h_samples, times, axis=0))
        b_dot = (np.zeros_like(b_samples) if cfg.field.kind == "constant"
                 else np.gradient(b_samples, times))
    rows = []
    for i, k in enumerate(ks):
        gram = hermitian_part(k @ k.conj().T)
        try:
            w = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError(f"K K* has no eigenvalues: {exc}") from exc
        if below_floor(float(w[0]), float(w[-1]), cfg.pd_floor * cfg.pd_floor):
            raise NearSingularError(
                f"K K* eigenvalue ratio {float(w[0]):.3e}/{float(w[-1]):.3e} "
                f"crosses the floor")
        electronic = float(np.trace(k @ h_samples[i] @ k.conj().T).real)
        entropy = float(np.sum(np.log(w)))
        b = float(b_samples[i])
        if i == 0:
            gram0, gram0_norm, logdet_r2 = gram, float(np.linalg.norm(gram)), entropy
        predicted = (float(np.trace(k @ h_dot[i] @ k.conj().T).real)
                     + 2.0 * b * float(b_dot[i]) * logdet_r2) if rates else 0.0
        rows.append((electronic, electronic + (b * b) * entropy, predicted,
                     float(np.linalg.norm(gram - gram0)) / gram0_norm,
                     unitary_defect(radial_inv @ k)))
    electronic, xi, predicted, kk_drift, defect = map(np.array, zip(*rows))
    observed = np.gradient(xi, times) if rates else np.zeros(1)
    trace0 = electronic[0]
    trace_drift = (np.abs(electronic - trace0) / max(abs(trace0), 1e-300)
                   if cfg.hamiltonian.is_constant() else None)
    return DiagnosticsReport(times=times, xi=xi, xi_rate_predicted=predicted,
                             xi_rate_observed=observed, kk_star_drift=kk_drift,
                             unitarity_defect=defect, trace_khk_drift=trace_drift)


def assert_same_report(report, expected):
    """Every column equal, bit for bit (signed zeros too)."""
    for name in ("times", "xi", "xi_rate_predicted", "xi_rate_observed", "kk_star_drift",
                 "unitarity_defect", "trace_khk_drift"):
        column, want = getattr(report, name), getattr(expected, name)
        if want is None:
            assert column is None, name
            continue
        assert column.dtype == want.dtype and column.shape == want.shape, name
        assert np.array_equal(column, want), name
        assert column.tobytes() == want.tobytes(), name


def coefficient_scenario(rng, dim, constant_h, sinusoid_b, t_end=1.0, dt=1e-2,
                         output_stride=5):
    """Constant or interpolated H, constant or sinusoid B, and log det(K0 K0*) < 0,
    so a constant B's d(B^2)/dt term is -0.0."""
    h0 = random_hermitian(rng, dim, 0.5, 2.0)
    hamiltonian = (HamiltonianProfile.constant(h0) if constant_h else
                   HamiltonianProfile.interpolated(
                       [0.0, t_end], [h0, h0 + random_hermitian(rng, dim, -0.4, 0.4)]))
    field = (FieldProfile.sinusoid(0.4, 0.3, 0.1, 0.7) if sinusoid_b
             else FieldProfile.constant(0.8))
    return ScenarioConfig(hbar=1.0, hamiltonian=hamiltonian, field=field,
                          initial_k=random_full_rank(rng, dim, 0.3, 0.8), t_end=t_end,
                          dt=dt, output_stride=output_stride)


def prefix(trajectory, count):
    return dataclasses.replace(trajectory, times=trajectory.times[:count],
                               ks=trajectory.ks[:count])


def sub_floor(k):
    """k with its first row zeroed: K K* has an exactly zero eigenvalue."""
    k = k.copy()
    k[0] = 0.0
    return k


class TestTotalHamiltonian:
    def test_identity_operator(self):
        value = total_hamiltonian(np.eye(2, dtype=complex), np.diag([1.0, 2.0]), 1.0)
        assert value == pytest.approx(3.0, abs=1e-14)

    def test_log_det_term(self):
        # K = 2I: trace term 0, entropy term log det(4 I_2) = log 16
        value = total_hamiltonian(2.0 * np.eye(2, dtype=complex),
                                  np.zeros((2, 2)), 1.0)
        assert value == pytest.approx(np.log(16.0), abs=1e-12)

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingularError):
            total_hamiltonian(np.diag([1.0, 1e-14]).astype(complex),
                              np.eye(2), 1.0)

    def test_stationary_at_critical_point(self, rng):
        h = random_hermitian(rng, 3, 0.5, 2.0)
        nu = float(np.linalg.eigvalsh(h)[-1]) + 0.6
        b = 0.9
        k = critical_point(CriticalPointSpec(nu=nu, unitary=random_unitary(rng, 3),
                                             hamiltonian=h, b=b))
        for _ in range(5):
            # project out K: directions that keep trace(K K*) to first order
            l = crandn(rng, 3, 3)
            direction = l - (pairing(k, l).riemannian / pairing(k, k).riemannian) * k
            check = differential_check(k, h, b, direction)
            assert abs(check.lhs) <= 1e-6 * max(1.0, frob(direction))


class TestDifferentialCheck:
    def test_zero_direction(self, rng):
        k = random_full_rank(rng, 2, 0.8, 1.4)
        h = random_hermitian(rng, 2, 0.5, 2.0)
        check = differential_check(k, h, 0.7, np.zeros((2, 2)))
        assert check == DifferentialCheck(0.0, 0.0, 0.0)

    def test_quadratic_scalar_case(self):
        # Xi(I + eps I) = 2 (1 + eps)^2 for H = I, B = 0: derivative 4
        check = differential_check(np.eye(2, dtype=complex), np.eye(2), 0.0,
                                   np.eye(2, dtype=complex))
        assert check.lhs == pytest.approx(4.0, abs=1e-9)
        assert check.rhs == pytest.approx(4.0, abs=1e-14)

    def test_random_agreement(self, rng):
        for _ in range(10):
            k = random_full_rank(rng, 3, 0.6, 1.6)
            h = random_hermitian(rng, 3, 0.3, 2.0)
            b = rng.uniform(0.0, 1.2)
            direction = crandn(rng, 3, 3)
            check = differential_check(k, h, b, direction)
            assert abs(check.lhs - check.rhs) <= 1e-6 * (1.0 + abs(check.rhs))

    def test_symplectic_form_equals_riemannian_form(self, rng):
        k = random_full_rank(rng, 3, 0.6, 1.6)
        h = random_hermitian(rng, 3, 0.3, 2.0)
        check = differential_check(k, h, 0.8, crandn(rng, 3, 3))
        assert check.rhs == pytest.approx(check.rhs_symplectic, abs=1e-12)


class TestHamiltonianRate:
    def test_constant_coefficients_rate_vanishes(self, rng):
        h = random_hermitian(rng, 3, 0.5, 2.0)
        cfg = ScenarioConfig(hbar=1.0,
                             hamiltonian=HamiltonianProfile.constant(h),
                             field=FieldProfile.constant(0.8),
                             initial_k=random_full_rank(rng, 3, 0.7, 1.4),
                             t_end=1.0, dt=1e-3, output_stride=100)
        report = invariant_report(evolve_factorized(cfg), cfg)
        for predicted, observed in zip(report.xi_rate_predicted[1:-1],
                                       report.xi_rate_observed[1:-1]):
            assert abs(predicted) <= 1e-8
            assert abs(observed) <= 1e-8

    def test_linear_field_rate(self, rng):
        # constant H, B(t) = t: rate = 2 t log det(K0 K0*)
        k0 = random_full_rank(rng, 2, 0.7, 1.4)
        logdet = float(np.sum(np.log(np.linalg.eigvalsh(k0 @ k0.conj().T))))
        cfg = ScenarioConfig(hbar=1.0,
                             hamiltonian=HamiltonianProfile.constant(
                                 random_hermitian(rng, 2, 0.5, 2.0)),
                             field=FieldProfile.linear_ramp(1.0, 0.0),
                             initial_k=k0, t_end=1.0, dt=1e-3, output_stride=100)
        report = invariant_report(evolve_factorized(cfg), cfg)
        for t, predicted, observed in zip(report.times[1:-1],
                                          report.xi_rate_predicted[1:-1],
                                          report.xi_rate_observed[1:-1]):
            assert predicted == pytest.approx(2.0 * t * logdet, abs=1e-10)
            assert observed == pytest.approx(predicted, abs=1e-4)


class TestInvariantReport:
    def test_factorized_drift(self, rng):
        cfg = random_scenario(rng, 3, dt=1e-3, output_stride=100)
        report = invariant_report(evolve_factorized(cfg), cfg)
        assert report.max_kk_star_drift() <= 1e-10
        assert report.trace_khk_drift is None
        assert all(np.isfinite(xi) for xi in report.xi)

    def test_direct_drift_and_unitarity(self, rng):
        cfg = random_scenario(rng, 3, dt=1e-3, output_stride=100)
        report = invariant_report(evolve_direct(cfg), cfg)
        assert report.max_kk_star_drift() <= 1e-8
        assert all(defect <= 1e-8 for defect in report.unitarity_defect)

    def test_constant_h_trace_invariant(self, rng):
        h = random_hermitian(rng, 3, 0.5, 2.0)
        cfg = ScenarioConfig(hbar=1.0,
                             hamiltonian=HamiltonianProfile.constant(h),
                             field=FieldProfile.sinusoid(0.4, 0.3, 0.1, 0.7),
                             initial_k=random_full_rank(rng, 3, 0.7, 1.4),
                             t_end=1.0, dt=1e-3, output_stride=100)
        report = invariant_report(evolve_direct(cfg), cfg)
        assert report.max_trace_khk_drift() <= 1e-8

    @pytest.mark.parametrize("dim", [3, 40])
    def test_one_eigvalsh_per_chunk(self, rng, monkeypatch, dim):
        cfg = random_scenario(rng, dim, t_end=0.1, dt=1e-3, output_stride=10)
        trajectory = evolve_factorized(cfg)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        report = invariant_report(trajectory, cfg)
        monkeypatch.undo()
        assert len(trajectory.ks) == 11
        chunk = max(1, MAGNUS_CHUNK // dim ** 2)  # 1820 at dim 3, 10 at dim 40
        assert calls == [(min(chunk, 11 - start), dim, dim)
                         for start in range(0, 11, chunk)]
        for t, xi, k in zip(report.times, report.xi, trajectory.ks):
            assert xi == total_hamiltonian(k, cfg.hamiltonian.samples([t])[0],
                                           cfg.field.sample(t))

    def test_one_column_per_quantity(self, rng):
        cfg = random_scenario(rng, 3, dt=1e-2, output_stride=10)
        trajectory = evolve_direct(cfg)
        report = invariant_report(trajectory, cfg)
        assert report.times is trajectory.times
        for column in (report.xi, report.xi_rate_predicted, report.xi_rate_observed,
                       report.kk_star_drift, report.unitarity_defect):
            assert column.shape == trajectory.times.shape
        assert report.kk_star_drift[0] == 0.0
        assert report.max_kk_star_drift() == max(report.kk_star_drift)

    def test_non_finite_sample_is_typed_error(self, rng):
        # a direct run stopped by overflow may end on a non-finite sample
        cfg = random_scenario(rng, 3, dt=1e-2, output_stride=10)
        trajectory = evolve_direct(cfg)
        trajectory.ks[-1] = np.full((3, 3), np.inf + 0j)
        with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
            invariant_report(trajectory, cfg)


class TestStackedInvariantReport:
    """invariant_report against the per-sample loop it stacks, bit for bit."""

    @pytest.mark.parametrize("constant_h", [True, False])
    @pytest.mark.parametrize("sinusoid_b", [True, False])
    def test_columns_match_the_per_sample_loop(self, rng, constant_h, sinusoid_b):
        cfg = coefficient_scenario(rng, 3, constant_h, sinusoid_b)
        for trajectory in (evolve_direct(cfg), evolve_factorized(cfg)):
            assert len(trajectory.ks) == 21
            report = invariant_report(trajectory, cfg)
            assert_same_report(report, reference_invariant_report(trajectory, cfg))
            if constant_h and not sinusoid_b:
                # 0.0 + (-0.0): the rate of a constant H and B is +0.0, as before
                assert report.xi_rate_predicted.tobytes() == np.zeros(21).tobytes()

    def test_one_sample(self, rng):
        cfg = coefficient_scenario(rng, 3, False, True)
        trajectory = prefix(evolve_factorized(cfg), 1)
        assert_same_report(invariant_report(trajectory, cfg),
                           reference_invariant_report(trajectory, cfg))

    @pytest.mark.parametrize("constant_h", [True, False])
    def test_lengths_around_the_chunk(self, rng, constant_h):
        dim = 40
        chunk = MAGNUS_CHUNK // dim ** 2
        assert chunk == 10
        cfg = coefficient_scenario(rng, dim, constant_h, True, t_end=0.1, output_stride=1)
        trajectory = evolve_factorized(cfg)
        for count in (chunk - 1, chunk, chunk + 1):
            part = prefix(trajectory, count)
            assert_same_report(invariant_report(part, cfg),
                               reference_invariant_report(part, cfg))

    @pytest.mark.parametrize("bad", [
        {13: "sub-floor"}, {13: "inf"}, {10: "nan"},
        {12: "nan", 14: "sub-floor"}, {12: "sub-floor", 14: "inf"},
    ], ids=["sub-floor", "inf", "nan-first-in-chunk", "non-finite-first",
            "sub-floor-first"])
    def test_first_failing_sample_raises_its_own_error(self, rng, tmp_path, bad):
        # dim 40 takes 10 samples per stack: every bad sample is in the second
        cfg = coefficient_scenario(rng, 40, True, True, t_end=0.2, output_stride=1)
        trajectory = evolve_factorized(cfg)
        for i, kind in bad.items():
            trajectory.ks[i] = (sub_floor(trajectory.ks[i]) if kind == "sub-floor"
                                else np.full((40, 40), complex(np.inf if kind == "inf"
                                                               else np.nan)))
        with np.errstate(all="ignore"):
            with pytest.raises((NearSingularError, NonFiniteError)) as expected:
                reference_invariant_report(trajectory, cfg)
            with pytest.raises(expected.type) as raised:
                invariant_report(trajectory, cfg)
        assert str(raised.value) == str(expected.value)
        # so the stopped run's bisection keeps the samples before the first bad one
        first = min(bad)
        ws = cli._Workspace(str(tmp_path), "")
        cli._retain_partial(ws, NearSingularError("stopped", partial=trajectory), cfg)
        kept = prefix(trajectory, first)
        assert (tmp_path / "trajectory_factorized.csv").read_text() == "".join(
            trajectory_csv(kept, reference_invariant_report(kept, cfg)))


class TestCriticalPoint:
    def test_closed_form_values(self):
        spec = CriticalPointSpec(nu=3.0, unitary=np.eye(2, dtype=complex),
                                 hamiltonian=np.diag([1.0, 2.0]), b=1.0)
        k = critical_point(spec)
        assert np.allclose(np.diag(k), [1.0 / np.sqrt(2.0), 1.0], atol=1e-12)

    def test_zero_hamiltonian_limit(self):
        spec = CriticalPointSpec(nu=1.0, unitary=np.eye(2, dtype=complex),
                                 hamiltonian=np.zeros((2, 2)), b=1.0)
        assert np.allclose(critical_point(spec), np.eye(2), atol=1e-12)

    def test_euler_lagrange_residual(self, rng):
        h = random_hermitian(rng, 4, 0.5, 2.5)
        nu = float(np.linalg.eigvalsh(h)[-1]) + 0.5
        b = 0.8
        k = critical_point(CriticalPointSpec(nu=nu, unitary=random_unitary(rng, 4),
                                             hamiltonian=h, b=b))
        residual = frob(k @ h + b * b * adjoint_inverse(k) - nu * k)
        assert residual <= 1e-11 * frob(k)

    def test_dominance_enforced(self, rng):
        h = random_hermitian(rng, 3, 0.5, 2.0)
        nu = float(np.linalg.eigvalsh(h)[-1])  # not strictly dominating
        with pytest.raises(NuDoesNotDominateError):
            critical_point(CriticalPointSpec(nu=nu, unitary=np.eye(3, dtype=complex),
                                             hamiltonian=h, b=1.0))

    def test_phase_rotation_under_direct_flow(self, rng):
        h = random_hermitian(rng, 3, 0.5, 2.0)
        nu = float(np.linalg.eigvalsh(h)[-1]) + 0.7
        b = 0.9
        k = critical_point(CriticalPointSpec(nu=nu, unitary=random_unitary(rng, 3),
                                             hamiltonian=h, b=b))
        cfg = ScenarioConfig(hbar=1.0,
                             hamiltonian=HamiltonianProfile.constant(h),
                             field=FieldProfile.constant(b), initial_k=k,
                             t_end=1.0, dt=1e-3, output_stride=1000)
        final = evolve_direct(cfg)
        assert frob(final.ks[-1] - np.exp(1j * nu * final.times[-1]) * k) <= 1e-8


class TestSpecialDiagonalSolution:
    def test_unit_case_full_revolution(self):
        # r0 = E = B = hbar = 1: phase 2 pi at t = pi
        k = special_diagonal_solution(np.array([[1.0]]), 1.0, [1.0], [0.0],
                                      np.pi, 1.0)
        assert abs(k[0, 0] - 1.0) <= 1e-12

    def test_free_case_is_frozen(self):
        k0 = special_diagonal_solution(np.zeros((2, 2)), 0.0, [1.0, 2.0],
                                       [0.3, 0.7], 5.0, 1.0)
        expected = np.diag([np.exp(0.3j), 2.0 * np.exp(0.7j)])
        assert frob(k0 - expected) <= 1e-12

    def test_correlated_radii_reproduce_critical_point(self):
        # r_n = B / sqrt(nu - E_n) makes the diagonal solution a critical point
        energies = np.array([0.5, 1.0, 1.5])
        nu, b = 2.5, 0.8
        radii = b / np.sqrt(nu - energies)
        k = special_diagonal_solution(np.diag(energies), b, radii,
                                      np.zeros(3), 0.0, 1.0)
        spec = CriticalPointSpec(nu=nu, unitary=np.eye(3, dtype=complex),
                                 hamiltonian=np.diag(energies), b=b)
        assert frob(k - critical_point(spec)) <= 1e-12

    def test_matches_solvers(self, rng):
        energies = np.sort(rng.uniform(0.5, 2.5, size=3))
        b = 0.8
        r0 = rng.uniform(0.7, 1.4, size=3)
        phi0 = rng.uniform(0.0, 2 * np.pi, size=3)
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(np.diag(energies).astype(complex)),
            field=FieldProfile.constant(b),
            initial_k=np.diag(r0 * np.exp(1j * phi0)),
            t_end=1.0, dt=1e-3, output_stride=250)
        fact = evolve_factorized(cfg)
        direct = evolve_direct(cfg)
        for t, f, d in zip(fact.times, fact.ks, direct.ks):
            closed = special_diagonal_solution(np.diag(energies), b, r0, phi0,
                                               t, 1.0)
            assert frob(f - closed) <= 1e-8
            assert frob(d - closed) <= 1e-8

    def test_rejects_off_diagonal(self):
        with pytest.raises(NotDiagonalError):
            special_diagonal_solution(np.array([[1.0, 0.5], [0.5, 2.0]]), 1.0,
                                      [1.0, 1.0], [0.0, 0.0], 1.0, 1.0)

    def test_rejects_non_positive_radius(self):
        with pytest.raises(ValueError):
            special_diagonal_solution(np.diag([1.0, 2.0]), 1.0, [1.0, 0.0],
                                      [0.0, 0.0], 1.0, 1.0)


class TestFluxDistribution:
    def test_basis_state(self):
        out = flux_distribution(np.eye(2, dtype=complex),
                                FluxInput(upsilon=np.array([1.0, 0.0]),
                                          total_flux=1.0))
        assert np.allclose(out, [1.0, 0.0])

    def test_balanced_state(self):
        out = flux_distribution(np.eye(2, dtype=complex),
                                FluxInput(upsilon=np.array([1.0, 1.0]) / np.sqrt(2),
                                          total_flux=2.0))
        assert np.allclose(out, [1.0, 1.0])

    def test_normalization_random(self, rng):
        k = crandn(rng, 4, 3)
        upsilon = crandn(rng, 3)
        out = flux_distribution(k, FluxInput(upsilon=upsilon, total_flux=1.7))
        assert np.all(out >= 0.0)
        assert abs(float(np.sum(out)) - 1.7) <= 1e-12

    def test_zero_image_rejected(self):
        k = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ZeroImageError):
            flux_distribution(k, FluxInput(upsilon=np.array([0.0, 1.0]),
                                           total_flux=1.0))

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            flux_distribution(np.eye(2, dtype=complex),
                              FluxInput(upsilon=np.zeros(2), total_flux=1.0))
