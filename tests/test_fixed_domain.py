import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mesodyn import fixed_domain
from mesodyn.diagnostics import invariant_report
from mesodyn.errors import (
    ConvergenceWarning,
    NearSingularError,
    NonFiniteError,
    NonSquareError,
    RequiresConstantCoefficientsError,
    ShapeMismatchError,
    TruncationDominatesError,
)
from mesodyn.fixed_domain import (
    evolve_direct,
    evolve_direct_many,
    evolve_factorized,
    evolve_series,
    magnetic_factor,
    polar_init,
    rk4,
    series_unitary,
    unitary_propagator,
)
from mesodyn.linalg import adjoint_inverse, hermitian_part, unitary_exponential
from mesodyn.scenario import (
    FieldProfile,
    HamiltonianProfile,
    ScenarioConfig,
    integrate_b_squared,
    step_plan,
)
from mesodyn.verification import (
    crandn,
    random_drifting_hamiltonian,
    random_full_rank,
    random_hermitian,
    random_scenario,
    random_sinusoid,
    random_unitary,
)


def frob(m):
    return float(np.linalg.norm(m))


def constant_config(h, b, k0, t_end=1.0, dt=1e-3, stride=100, hbar=1.0):
    return ScenarioConfig(
        hbar=hbar,
        hamiltonian=HamiltonianProfile.constant(np.asarray(h, dtype=complex)),
        field=FieldProfile.constant(b),
        initial_k=np.asarray(k0, dtype=complex),
        t_end=t_end, dt=dt, output_stride=stride)


def output_times(cfg):
    return step_plan(cfg.t_end, cfg.dt, cfg.output_stride).output_times


def samples(trajectory):
    """(t, K) per sample."""
    return zip(trajectory.times, trajectory.ks, strict=True)


def polar_factors(k0):
    """(radial, u0, (K0 K0*)^-1) built from polar_init's SVD as evolve_series does."""
    u, s, vh = polar_init(k0)
    uh = u.conj().T
    return (hermitian_part((u * s) @ uh), u @ vh,
            hermitian_part((u / (s * s)) @ uh))


def evolve_w(w0, cfg):
    """W(t) from W(0) = w0 on the scenario's output grid, as evolve_factorized has it."""
    plan = step_plan(cfg.t_end, cfg.dt, cfg.output_stride)
    return unitary_propagator(w0, cfg.hamiltonian.generator(), plan.times,
                              set(plan.output_indices), cfg.hbar)


def evolve_v(k0, cfg):
    """The magnetic factor V(t) = U diag(v(t)) U* on the scenario's output grid."""
    u, s, _ = polar_init(k0)
    plan = step_plan(cfg.t_end, cfg.dt, cfg.output_stride)
    return [(u * v) @ u.conj().T
            for v in magnetic_factor(s, cfg.field, cfg.hbar, plan.output_times)]


def assert_polar_split(k0, rtol):
    """polar_init's SVD and the factors built from it agree with K0."""
    dim = k0.shape[0]
    eye = np.eye(dim)
    u, s, vh = polar_init(k0)
    assert frob((u * s) @ vh - k0) <= rtol * frob(k0)
    assert frob(u.conj().T @ u - eye) <= 1e-12 * np.sqrt(dim)
    assert frob(vh @ vh.conj().T - eye) <= 1e-12 * np.sqrt(dim)
    radial, u0, h_b_base = polar_factors(k0)
    assert frob(radial @ u0 - k0) <= rtol * frob(k0)
    assert frob(u0.conj().T @ u0 - eye) <= 1e-12 * np.sqrt(dim)
    radial_inv = (u / s) @ u.conj().T
    assert frob(radial_inv @ radial - eye) <= rtol * np.sqrt(dim)
    gram = k0 @ k0.conj().T
    assert frob(h_b_base @ gram - eye) <= rtol * np.sqrt(dim)
    # radial is positive definite with K0's singular values as eigenvalues
    w = np.linalg.eigvalsh(radial)
    expected = np.linalg.svd(k0, compute_uv=False)[::-1]
    assert np.all(w > 0)
    assert np.max(np.abs(w - expected)) <= rtol * expected[-1]
    assert np.max(np.abs(s[::-1] - expected)) <= rtol * expected[-1]


class TestPolarInit:
    """The SVD K0 = U diag(s) V* that polar_init returns, and the polar split from it."""

    def test_positive_diagonal(self):
        k0 = np.diag([2.0, 3.0]).astype(complex)
        _, s, _ = polar_init(k0)
        radial, u0, h_b_base = polar_factors(k0)
        assert np.allclose(s, [3.0, 2.0])
        assert np.allclose(radial, np.diag([2.0, 3.0]))
        assert np.allclose(u0, np.eye(2))
        assert np.allclose(h_b_base, np.diag([0.25, 1.0 / 9.0]))

    def test_scalar_phase(self):
        _, s, _ = polar_init(np.array([[1j]]))
        radial, u0, h_b_base = polar_factors(np.array([[1j]]))
        assert np.allclose(s, [1.0])
        assert np.allclose(radial, [[1.0]])
        assert np.allclose(u0, [[1j]])
        assert np.allclose(h_b_base, [[1.0]])

    def test_reconstruction(self, rng):
        k0 = random_full_rank(rng, 4, 0.5, 2.0)
        radial, _, _ = polar_factors(k0)
        assert frob(radial @ radial - k0 @ k0.conj().T) <= 1e-11
        assert_polar_split(k0, 1e-12)

    def test_ill_conditioned_hilbert_like(self):
        n = 6
        hilbert = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
        try:
            u, s, vh = polar_init(hilbert)
        except NearSingularError:
            return  # also acceptable per the contract
        cond = np.linalg.cond(hilbert)
        eye = np.eye(n)
        assert frob((u * s) @ vh - hilbert) <= 1e-14 * cond
        assert frob(u.conj().T @ u - eye) <= 1e-12 * np.sqrt(n)
        assert frob(vh @ vh.conj().T - eye) <= 1e-12 * np.sqrt(n)
        radial, _, h_b_base = polar_factors(hilbert)
        radial_inv = (u / s) @ u.conj().T
        assert frob(radial_inv @ radial - eye) <= 1e-14 * cond
        assert frob(h_b_base @ hilbert @ hilbert - eye) <= 1e-14 * cond ** 2

    def test_near_singular(self):
        with pytest.raises(NearSingularError):
            polar_init(np.diag([1.0, 1e-14]).astype(complex))
        with pytest.raises(NearSingularError):
            polar_init(np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_rectangular(self):
        with pytest.raises(NonSquareError):
            polar_init(np.ones((2, 3)))


_unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                   allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=arrays(np.complex128, (3, 3), elements=_unit_complex))
def test_polar_split_property(m):
    # ||m||_2 <= ||m||_F <= 3, so shifting by 4I keeps every singular value >= 1
    k0 = m + 4.0 * np.eye(3)
    assert_polar_split(k0, 1e-13)


class TestEvolveW:
    def test_constant_diagonal_phases(self):
        cfg = constant_config(np.diag([1.0, 2.0]), 0.0, np.eye(2), stride=500)
        for t, w in zip(output_times(cfg), evolve_w(np.eye(2), cfg)):
            expected = np.diag(np.exp(1j * np.array([1.0, 2.0]) * t))
            assert frob(w - expected) <= 1e-12

    def test_zero_hamiltonian_freezes(self, rng):
        k0 = random_full_rank(rng, 3, 0.5, 1.5)
        cfg = constant_config(np.zeros((3, 3)), 1.0, k0, stride=250)
        _, _, vh = polar_init(k0)
        for w in evolve_w(vh, cfg):
            assert frob(w - vh) <= 1e-12

    def test_self_convergence_fourth_order(self, rng):
        # time-dependent H: halving dt cuts the Magnus error about 16x; the
        # ladder keeps the errors (about 1e-8 and 1e-9) far above roundoff
        h0 = random_hermitian(rng, 3, 0.5, 2.0)
        h1 = random_hermitian(rng, 3, 0.5, 2.0)
        profile = HamiltonianProfile.interpolated([0.0, 1.0], [h0, h1])
        k0 = random_full_rank(rng, 3, 0.7, 1.4)

        def final_w(dt):
            cfg = ScenarioConfig(hbar=1.0, hamiltonian=profile,
                                 field=FieldProfile.constant(0.0),
                                 initial_k=k0, t_end=1.0, dt=dt,
                                 output_stride=10 ** 9)
            return evolve_w(polar_init(k0)[2], cfg)[-1]

        reference = final_w(1 / 320)
        e_coarse = frob(final_w(1e-1) - reference)
        e_fine = frob(final_w(5e-2) - reference)
        assert e_fine >= 1e-11
        assert 14.0 <= e_coarse / e_fine <= 18.0

    def test_unitary_along_the_way(self, rng):
        cfg = random_scenario(rng, 4, dt=2e-3, output_stride=50)
        for w in evolve_w(polar_init(cfg.initial_k)[2], cfg):
            assert frob(w.conj().T @ w - np.eye(4)) <= 1e-12


class TestUnitaryPropagator:
    """The exact (matrix) and Magnus (sampler) methods of one propagator."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_matrix_and_sampler_agree(self, rng, sign):
        # the opposite sign, i hbar dU/dt = +U G, is the generator -G
        h = sign * random_hermitian(rng, 3, 0.5, 2.0)
        _, _, u0 = polar_init(random_full_rank(rng, 3, 0.7, 1.4))
        # 100 steps: the product's roundoff grows with the step count
        plan = step_plan(1.0, 1e-2, 10)
        wanted = set(plan.output_indices)
        exact = unitary_propagator(u0, h, plan.times, wanted, 0.7)
        # a sampler returns the (T, n, n) stack of G at its T times
        stepped = unitary_propagator(
            u0, lambda times: np.broadcast_to(h, (len(times),) + h.shape),
            plan.times, wanted, 0.7)
        assert len(exact) == len(stepped) == len(wanted)
        for a, b in zip(exact, stepped):
            assert frob(a - b) <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sampler_is_fourth_order_against_rk4(self, rng, sign):
        # a generator that does not commute with itself over time, checked
        # against RK4 on i hbar dU/dt = -U G itself: the commutator's sign
        # is what makes the error fall 16x per halving (the wrong sign, 4x)
        a = random_hermitian(rng, 3, 0.5, 2.0)
        b = random_hermitian(rng, 3, -1.0, 1.0)

        def g(t):
            return sign * (np.cos(t) * a + np.sin(2.0 * t) * b)

        hbar = 0.7
        _, _, u0 = polar_init(random_full_rank(rng, 3, 0.7, 1.4))
        fine = step_plan(1.0, 1e-3, 1).times
        (reference,) = rk4(lambda t, u: (1j / hbar) * (u @ g(t)), u0, fine,
                           {len(fine) - 1})

        def error(dt):
            times = step_plan(1.0, dt, 1).times
            (u,) = unitary_propagator(u0, lambda ts: np.array([g(t) for t in ts]),
                                      times, {len(times) - 1}, hbar)
            return frob(u - reference)

        e_coarse, e_fine = error(1e-1), error(5e-2)
        assert e_fine >= 1e-10
        assert 14.0 <= e_coarse / e_fine <= 18.0


def reference_magnus(u0, sample, times, wanted, hbar):
    """The fourth-order Magnus product one step at a time, from scalar samples."""
    lo, hi = 0.5 - 3.0 ** 0.5 / 6.0, 0.5 + 3.0 ** 0.5 / 6.0
    u = u0
    out = [u0.copy()] if 0 in wanted else []
    for i in range(len(times) - 1):
        t = float(times[i])
        dt = float(times[i + 1] - times[i])
        g1 = sample(t + lo * dt)
        g2 = sample(t + hi * dt)
        x = g1 @ g2
        m = 0.5 * (g1 + g2) + (1j * (3.0 ** 0.5 / 12.0) * dt / hbar) * (x - x.conj().T)
        w, q = np.linalg.eigh(m)
        u = u @ ((q * np.exp(1j * (dt / hbar) * w)) @ q.conj().T)
        if (i + 1) in wanted:
            out.append(u)
    return out


class TestStackedMagnus:
    """The chunked Magnus product is the per-step product, bit for bit."""

    @pytest.mark.parametrize("budget, dim, steps", [
        (40, 2, 23),       # chunks of 10 steps, the last one of 3
        (40, 3, 10),       # chunks of 4, the last one of 2
        (40, 7, 5),        # 49 entries over the budget: one step per chunk
        (None, 3, 7),      # the module's budget: one chunk
        (None, 90, 3),     # the module's budget: chunks of 2, the last one of 1
        (None, 91, 2),     # the first dim of one step per chunk
    ])
    @pytest.mark.parametrize("every", [False, True], ids=["chunk_edges", "every_step"])
    def test_equals_per_step_product(self, rng, monkeypatch, budget, dim, steps, every):
        if budget is not None:
            monkeypatch.setattr(fixed_domain, "MAGNUS_CHUNK", budget)
        chunk = max(1, fixed_domain.MAGNUS_CHUNK // dim ** 2)
        profile = HamiltonianProfile.interpolated(
            [0.0, 0.5, 1.0], [random_hermitian(rng, dim, 0.5, 2.0) for _ in range(3)])
        times = step_plan(1.0, 1.0 / steps).times
        wanted = (set(range(steps + 1)) if every
                  else {0, steps} | set(range(chunk, steps, chunk)) | {chunk + 1})
        square = random_unitary(rng, dim)
        for u0 in (square, square[:2]):  # rectangular, as the moving frame's bras
            got = unitary_propagator(u0, profile.generator(), times, wanted, 0.7)
            expected = reference_magnus(u0, lambda t: profile.samples([t])[0], times,
                                        wanted, 0.7)
            assert len(got) == len(expected) == len(wanted & set(range(steps + 1)))
            for a, b in zip(got, expected):
                assert a.tobytes() == b.tobytes()


class TestSharedEigendecomposition:
    """The constant-generator paths equal one exponential per output time."""

    def test_propagator_equals_per_time_exponentials(self, rng):
        h = random_hermitian(rng, 4, 0.5, 2.0)
        _, _, u0 = polar_init(random_full_rank(rng, 4, 0.7, 1.4))
        plan = step_plan(1.0, 1e-2, 7)
        times = plan.output_times
        for g in (h, -h):
            us = unitary_propagator(u0, g, plan.times, set(plan.output_indices), 0.7)
            assert len(us) == len(times)
            for u, t in zip(us, times):
                assert np.array_equal(u, u0 @ unitary_exponential(g, t / 0.7))

    def test_magnetic_factor_equals_per_time_exponentials(self, rng):
        # U diag(v) U* is the exponential of the generator U diag(s^-2) U*
        u, s, _ = polar_init(random_full_rank(rng, 3, 0.5, 1.5))
        base = hermitian_part((u / (s * s)) @ u.conj().T)
        field = FieldProfile.sinusoid(0.9, 1.3, 0.4, 0.2)
        times = [0.0, 0.0, 0.25, 0.5, 0.5, 1.0]
        out = magnetic_factor(s, field, 1.3, times)
        assert len(out) == len(times)
        acc, prev = 0.0, 0.0
        for v, t in zip(out, times):
            if t > prev:
                acc += integrate_b_squared(field, prev, t)
                prev = t
            assert v.shape == s.shape
            expected = unitary_exponential(base, acc / 1.3)
            assert frob((u * v) @ u.conj().T - expected) <= 1e-12


class TestEvolveV:
    def test_zero_field_identity(self, rng):
        k0 = random_full_rank(rng, 3, 0.5, 1.5)
        cfg = constant_config(np.eye(3), 0.0, k0, stride=200)
        for v in evolve_v(k0, cfg):
            assert frob(v - np.eye(3)) <= 1e-13

    def test_diagonal_phases_at_pi(self):
        # K0 K0* = diag(1, 4), B = 1: V(pi) = diag(e^{i pi}, e^{i pi/4})
        k0 = np.diag([1.0, 2.0]).astype(complex)
        cfg = constant_config(np.eye(2), 1.0, k0, t_end=np.pi, dt=np.pi / 100,
                              stride=10 ** 9)
        t, v = output_times(cfg)[-1], evolve_v(k0, cfg)[-1]
        assert t == pytest.approx(np.pi)
        expected = np.diag([np.exp(1j * np.pi), np.exp(1j * np.pi / 4)])
        assert frob(v - expected) <= 1e-12

    def test_sine_field_scalar(self):
        # B = sin t on [0, pi], K0 = 1: V(pi) = exp(i pi/2) = i
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(np.eye(1, dtype=complex)),
            field=FieldProfile.sinusoid(1.0, 1.0 / (2 * np.pi)),
            initial_k=np.eye(1, dtype=complex),
            t_end=np.pi, dt=np.pi / 100, output_stride=10 ** 9)
        v = evolve_v(cfg.initial_k, cfg)[-1]
        assert abs(v[0, 0] - 1j) <= 1e-10

    def test_commutes_with_generator(self, rng):
        cfg = random_scenario(rng, 3, dt=2e-3, output_stride=100)
        _, _, h_b_base = polar_factors(cfg.initial_k)
        for v in evolve_v(cfg.initial_k, cfg):
            comm = v @ h_b_base - h_b_base @ v
            assert frob(comm) <= 1e-12


class TestEvolveFactorized:
    def test_scalar_closed_form(self):
        # K0 = r0 e^{i phi0}, constant E and B:
        # K(t) = r0 exp(i[(E + B^2/r0^2) t / hbar + phi0])
        r0, phi0, energy, b, hbar = 1.3, 0.4, 1.2, 0.8, 0.9
        k0 = np.array([[r0 * np.exp(1j * phi0)]])
        cfg = constant_config([[energy]], b, k0, hbar=hbar, stride=100)
        for t, k in samples(evolve_factorized(cfg)):
            phase = (energy + b * b / r0 ** 2) * t / hbar + phi0
            assert abs(k[0, 0] - r0 * np.exp(1j * phase)) <= 1e-12

    def test_unit_scalar_gives_double_phase(self):
        # r0 = E = B = hbar = 1, phi0 = 0: K(t) = e^{2it}
        cfg = constant_config([[1.0]], 1.0, [[1.0]], stride=100)
        for t, k in samples(evolve_factorized(cfg)):
            assert abs(k[0, 0] - np.exp(2j * t)) <= 1e-12

    def test_free_case_is_frozen(self, rng):
        k0 = random_full_rank(rng, 3, 0.5, 1.5)
        cfg = constant_config(np.zeros((3, 3)), 0.0, k0, stride=100)
        for k in evolve_factorized(cfg).ks:
            assert frob(k - k0) <= 1e-12

    def test_initial_condition_reproduced(self, rng):
        cfg = random_scenario(rng, 4)
        trajectory = evolve_factorized(cfg)
        assert trajectory.times[0] == 0.0
        assert frob(trajectory.ks[0] - cfg.initial_k) <= 1e-12 * frob(cfg.initial_k)

    def test_against_direct_solver(self, rng):
        h0 = random_hermitian(rng, 3, 0.5, 2.0)
        h1 = (h0 + random_hermitian(rng, 3, -0.4, 0.4) + h0.conj().T) / 2
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.interpolated([0.0, 1.0], [h0, h1]),
            field=FieldProfile.sinusoid(0.4, 0.25, 0.3, 0.7),
            initial_k=random_full_rank(rng, 3, 0.7, 1.4),
            t_end=1.0, dt=1e-3, output_stride=10 ** 9)
        fact = evolve_factorized(cfg).ks[-1]
        direct = evolve_direct(cfg).ks[-1]
        assert frob(fact - direct) <= 1e-7

    @pytest.mark.parametrize("cond", [1e3, 1e4, 1e5, 1e6])
    def test_ill_conditioned_invariants_hold_to_roundoff(self, rng, cond):
        # K(t) = U diag(s v(t)) V* M(t) keeps K K* and, for constant H,
        # trace(K H K*) by construction, however wide the spread of s
        for _ in range(5):
            s = np.geomspace(1.0, 1.0 / cond, 4)
            k0 = (random_unitary(rng, 4) * s) @ random_unitary(rng, 4).conj().T
            cfg = ScenarioConfig(
                hbar=1.0,
                hamiltonian=HamiltonianProfile.constant(random_hermitian(rng, 4, 0.5, 2.0)),
                field=random_sinusoid(rng), initial_k=k0, t_end=1.0, dt=1e-2,
                output_stride=10)
            report = invariant_report(evolve_factorized(cfg), cfg)
            assert report.max_trace_khk_drift() <= 1e-12
            assert report.max_kk_star_drift() <= 1e-12


class TestEvolveDirect:
    def test_free_case_is_frozen(self, rng):
        k0 = random_full_rank(rng, 3, 0.5, 1.5)
        cfg = constant_config(np.zeros((3, 3)), 0.0, k0, stride=100)
        for k in evolve_direct(cfg).ks:
            assert frob(k - k0) <= 1e-12

    def test_gram_conserved(self, rng):
        cfg = random_scenario(rng, 4, dt=1e-3, output_stride=100)
        gram0 = cfg.initial_k @ cfg.initial_k.conj().T
        for k in evolve_direct(cfg).ks:
            drift = frob(k @ k.conj().T - gram0) / frob(gram0)
            assert drift <= 1e-8

    def test_near_singular_reports_last_good_time(self):
        # pd_floor above the actual singular-value ratio trips immediately
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(np.eye(2, dtype=complex)),
            field=FieldProfile.constant(1.0),
            initial_k=np.diag([1.0, 0.4]).astype(complex),
            t_end=1.0, dt=1e-2, output_stride=1, pd_floor=0.5)
        with pytest.raises(NearSingularError) as excinfo:
            evolve_direct(cfg)
        assert excinfo.value.last_good_time == 0.0
        partial = excinfo.value.partial
        assert partial is not None
        assert len(partial.ks) == 1
        assert partial.solver_tag == "direct"

    def test_missing_initial_k_is_typed_error(self, rng):
        # the moving-domain form of a scenario passes validation without K0
        cfg = dataclasses.replace(random_scenario(rng, 2), initial_k=None)
        with pytest.raises(ShapeMismatchError):
            evolve_direct(cfg)

    def test_non_finite_initial_k_stops_before_the_first_sample(self, rng):
        good = random_scenario(rng, 2, dt=1e-2, output_stride=10)
        bad = dataclasses.replace(good, initial_k=np.full((2, 2), np.nan, dtype=complex))
        with pytest.raises(NonFiniteError) as excinfo:
            evolve_direct_many([good, bad])
        assert excinfo.value.last_good_time is None
        assert excinfo.value.partial.ks == []
        assert len(excinfo.value.partial.times) == 0

    def test_well_conditioned_stages_run_no_svd(self, rng, svd_calls):
        # the conserved singular values keep every stage far above the
        # floor, so the inverse's norm bound certifies each one
        evolve_direct(random_scenario(rng, 4, dt=1e-2, output_stride=10))
        assert svd_calls == []

    def test_rk4_self_convergence(self, rng):
        base = random_scenario(rng, 3, dt=4e-3, output_stride=10 ** 9)
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = ScenarioConfig(hbar=1.0, hamiltonian=base.hamiltonian,
                                 field=base.field, initial_k=base.initial_k,
                                 t_end=1.0, dt=dt, output_stride=10 ** 9)
            finals.append(evolve_direct(cfg).ks[-1])
        d1 = frob(finals[0] - finals[1])
        d2 = frob(finals[1] - finals[2])
        assert np.log2(d1 / d2) >= 3.5


def assert_same_trajectory(a, b):
    assert a.solver_tag == b.solver_tag
    assert np.array_equal(a.times, b.times)
    for ka, kb in zip(a.ks, b.ks, strict=True):
        assert np.array_equal(ka, kb)


def ramp_config(slope, k0, floor=1e-12):
    """Dim 2, H = I, B = slope * t: RK4 drifts the singular-value ratio of
    diag(1, 0.4) down as B grows, so a floor just under 0.4 trips mid-flight."""
    return ScenarioConfig(
        hbar=1.0, hamiltonian=HamiltonianProfile.constant(np.eye(2, dtype=complex)),
        field=FieldProfile.linear_ramp(slope, 0.0), initial_k=np.asarray(k0, dtype=complex),
        t_end=1.0, dt=0.02, output_stride=5, pd_floor=floor)


class TestEvolveDirectMany:
    def test_stacking_changes_no_bits(self, rng):
        cfgs = []
        for t_end, dt, stride in ((0.3, 1e-2, 5), (0.2, 5e-3, 7)):
            for dim in (2, 3, 4, 5):
                for interpolated in (False, True):
                    for sinusoid in (False, True):
                        h = (random_drifting_hamiltonian(rng, dim, t_end) if interpolated
                             else HamiltonianProfile.constant(
                                 random_hermitian(rng, dim, 0.5, 2.5)))
                        field = (random_sinusoid(rng) if sinusoid
                                 else FieldProfile.constant(rng.uniform(0.3, 1.0)))
                        cfgs.append(ScenarioConfig(
                            hbar=rng.uniform(0.7, 1.3), hamiltonian=h, field=field,
                            initial_k=random_full_rank(rng, dim, 0.7, 1.5),
                            t_end=t_end, dt=dt, output_stride=stride))
        cfgs = [cfgs[i] for i in rng.permutation(len(cfgs))]
        for cfg, stacked in zip(cfgs, evolve_direct_many(cfgs), strict=True):
            assert_same_trajectory(stacked, evolve_direct(cfg))

    def test_floor_crossing_member_reports_its_own_state(self):
        bad = ramp_config(4.0, np.diag([1.0, 0.4]), floor=0.39)
        stack = [ramp_config(1.0, np.diag([1.2, 0.9])), bad,
                 ramp_config(0.5, np.diag([0.8, 1.1]))]
        with pytest.raises(NearSingularError) as alone:
            evolve_direct(bad)
        with pytest.raises(NearSingularError) as stacked:
            evolve_direct_many(stack)
        assert 0.0 < alone.value.last_good_time < 1.0
        assert stacked.value.last_good_time == alone.value.last_good_time
        assert len(alone.value.partial.ks) > 1
        assert_same_trajectory(stacked.value.partial, alone.value.partial)

    def test_mixed_output_strides_share_one_run(self, rng, monkeypatch):
        # the states do not depend on which samples are emitted: one run
        # serves every stride, and each member gets its own plan's samples
        runs = []

        def counting_rk4(rhs, y0, times, wanted):
            runs.append(len(y0))
            return rk4(rhs, y0, times, wanted)

        monkeypatch.setattr(fixed_domain, "rk4", counting_rk4)
        cfgs = [random_scenario(rng, 3, t_end=1.5, dt=1e-2, output_stride=stride)
                for stride in (1, 7, 100, 10 ** 9)]
        stacked = evolve_direct_many(cfgs)
        assert runs == [4]
        for cfg, trajectory in zip(cfgs, stacked, strict=True):
            assert_same_trajectory(trajectory, evolve_direct(cfg))
            assert np.array_equal(trajectory.times, output_times(cfg))

    def test_floor_crossing_member_of_a_mixed_stride_group(self):
        bad = dataclasses.replace(ramp_config(4.0, np.diag([1.0, 0.4]), floor=0.39),
                                  output_stride=3)
        stack = [dataclasses.replace(ramp_config(1.0, np.diag([1.2, 0.9])), output_stride=1),
                 bad, dataclasses.replace(ramp_config(0.5, np.diag([0.8, 1.1])),
                                          output_stride=10 ** 9)]
        with pytest.raises(NearSingularError) as alone:
            evolve_direct(bad)
        with pytest.raises(NearSingularError) as stacked:
            evolve_direct_many(stack)
        assert stacked.value.last_good_time == alone.value.last_good_time
        assert len(alone.value.partial.ks) > 1
        assert np.array_equal(alone.value.partial.times,
                              output_times(bad)[:len(alone.value.partial.ks)])
        assert_same_trajectory(stacked.value.partial, alone.value.partial)

    def test_first_crossing_scenario_in_list_order_raises(self):
        # In the stack the second member crosses first in time; the first
        # in list order still raises its own error.
        late = ramp_config(4.0, np.diag([1.0, 0.4]), floor=0.39)
        early = ramp_config(8.0, np.diag([1.0, 0.4]), floor=0.39)
        with pytest.raises(NearSingularError) as alone:
            evolve_direct(late)
        with pytest.raises(NearSingularError) as stacked:
            evolve_direct_many([late, early])
        assert stacked.value.last_good_time == alone.value.last_good_time
        assert_same_trajectory(stacked.value.partial, alone.value.partial)

    @staticmethod
    def mixed_group(rng, dim, count, t_end=1.0, dt=4e-3):
        """Scenarios of one shape and grid with constant and interpolated H
        of three different knot sets, and constant and sinusoidal B."""
        knot_sets = [None, [0.0, t_end], [0.0, 0.4, t_end], [-1.0, 0.6, 2.0 * t_end]]
        cfgs = []
        for m in range(count):
            knots = knot_sets[m % len(knot_sets)]
            h = (HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.5))
                 if knots is None else HamiltonianProfile.interpolated(
                     knots, [random_hermitian(rng, dim, 0.5, 2.5) for _ in knots]))
            field = (random_sinusoid(rng) if m % 2
                     else FieldProfile.constant(rng.uniform(0.3, 1.0)))
            cfgs.append(ScenarioConfig(
                hbar=rng.uniform(0.7, 1.3), hamiltonian=h, field=field,
                initial_k=random_full_rank(rng, dim, 0.7, 1.5),
                t_end=t_end, dt=dt, output_stride=25))
        return cfgs

    def test_mixed_kinds_and_knots_form_one_group(self, rng, monkeypatch):
        cfgs = self.mixed_group(rng, 3, 5, t_end=0.5, dt=1e-2)
        groups = []

        def spy(members):
            groups.append(len(members))
            return stack(members)

        stack = fixed_domain._evolve_direct_stack
        monkeypatch.setattr(fixed_domain, "_evolve_direct_stack", spy)
        stacked = evolve_direct_many(cfgs)
        assert groups == [5]
        for cfg, trajectory in zip(cfgs, stacked, strict=True):
            assert_same_trajectory(trajectory, evolve_direct(cfg))

    @staticmethod
    def spy_groups(monkeypatch):
        """The members' t_end of each ``_evolve_direct_stack`` call, in order."""
        groups = []
        stack = fixed_domain._evolve_direct_stack

        def spy(members):
            groups.append([cfg.t_end for cfg in members])
            return stack(members)

        monkeypatch.setattr(fixed_domain, "_evolve_direct_stack", spy)
        return groups

    @staticmethod
    def constant_h(rng, cfg):
        n = cfg.initial_k.shape[0]
        return dataclasses.replace(cfg, hamiltonian=HamiltonianProfile.constant(
            random_hermitian(rng, n, 0.5, 2.5)))

    def test_nested_grids_share_one_run(self, rng, monkeypatch):
        # the t_end 0.5 grid is the first half of the t_end 1.0 one, and a
        # constant H covers every time (random_scenario's ends at its
        # t_end): the shorter member rides on the longer run with its bits
        cfgs = [self.constant_h(rng, random_scenario(rng, 3, t_end=0.5, dt=1e-3,
                                                     output_stride=50)),
                random_scenario(rng, 3, t_end=1.0, dt=1e-3, output_stride=100)]
        alone = [evolve_direct(cfg) for cfg in cfgs]
        groups = self.spy_groups(monkeypatch)
        stacked = evolve_direct_many(cfgs)
        assert groups == [[0.5, 1.0]]
        for trajectory, expected in zip(stacked, alone, strict=True):
            assert_same_trajectory(trajectory, expected)

    def test_grid_that_is_no_prefix_keeps_its_own_group(self, rng, monkeypatch):
        # 0.5004 ends with a short step of 4e-4, not on the dt 1e-3 grid of
        # t_end 1.0; the two t_end 0.5004 members still stack together
        cfgs = [self.constant_h(rng, random_scenario(rng, 2, t_end=t_end, dt=1e-3,
                                                     output_stride=100))
                for t_end in (0.5004, 1.0, 0.5004)]
        alone = [evolve_direct(cfg) for cfg in cfgs]
        groups = self.spy_groups(monkeypatch)
        stacked = evolve_direct_many(cfgs)
        assert sorted(groups) == [[0.5004, 0.5004], [1.0]]
        for trajectory, expected in zip(stacked, alone, strict=True):
            assert_same_trajectory(trajectory, expected)

    def test_profile_ending_at_its_own_t_end_keeps_its_own_group(self, rng, monkeypatch):
        # its interpolated H has its last knot at 0.5, so the t_end 1.0 run
        # would sample it out of its domain
        short = random_scenario(rng, 3, t_end=0.5, dt=1e-3, output_stride=50)
        assert short.hamiltonian.domain() == (0.0, 0.5)
        cfgs = [short, random_scenario(rng, 3, t_end=1.0, dt=1e-3, output_stride=100)]
        alone = [evolve_direct(cfg) for cfg in cfgs]
        groups = self.spy_groups(monkeypatch)
        stacked = evolve_direct_many(cfgs)
        assert sorted(groups) == [[0.5], [1.0]]
        for trajectory, expected in zip(stacked, alone, strict=True):
            assert_same_trajectory(trajectory, expected)

    def test_member_that_stops_after_its_own_end_is_rerun_on_its_own_grid(
            self, monkeypatch):
        # alone, the ramp crosses its floor after 0.48; ended at 0.4 it does
        # not, but on the shared t_end 1.0 run it does, so the group is
        # re-run one member at a time and both succeed
        bad = ramp_config(4.0, np.diag([1.0, 0.4]), floor=0.39)
        with pytest.raises(NearSingularError) as crossing:
            evolve_direct(bad)
        assert crossing.value.last_good_time > 0.4
        cfgs = [dataclasses.replace(bad, t_end=0.4), ramp_config(1.0, np.diag([1.2, 0.9]))]
        alone = [evolve_direct(cfg) for cfg in cfgs]
        groups = self.spy_groups(monkeypatch)
        stacked = evolve_direct_many(cfgs)
        assert groups == [[0.4, 1.0], [0.4], [1.0]]
        for trajectory, expected in zip(stacked, alone, strict=True):
            assert_same_trajectory(trajectory, expected)

    def test_stack_over_several_chunks_changes_no_bits(self, rng):
        # three dim-8 members take MAGNUS_CHUNK // (3 * 64) = 85 steps per
        # chunk, so the 250 steps span three chunks; a lone member's 256-step
        # chunk holds them all, and the reference samples at every stage
        cfgs = self.mixed_group(rng, 8, 3)
        assert fixed_domain.MAGNUS_CHUNK // (3 * 64) < 250 <= fixed_domain.MAGNUS_CHUNK // 64
        for cfg, stacked in zip(cfgs, evolve_direct_many(cfgs), strict=True):
            assert_same_trajectory(stacked, evolve_direct(cfg))
            for k, expected in zip(stacked.ks, reference_direct(cfg), strict=True):
                assert np.array_equal(k, expected)

    def test_every_stage_time_is_sampled_once(self, rng, monkeypatch):
        # N steps have 2N + 1 distinct stage times: each step's start, its
        # midpoint (two stages) and its end, the next step's start
        cfgs = self.mixed_group(rng, 8, 3)
        h_times, b_times = {}, {}
        samples, sample = HamiltonianProfile.samples, FieldProfile.sample

        def h_spy(profile, times):
            h_times.setdefault(id(profile), []).extend(np.asarray(times).tolist())
            return samples(profile, times)

        def b_spy(profile, t):
            b_times.setdefault(id(profile), []).append(t)
            return sample(profile, t)

        monkeypatch.setattr(HamiltonianProfile, "samples", h_spy)
        monkeypatch.setattr(FieldProfile, "sample", b_spy)
        evolve_direct_many(cfgs)
        steps = len(step_plan(1.0, 4e-3).times) - 1
        assert steps == 250
        for cfg in cfgs:
            for seen in (h_times[id(cfg.hamiltonian)], b_times[id(cfg.field)]):
                assert len(seen) == len(set(seen)) == 2 * steps + 1
                assert seen == sorted(seen)


def reference_direct(cfg):
    """RK4 on one scenario that samples H and B afresh at all four stages."""
    def rhs(t, k):
        b = cfg.field.sample(t)
        return (1j / cfg.hbar) * (k @ cfg.hamiltonian.samples([t])[0]
                                  + (b * b) * adjoint_inverse(k, cfg.pd_floor))

    plan = step_plan(cfg.t_end, cfg.dt, cfg.output_stride)
    k = np.array(cfg.initial_k, dtype=np.complex128)
    ks = [k]
    for i in range(len(plan.times) - 1):
        t0 = float(plan.times[i])
        h = float(plan.times[i + 1] - plan.times[i])
        tm = t0 + 0.5 * h
        s1 = rhs(t0, k)
        s2 = rhs(tm, k + (0.5 * h) * s1)
        s3 = rhs(tm, k + (0.5 * h) * s2)
        s4 = rhs(t0 + h, k + h * s3)
        k = k + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        ks.append(k)
    return [ks[i] for i in plan.output_indices]


def readme_knot_example(knot=0.3337, seed=3):
    """The README's 3x3 example: an interpolated H with knots at 0, ``knot``
    and 1, B = 0.8, on the dt = 1e-2 grid, which 0.3337 lies inside."""
    rng = np.random.default_rng(seed)
    matrices = [random_hermitian(rng, 3, 0.5, 2.0) for _ in range(3)]
    return ScenarioConfig(
        hbar=1.0, hamiltonian=HamiltonianProfile.interpolated([0.0, knot, 1.0], matrices),
        field=FieldProfile.constant(0.8), initial_k=random_full_rank(rng, 3, 0.7, 1.4),
        t_end=1.0, dt=1e-2, output_stride=10)


def self_convergence_order(solver, cfg):
    """log2 of the ratio of successive final-K differences at dt 2e-2, 1e-2, 5e-3."""
    ks = [solver(dataclasses.replace(cfg, dt=dt)).ks[-1] for dt in (2e-2, 1e-2, 5e-3)]
    return float(np.log2(frob(ks[0] - ks[1]) / frob(ks[1] - ks[2])))


class TestKnotAwareSteps:
    """A knot inside a step of the dt grid is stepped to, so both routes keep
    their fourth order across it."""

    @pytest.mark.parametrize("solver", [evolve_factorized, evolve_direct])
    def test_hamiltonian_knot_keeps_fourth_order(self, solver):
        cfg = readme_knot_example()
        assert 0.3337 in cfg.plan().times
        assert self_convergence_order(solver, cfg) >= 3.5

    def test_field_table_knot_keeps_the_direct_route_fourth_order(self):
        cfg = readme_knot_example()
        cfg = dataclasses.replace(
            cfg, hamiltonian=HamiltonianProfile.constant(cfg.hamiltonian.matrices[0]),
            field=FieldProfile.sampled_table([0.0, 0.3337, 1.0], [0.6, 1.2, 0.8]))
        assert self_convergence_order(evolve_direct, cfg) >= 3.5

    def test_members_whose_inserted_knots_differ_run_apart(self, monkeypatch):
        # one shape, dt and t_end: two members step to 0.3337, one to 0.4123
        # and one has its knot on the grid, so three different grids
        cfgs = [readme_knot_example(), readme_knot_example(0.4123, seed=4),
                readme_knot_example(seed=5), readme_knot_example(0.34, seed=6)]
        alone = [evolve_direct(cfg) for cfg in cfgs]
        groups = []
        stack = fixed_domain._evolve_direct_stack

        def spy(members):
            groups.append([next(i for i, cfg in enumerate(cfgs) if cfg is member)
                           for member in members])
            return stack(members)

        monkeypatch.setattr(fixed_domain, "_evolve_direct_stack", spy)
        stacked = evolve_direct_many(cfgs)
        assert sorted(groups) == [[0, 2], [1], [3]]
        for trajectory, expected in zip(stacked, alone, strict=True):
            assert_same_trajectory(trajectory, expected)


class TestStageCoefficients:
    def test_direct_route_equals_fresh_stage_samples(self, rng):
        # evolve_direct samples H and B^2 once per distinct stage time, a
        # chunk of steps at a time; a reference that samples them at every
        # stage must give the same bits
        cfg = dataclasses.replace(random_scenario(rng, 3, t_end=0.7, dt=7e-3,
                                                  output_stride=9), hbar=0.83)
        trajectory = evolve_direct(cfg)
        for k, expected in zip(trajectory.ks, reference_direct(cfg), strict=True):
            assert np.array_equal(k, expected)

    def test_stage_time_out_of_order_raises(self):
        # two steps per chunk of the grid 0, 0.25, ..., 1: the stage times
        # 0, 0.125, 0.25, 0.375 and 0.5 come first; 0.5 may not skip 0.25
        stages = fixed_domain.rk4_stages(np.linspace(0.0, 1.0, 5), 2, lambda ts: (ts,))
        assert [stages(t) for t in (0.0, 0.125, 0.125)] == [(0.0,), (0.125,), (0.125,)]
        with pytest.raises(ValueError, match="out of rk4's order"):
            stages(0.5)


def overflow_config(h_scale=1e150, hbar=1e-3):
    """Dim 2, K0 = I: with H = diag(1, 2) * 1e150 and hbar = 1e-3 the RK4
    stages of the first step overflow to Inf."""
    return ScenarioConfig(
        hbar=hbar, hamiltonian=HamiltonianProfile.constant(
            np.diag([1.0, 2.0]).astype(complex) * h_scale),
        field=FieldProfile.constant(1.0), initial_k=np.eye(2, dtype=complex),
        t_end=1.0, dt=0.1, output_stride=1)


class TestNonFiniteStop:
    def test_overflow_keeps_partial_trajectory(self, recwarn):
        with pytest.raises(NonFiniteError, match=r"inside step \[0.0, 0.1\]") as excinfo:
            evolve_direct(overflow_config())
        assert excinfo.value.last_good_time == 0.0
        assert list(excinfo.value.partial.times) == [0.0]
        assert excinfo.value.partial.solver_tag == "direct"
        # the step loop silences numpy's overflow warnings
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_member_reports_its_own_state(self):
        ok = overflow_config(h_scale=1.0, hbar=1.0)
        with pytest.raises(NonFiniteError) as alone:
            evolve_direct(overflow_config())
        with pytest.raises(NonFiniteError) as stacked:
            evolve_direct_many([ok, overflow_config()])
        assert stacked.value.last_good_time == alone.value.last_good_time
        assert_same_trajectory(stacked.value.partial, alone.value.partial)


class TestRk4:
    def test_emits_wanted_samples_of_an_oscillator(self):
        times = np.linspace(0.0, 1.0, 101)
        ys = rk4(lambda t, y: 1j * y, np.eye(1), times, {0, 50, 100})
        assert len(ys) == 3
        for t, y in zip([0.0, 0.5, 1.0], ys):
            assert abs(y[0, 0] - np.exp(1j * t)) <= 1e-9

    def test_near_singular_keeps_last_good_time_and_partial(self):
        def rhs(t, y):
            if t >= 0.5:
                raise NearSingularError("floor crossed")
            return -y

        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NearSingularError) as excinfo:
            rk4(rhs, np.eye(2), times, set(range(0, 11, 2)))
        # the step [0.4, 0.5] is the first whose stages reach t = 0.5
        assert excinfo.value.last_good_time == times[4]
        # the samples at times[0], times[2] and times[4] of y = exp(-t) I
        partial = excinfo.value.partial
        assert len(partial) == 3
        for t, y in zip(times[[0, 2, 4]], partial):
            assert abs(y[0, 0] - np.exp(-t)) <= 1e-6

    def test_non_finite_keeps_last_good_time_and_partial(self):
        def rhs(t, y):
            if t >= 0.5:
                raise NonFiniteError("matrix contains NaN or Inf entries")
            return -y

        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonFiniteError, match="non-finite state inside step") as excinfo:
            rk4(rhs, np.eye(2), times, set(range(0, 11, 2)))
        assert excinfo.value.last_good_time == times[4]
        # the samples at times[0], times[2] and times[4] of y = exp(-t) I
        partial = excinfo.value.partial
        assert len(partial) == 3
        for t, y in zip(times[[0, 2, 4]], partial):
            assert abs(y[0, 0] - np.exp(-t)) <= 1e-6

    def test_non_finite_start_state_blames_the_previous_step(self):
        # the step [0.4, 0.5] returns NaN; the next step's rhs meets it
        def rhs(t, y):
            if np.isnan(y).any():
                raise NonFiniteError("matrix contains NaN or Inf entries")
            return np.full_like(y, np.nan) if t > 0.45 else -y

        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonFiniteError, match=r"inside step \[0.4, 0.5\]") as excinfo:
            rk4(rhs, np.eye(2), times, set(range(0, 11)))
        assert excinfo.value.last_good_time == times[4]
        assert len(excinfo.value.partial) == 5  # times[0..4]; the NaN at times[5] is dropped

    def test_non_finite_final_state_is_an_error(self):
        def rhs(t, y):
            return np.full_like(y, np.inf) if t > 0.95 else -y

        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonFiniteError, match=r"inside step \[0.9, 1.0\]") as excinfo:
            rk4(rhs, np.eye(2), times, {0, 9, 10})
        assert excinfo.value.last_good_time == times[9]
        assert len(excinfo.value.partial) == 2  # times[0] and times[9]


class TestEvolveSeries:
    def test_requires_constant_coefficients(self, rng):
        cfg = random_scenario(rng, 2)
        with pytest.raises(RequiresConstantCoefficientsError):
            evolve_series(cfg, 10)

    def test_zero_time_returns_initial_unitary(self, rng):
        k0 = random_full_rank(rng, 3, 0.7, 1.4)
        _, u0, h_b = polar_factors(k0)
        h = random_hermitian(rng, 3, 0.5, 2.0)
        for terms in (1, 2, 7):
            u, estimate = series_unitary(u0, h, h_b, 0.0, 1.0, terms)
            assert np.array_equal(u, u0)
            assert estimate == 0.0

    def test_two_terms_is_first_order_accurate(self, rng):
        h = random_hermitian(rng, 2, 0.5, 2.0)
        b = 0.8
        k0 = random_full_rank(rng, 2, 0.8, 1.3)
        radial, u0, h_b_base = polar_factors(k0)

        def truncation_error(dt):
            cfg = constant_config(h, b, k0, t_end=dt, dt=dt / 2, stride=10 ** 9)
            u, _ = series_unitary(u0, h, (b * b) * h_b_base, dt, 1.0, terms=2)
            series = radial @ u
            exact = evolve_factorized(cfg).ks[-1]
            return frob(series - exact)

        ratio = truncation_error(2e-3) / truncation_error(1e-3)
        assert 2.5 <= ratio <= 6.0  # second-order remainder

    def test_thirty_terms_match_factorized(self, rng):
        h = random_hermitian(rng, 2, 0.5, 2.0)
        cfg = constant_config(h, 0.7, random_full_rank(rng, 2, 0.8, 1.3),
                              t_end=0.5, dt=1e-2, stride=10)
        series = evolve_series(cfg, terms=30)
        fact = evolve_factorized(cfg)
        for s, f in zip(series.ks, fact.ks):
            assert frob(s - f) <= 1e-9

    def test_truncation_guard_raises(self, rng):
        h = random_hermitian(rng, 2, 0.5, 2.0)
        cfg = constant_config(h, 0.7, random_full_rank(rng, 2, 0.8, 1.3),
                              t_end=0.5, dt=1e-2, stride=10)
        with pytest.raises(TruncationDominatesError):
            evolve_series(cfg, terms=2)

    def test_overflowed_series_raises(self):
        # |u| reaches 1e182 at t = 0.05: its norm and the estimate overflow
        cfg = constant_config([[0.35689222]], 1.0036723106227856,
                              [[0.00085388 + 0.00068901j]], t_end=0.2, dt=1e-2,
                              stride=5, hbar=0.0018165821532520128)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TruncationDominatesError):
                evolve_series(cfg, terms=30)
        assert [w.category for w in caught] == [ConvergenceWarning]

    def test_overflow_repro_is_exact_at_zero_and_stops_where_it_overflows(self):
        # the scaled terms stay finite at t = 0, where the series is u0 itself;
        # the first sample whose terms overflow is t = 0.05
        hbar, b = 0.0018165821532520128, 1.0036723106227856
        k0 = [[0.00085388 + 0.00068901j]]
        cfg = constant_config([[0.35689222]], b, k0, t_end=0.2, dt=1e-2, stride=5,
                              hbar=hbar)
        _, u0, h_b = polar_factors(np.asarray(k0))
        u, estimate = series_unitary(u0, cfg.hamiltonian.samples([0.0])[0], (b * b) * h_b,
                                     0.0, hbar, 30)
        assert np.array_equal(u, u0)
        assert estimate == 0.0
        with pytest.warns(ConvergenceWarning):
            with pytest.raises(TruncationDominatesError, match=r"at t=0\.05;"):
                evolve_series(cfg, terms=30)

    def test_radius_warning(self, rng):
        h = random_hermitian(rng, 2, 4.0, 6.0)
        cfg = constant_config(h, 1.0, random_full_rank(rng, 2, 0.8, 1.3),
                              t_end=2.0, dt=0.5, stride=1)
        with pytest.warns(ConvergenceWarning):
            evolve_series(cfg, terms=60)


class TestTrajectoryMetadata:
    def test_digest_and_tags(self, rng):
        cfg = random_scenario(rng, 2, dt=1e-2, output_stride=10)
        fact = evolve_factorized(cfg)
        direct = evolve_direct(cfg)
        assert fact.solver_tag == "factorized"
        assert direct.solver_tag == "direct"
        assert np.array_equal(fact.times, direct.times)

    def test_output_grid_includes_endpoint(self, rng):
        cfg = random_scenario(rng, 2, dt=1e-2, output_stride=7)
        times = evolve_factorized(cfg).times
        assert times[0] == 0.0
        assert times[-1] == cfg.t_end

    @pytest.mark.parametrize("solver", ["factorized", "direct", "series"])
    def test_times_are_the_plan_output_times(self, rng, solver):
        h = random_hermitian(rng, 2, 0.5, 2.0)
        cfg = constant_config(h, 0.7, random_full_rank(rng, 2, 0.8, 1.3),
                              t_end=0.95, dt=1e-2, stride=7)
        if solver == "factorized":
            trajectory = evolve_factorized(cfg)
        elif solver == "direct":
            trajectory = evolve_direct(cfg)
        else:
            trajectory = evolve_series(cfg, 30)
        assert trajectory.solver_tag == solver
        assert np.array_equal(trajectory.times, output_times(cfg))
        assert len(trajectory.ks) == len(trajectory.times)

    @pytest.mark.parametrize("stop", ["floor", "overflow"])
    def test_stopped_run_keeps_the_plans_first_output_times(self, stop):
        cfg = (ramp_config(4.0, np.diag([1.0, 0.4]), floor=0.39) if stop == "floor"
               else dataclasses.replace(overflow_config(h_scale=1e12, hbar=1.0),
                                        output_stride=2))
        with pytest.raises((NearSingularError, NonFiniteError)) as excinfo:
            evolve_direct(cfg)
        partial = excinfo.value.partial
        assert len(partial.ks) > 1
        assert np.array_equal(partial.times, output_times(cfg)[:len(partial.ks)])
        assert np.all(partial.times <= excinfo.value.last_good_time)
