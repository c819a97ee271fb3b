import numpy as np
import pytest

from mesodyn.errors import (
    InsufficientSamplesError,
    NearSingularError,
    NotHermitianGaugeError,
    NotOrthonormalError,
    RankDeficientError,
    ShapeMismatchError,
)
from mesodyn.fixed_domain import (MAGNUS_CHUNK, Trajectory, evolve_factorized, polar_init,
                                  rk4)
from mesodyn.linalg import DEFAULT_PD_FLOOR, adjoint_pseudo_inverse, below_floor, unitary_exponential
from mesodyn import fixed_domain, moving_domain
from mesodyn.moving_domain import (
    AmbientSpace,
    coefficient_matrix_evolution,
    gauge_equivalence_check,
    gauge_equivalence_checks,
    gauge_propagators,
    image_projector,
    moving_drift,
    moving_report,
    moving_solution,
    weak_residual,
)
from mesodyn.scenario import FieldProfile, HamiltonianProfile, ScenarioConfig, step_plan
from mesodyn.verification import (
    random_full_rank,
    random_hermitian,
    random_orthonormal_columns,
)


def frob(m):
    return float(np.linalg.norm(m))


def diag_space(energies, dim_h2=None, n=1):
    dim = len(energies)
    return AmbientSpace(
        dim_h1=dim, dim_h2=dim_h2 or dim, n=n,
        ambient_hamiltonian=HamiltonianProfile.constant(
            np.diag(energies).astype(complex)))


def frame_samples(space, psi0, t_end, dt, output_stride):
    """The frame psi(t) of a moving solution with A' = I (a0 = I, B = 0).

    With the image basis phi0 = the first n unit vectors, K(t) = phi0 psi(t)*,
    so the frame is read back from K's first n rows.
    """
    n = space.n
    phi0 = np.eye(space.dim_h2, dtype=complex)[:, :n]
    ops = moving_solution(space, psi0, phi0, np.eye(n, dtype=complex),
                          FieldProfile.constant(0.0), 1.0, t_end=t_end, dt=dt,
                          output_stride=output_stride)
    return ops.times, [k[:n].conj().T for k in ops.ks]


def reference_svd(k):
    return np.linalg.svd(k, full_matrices=False)


def reference_image_projector(k, floor=DEFAULT_PD_FLOOR):
    """One SVD per call: the projector arithmetic the stacked report must meet."""
    u, s, _ = reference_svd(k)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((k.shape[0], k.shape[0]), dtype=np.complex128)
    cols = u[:, ~below_floor(s, s[0], floor)]
    return cols @ cols.conj().T


def reference_pseudo_inverse(k, floor=DEFAULT_PD_FLOOR):
    u, s, vh = reference_svd(k)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros(k.shape, dtype=np.complex128), 0
    keep = ~below_floor(s, s[0], floor)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (u * inv) @ vh, int(np.count_nonzero(keep))


def reference_moving_drift(trajectory, floor=DEFAULT_PD_FLOOR):
    ks = trajectory.ks
    p0 = reference_image_projector(ks[0], floor)
    gram0 = ks[0] @ ks[0].conj().T
    return ([float(np.linalg.norm(reference_image_projector(k, floor) - p0)) for k in ks],
            [float(np.linalg.norm(k @ k.conj().T - gram0)) for k in ks])


def reference_weak_residual(trajectory, space, field, hbar, floor=DEFAULT_PD_FLOOR):
    ks = trajectory.ks
    h_samples = space.ambient_hamiltonian.samples(trajectory.times[1:-1])
    times = trajectory.times.tolist()
    out = []
    for i, h in enumerate(h_samples, 1):
        t = times[i]
        k = ks[i]
        kdot = (ks[i + 1] - ks[i - 1]) / (times[i + 1] - times[i - 1])
        pinv, rank = reference_pseudo_inverse(k, floor)
        if rank != space.n:
            raise RankDeficientError(f"sample at t={t} has rank {rank}, expected {space.n}")
        b = field.sample(t)
        residual = 1j * hbar * kdot + k @ h + (b * b) * pinv
        out.append(float(np.max(np.linalg.norm(residual, axis=0))))
    return out


def same_floats(actual, expected):
    """Equal lists of floats, bit for bit."""
    return np.array(actual).tobytes() == np.array(expected).tobytes()


@pytest.fixture
def no_frame_evolution(monkeypatch):
    """Fail on any propagation: the moving solution's (through the
    factorized assembly) and the gauge check's direct bras and gauges."""
    def no_evolution(*args):
        raise AssertionError("evolved the frame before checking the inputs")

    monkeypatch.setattr(fixed_domain, "unitary_propagator", no_evolution)
    monkeypatch.setattr(moving_domain, "unitary_propagator", no_evolution)


class TestFrameEvolution:
    """The frame as the moving solution carries it: bras right-multiplied."""

    def test_constant_diagonal_kets_rotate_clockwise(self):
        # kets obey i hbar d/dt psi = +H psi, so columns pick up e^{-i E t}
        energies = [1.0, 2.0, 3.0]
        space = diag_space(energies, n=2)
        psi0 = np.eye(3, dtype=complex)[:, :2]
        times, frames = frame_samples(space, psi0, t_end=1.0, dt=1e-2, output_stride=25)
        assert len(frames) == 5
        for t, psi in zip(times, frames):
            expected = psi0 * np.exp(-1j * np.array(energies)[:, None] * t)
            assert frob(psi - expected) <= 1e-12

    def test_zero_hamiltonian_freezes_frame(self, rng):
        space = AmbientSpace(
            dim_h1=4, dim_h2=4, n=2,
            ambient_hamiltonian=HamiltonianProfile.constant(np.zeros((4, 4))))
        psi0 = random_orthonormal_columns(rng, 4, 2)
        for psi in frame_samples(space, psi0, 1.0, 1e-2, 50)[1]:
            assert frob(psi - psi0) <= 1e-13

    def test_orthonormality_preserved(self, rng):
        h0 = random_hermitian(rng, 8, 0.5, 2.5)
        h1 = random_hermitian(rng, 8, 0.5, 2.5)
        space = AmbientSpace(
            dim_h1=8, dim_h2=8, n=3,
            ambient_hamiltonian=HamiltonianProfile.interpolated([0.0, 1.0], [h0, h1]))
        psi0 = random_orthonormal_columns(rng, 8, 3)
        for psi in frame_samples(space, psi0, 1.0, 1e-3, 100)[1]:
            assert frob(psi.conj().T @ psi - np.eye(3)) <= 1e-10

    def test_rejects_skewed_frame(self, no_frame_evolution):
        space = diag_space([1.0, 2.0], n=2)
        bad = np.array([[1.0, 0.9], [0.0, 0.1]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        with pytest.raises(NotOrthonormalError):
            moving_solution(space, bad, eye, eye, FieldProfile.constant(1.0), 1.0,
                            t_end=1.0, dt=1e-2)
        with pytest.raises(NotOrthonormalError):
            gauge_equivalence_check(space, bad, eye, eye, FieldProfile.constant(1.0),
                                    1.0, 1.0, 1e-2, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_spy_sees_the_evolution(self, no_frame_evolution):
        # the "rejected before evolution" tests are not vacuous: valid inputs
        # reach the spy through both callers
        space = diag_space([1.0, 2.0], n=2)
        eye = np.eye(2, dtype=complex)
        with pytest.raises(AssertionError, match="evolved the frame"):
            moving_solution(space, eye, eye, eye, FieldProfile.constant(1.0), 1.0,
                            t_end=1.0, dt=0.5)
        with pytest.raises(AssertionError, match="evolved the frame"):
            gauge_equivalence_check(space, eye, eye, eye, FieldProfile.constant(1.0),
                                    1.0, 1.0, 0.5, np.zeros((2, 2)), np.zeros((2, 2)))


class TestCoefficientEvolution:
    def test_scalar_unit_field(self):
        # a(t) = r0 e^{i phi0} e^{i t / r0^2} for B = 1, hbar = 1
        r0, phi0 = 1.4, 0.7
        a0 = np.array([[r0 * np.exp(1j * phi0)]])
        times = np.linspace(0.0, 1.0, 11)
        samples = coefficient_matrix_evolution(a0, FieldProfile.constant(1.0),
                                               1.0, times)
        for t, a in zip(times, samples):
            expected = r0 * np.exp(1j * (phi0 + t / r0 ** 2))
            assert abs(a[0, 0] - expected) <= 1e-12

    def test_zero_field_freezes(self, rng):
        a0 = random_full_rank(rng, 3, 0.7, 1.4)
        samples = coefficient_matrix_evolution(a0, FieldProfile.constant(0.0),
                                               1.0, [0.0, 0.5, 1.0])
        for a in samples:
            assert frob(a - a0) <= 1e-13

    def test_initial_value_and_radial_conservation(self, rng):
        a0 = random_full_rank(rng, 3, 0.7, 1.4)
        field = FieldProfile.sinusoid(0.5, 0.3, 0.2, 0.7)
        samples = coefficient_matrix_evolution(a0, field, 1.0,
                                               np.linspace(0.0, 1.0, 21))
        assert frob(samples[0] - a0) <= 1e-12
        gram0 = a0 @ a0.conj().T
        for a in samples:
            assert frob(a @ a.conj().T - gram0) <= 1e-10

    def test_satisfies_equation_by_finite_differences(self, rng):
        a0 = random_full_rank(rng, 3, 0.7, 1.4)
        field = FieldProfile.sinusoid(0.5, 0.3, 0.2, 0.7)
        hbar = 1.0
        delta = 1e-5
        for t in (0.2, 0.6, 0.9):
            before, at, after = coefficient_matrix_evolution(
                a0, field, hbar, [t - delta, t, t + delta])
            a_dot = (after - before) / (2.0 * delta)
            b = field.sample(t)
            residual = (1j * hbar * a_dot
                        + (b * b) * np.linalg.inv(at.conj().T))
            assert frob(residual) <= 1e-8

    def test_literal_form_drops_initial_phase(self):
        # for non-positive-definite a0 the printed form starts at |a0|
        a0 = np.array([[1j]])
        times = [0.0, 0.5]
        literal = coefficient_matrix_evolution(a0, FieldProfile.constant(1.0),
                                               1.0, times, literal=True)
        assert abs(literal[0][0, 0] - 1.0) <= 1e-12  # not 1j
        corrected = coefficient_matrix_evolution(a0, FieldProfile.constant(1.0),
                                                 1.0, times)
        assert abs(corrected[0][0, 0] - 1j) <= 1e-12

    def test_literal_matches_corrected_for_positive_definite(self, rng):
        base = random_hermitian(rng, 2, 0.5, 1.5)
        field = FieldProfile.constant(0.8)
        times = np.linspace(0.0, 1.0, 5)
        lit = coefficient_matrix_evolution(base, field, 1.0, times, literal=True)
        cor = coefficient_matrix_evolution(base, field, 1.0, times)
        for a, b in zip(lit, cor):
            assert frob(a - b) <= 1e-12


class TestAssembly:
    def test_reduces_to_product_at_start(self, rng):
        space = diag_space([1.0, 2.0, 3.0], n=3)
        psi0 = np.eye(3, dtype=complex)
        phi0 = np.eye(3, dtype=complex)
        a0 = random_full_rank(rng, 3, 0.7, 1.4)
        ops = moving_solution(space, psi0, phi0, a0, FieldProfile.constant(0.9),
                              1.0, t_end=0.1, dt=0.1)
        assert ops.times[0] == 0.0
        assert frob(ops.ks[0] - phi0 @ a0) <= 1e-14

    def test_rank_one_closed_form_free_hamiltonian(self, rng):
        # H = 0: K(t) = r0 e^{i phi0} e^{i B^2 t/(hbar r0^2)} |phi><psi|
        space = AmbientSpace(
            dim_h1=5, dim_h2=4, n=1,
            ambient_hamiltonian=HamiltonianProfile.constant(np.zeros((5, 5))))
        psi0 = random_orthonormal_columns(rng, 5, 1)
        phi0 = random_orthonormal_columns(rng, 4, 1)
        r0, phase0, b, hbar = 1.2, 0.9, 0.8, 0.7
        a0 = np.array([[r0 * np.exp(1j * phase0)]])
        ops = moving_solution(space, psi0, phi0, a0,
                              FieldProfile.constant(b), hbar,
                              t_end=1.0, dt=1e-2, output_stride=20)
        for t, k in zip(ops.times, ops.ks):
            phase = phase0 + b * b * t / (hbar * r0 ** 2)
            expected = r0 * np.exp(1j * phase) * (phi0 @ psi0.conj().T)
            assert frob(k - expected) <= 1e-10

    def test_rank_one_time_dependent_field(self, rng):
        space = AmbientSpace(
            dim_h1=4, dim_h2=4, n=1,
            ambient_hamiltonian=HamiltonianProfile.constant(np.zeros((4, 4))))
        psi0 = random_orthonormal_columns(rng, 4, 1)
        phi0 = random_orthonormal_columns(rng, 4, 1)
        r0, phase0 = 1.1, 0.3
        a0 = np.array([[r0 * np.exp(1j * phase0)]])
        field = FieldProfile.sinusoid(0.6, 0.3, 0.1, 0.5)
        ops = moving_solution(space, psi0, phi0, a0, field, 1.0,
                              t_end=1.0, dt=1e-3, output_stride=200)
        from mesodyn.scenario import integrate_b_squared
        for t, k in zip(ops.times, ops.ks):
            phase = phase0 + integrate_b_squared(field, 0.0, t) / r0 ** 2
            expected = r0 * np.exp(1j * phase) * (phi0 @ psi0.conj().T)
            assert frob(k - expected) <= 1e-8

    def test_image_projector_is_frozen(self, rng):
        h = random_hermitian(rng, 6, 0.5, 2.0)
        space = AmbientSpace(dim_h1=6, dim_h2=5, n=2,
                             ambient_hamiltonian=HamiltonianProfile.constant(h))
        psi0 = random_orthonormal_columns(rng, 6, 2)
        phi0 = random_orthonormal_columns(rng, 5, 2)
        a0 = random_full_rank(rng, 2, 0.7, 1.4)
        ops = moving_solution(space, psi0, phi0, a0,
                              FieldProfile.constant(0.9), 1.0,
                              t_end=1.0, dt=1e-2, output_stride=20)
        p0 = image_projector(ops.ks[0])
        for k in ops.ks:
            assert frob(image_projector(k) - p0) <= 1e-12

    def test_samples_the_plan_output_times(self, rng):
        space = diag_space([1.0, 2.0, 3.0], n=2)
        psi0 = np.eye(3, dtype=complex)[:, :2]
        ops = moving_solution(space, psi0, psi0, random_full_rank(rng, 2, 0.7, 1.4),
                              FieldProfile.constant(0.9), 1.0,
                              t_end=0.95, dt=0.1, output_stride=3)
        assert ops.solver_tag == "moving"
        assert np.array_equal(ops.times, step_plan(0.95, 0.1, 3).output_times)
        assert len(ops.ks) == len(ops.times)
        g1s, g2s = gauge_propagators(np.eye(2), np.eye(2), 2, 0.95, 0.1, 1.0)
        assert len(g1s) == len(g2s) == len(step_plan(0.95, 0.1).times)

    def test_a0_shape_rejected_before_evolution(self, no_frame_evolution):
        space = diag_space([1.0, 2.0], n=1)
        psi0 = np.eye(2, dtype=complex)[:, :1]
        with pytest.raises(ShapeMismatchError, match="a0 must be 1 x 1"):
            moving_solution(space, psi0, psi0, np.eye(2, dtype=complex),
                            FieldProfile.constant(1.0), 1.0, t_end=1.0, dt=0.5)

    def test_singular_a0_rejected_before_evolution(self, no_frame_evolution):
        space = diag_space([1.0, 2.0, 3.0], n=2)
        psi0 = np.eye(3, dtype=complex)[:, :2]
        with pytest.raises(NearSingularError):
            moving_solution(space, psi0, psi0, np.diag([1.0, 0.0]).astype(complex),
                            FieldProfile.constant(1.0), 1.0, t_end=1.0, dt=0.5)


class TestWeakResidual:
    def _assembled(self, rng, dt, t_end=0.5):
        h0 = random_hermitian(rng, 8, 0.5, 2.5)
        h1 = random_hermitian(rng, 8, 0.5, 2.5)
        space = AmbientSpace(
            dim_h1=8, dim_h2=5, n=3,
            ambient_hamiltonian=HamiltonianProfile.interpolated(
                [0.0, t_end], [h0, h1]))
        psi0 = random_orthonormal_columns(rng, 8, 3)
        phi0 = random_orthonormal_columns(rng, 5, 3)
        a0 = random_full_rank(rng, 3, 0.7, 1.4)
        field = FieldProfile.sinusoid(0.4, 0.3, 0.2, 0.7)
        ops = moving_solution(space, psi0, phi0, a0, field, 1.0,
                              t_end=t_end, dt=dt, output_stride=1)
        return space, field, ops

    def test_small_for_assembled_solution(self, rng):
        space, field, ops = self._assembled(rng, dt=1e-3)
        residuals = weak_residual(ops, space, field, hbar=1.0)
        assert max(residuals) <= 1e-5

    def test_detects_corrupted_radial_part(self, rng):
        space, field, ops = self._assembled(rng, dt=1e-3)
        corrupted = Trajectory(ops.times, [(1.0 + 1e-3) * k for k in ops.ks],
                               ops.solver_tag)
        residuals = weak_residual(corrupted, space, field, hbar=1.0)
        assert max(residuals) >= 1e-4

    def test_embedded_fixed_domain_matches_factorized(self, rng):
        # full-rank square case: the assembled operator IS the factorized one
        h = random_hermitian(rng, 3, 0.5, 2.0)
        k0 = random_full_rank(rng, 3, 0.7, 1.4)
        field = FieldProfile.sinusoid(0.4, 0.3, 0.2, 0.7)
        eye = np.eye(3, dtype=complex)

        def both(hamiltonian, psi0, phi0, a0):
            space = AmbientSpace(dim_h1=3, dim_h2=3, n=3, ambient_hamiltonian=hamiltonian)
            ops = moving_solution(space, psi0, phi0, a0, field, 1.0,
                                  t_end=1.0, dt=1e-3, output_stride=100)
            fact = evolve_factorized(ScenarioConfig(
                hbar=1.0, hamiltonian=hamiltonian, field=field, initial_k=k0,
                t_end=1.0, dt=1e-3, output_stride=100))
            assert np.array_equal(ops.times, fact.times)
            assert len(ops.ks) == len(fact.ks) == 11
            return ops.ks, fact.ks

        constant = HamiltonianProfile.constant(h)
        moving, fixed = both(constant, eye, eye, k0)
        assert frob(moving[0] - k0) <= 1e-12 * frob(k0)
        for k, k_fact in zip(moving, fixed):
            assert frob(k - k_fact) <= 1e-9
        # with psi0 = phi0 = I both run the same operations: the same bits
        drifting = HamiltonianProfile.interpolated(
            [0.0, 1.0], [random_hermitian(rng, 3, 0.5, 2.0) for _ in range(2)])
        moving, fixed = both(drifting, eye, eye, k0)
        assert all(np.array_equal(k, k_fact) for k, k_fact in zip(moving, fixed))
        # K0 = U S V*: psi0 = V, phi0 = U, a0 = S is the same formula in K0's
        # own singular basis, so the two agree to roundoff
        u, s, vh = polar_init(k0)
        moving, fixed = both(drifting, vh.conj().T, u, np.diag(s).astype(complex))
        for k, k_fact in zip(moving, fixed):
            assert frob(k - k_fact) <= 1e-12 * frob(k_fact)

    def test_rank_deficient_rejected(self, rng):
        space = diag_space([1.0, 2.0, 3.0], n=2)
        psi = random_orthonormal_columns(rng, 3, 1)
        phi = random_orthonormal_columns(rng, 3, 1)
        k = phi @ psi.conj().T  # rank 1, space expects 2
        samples = Trajectory(np.array([0.0, 0.1, 0.2]), [k, k, k], "moving")
        with pytest.raises(RankDeficientError):
            weak_residual(samples, space, FieldProfile.constant(1.0), 1.0)

    def test_needs_three_samples(self, rng):
        space = diag_space([1.0, 2.0], n=1)
        k = np.eye(2, dtype=complex)[:, :1] @ np.ones((1, 2))
        with pytest.raises(InsufficientSamplesError):
            weak_residual(Trajectory(np.array([0.0, 0.1]), [k, k], "moving"), space,
                          FieldProfile.constant(1.0), 1.0)


class TestStackedMovingReport:
    """moving_drift, weak_residual and moving_report take one stacked SVD per
    chunk of samples; each value must keep the bits of the per-sample loop."""

    def _moving(self, rng, constant_h, samples=40, dim_h1=64, dim_h2=16, n=8):
        # (16, 64) samples: MAGNUS_CHUNK // 1024 = 16 per chunk, three chunks
        h0 = random_hermitian(rng, dim_h1, 0.5, 2.5)
        hamiltonian = (HamiltonianProfile.constant(h0) if constant_h else
                       HamiltonianProfile.interpolated(
                           [0.0, 1.0], [h0, random_hermitian(rng, dim_h1, 0.5, 2.5)]))
        space = AmbientSpace(dim_h1=dim_h1, dim_h2=dim_h2, n=n,
                             ambient_hamiltonian=hamiltonian)
        field = FieldProfile.sinusoid(0.4, 0.3, 0.2, 0.7)
        ops = moving_solution(space, random_orthonormal_columns(rng, dim_h1, n),
                              random_orthonormal_columns(rng, dim_h2, n),
                              random_full_rank(rng, n, 0.7, 1.4), field, 1.0,
                              t_end=(samples - 1) * 1e-3, dt=1e-3, output_stride=1)
        assert len(ops.ks) == samples
        return space, field, ops

    @pytest.mark.parametrize("constant_h", [True, False])
    def test_columns_match_the_per_sample_loop(self, rng, constant_h):
        space, field, ops = self._moving(rng, constant_h)
        assert MAGNUS_CHUNK // ops.ks[0].size == 16
        image, radial = moving_drift(ops)
        want_image, want_radial = reference_moving_drift(ops)
        assert same_floats(image, want_image) and same_floats(radial, want_radial)
        residuals = weak_residual(ops, space, field, 1.0)
        assert same_floats(residuals, reference_weak_residual(ops, space, field, 1.0))
        assert moving_report(ops, space, field, 1.0) == (
            [None, *residuals, None], image, radial)

    @pytest.mark.parametrize("samples", [1, 2, 3, 15, 16, 17])
    def test_lengths_around_the_chunk(self, rng, samples):
        space, field, ops = self._moving(rng, False, samples=samples)
        image, radial = moving_drift(ops)
        assert (image, radial) == reference_moving_drift(ops)
        residuals = [None] * samples
        if samples >= 3:
            residuals[1:-1] = reference_weak_residual(ops, space, field, 1.0)
        assert moving_report(ops, space, field, 1.0) == (residuals, image, radial)

    def test_mixed_ranks_in_one_chunk(self, rng):
        space, field, ops = self._moving(rng, True, samples=20)
        u, s, vh = np.linalg.svd(ops.ks[5], full_matrices=False)
        s[space.n - 1] = 0.0  # rank n - 1 at the sixth sample
        ops.ks[5] = (u * s) @ vh
        image, radial = moving_drift(ops)
        want_image, want_radial = reference_moving_drift(ops)
        assert same_floats(image, want_image) and same_floats(radial, want_radial)
        with pytest.raises(RankDeficientError) as expected:
            reference_weak_residual(ops, space, field, 1.0)
        for report in (weak_residual, moving_report):
            with pytest.raises(RankDeficientError) as raised:
                report(ops, space, field, 1.0)
            assert str(raised.value) == str(expected.value)

    def test_single_matrix_helpers(self, rng):
        _, _, ops = self._moving(rng, False, samples=2)
        for k in (ops.ks[1], np.zeros((3, 2), dtype=complex)):
            assert np.array_equal(image_projector(k), reference_image_projector(k))
            pinv, rank = adjoint_pseudo_inverse(k)
            want, want_rank = reference_pseudo_inverse(k)
            assert pinv.tobytes() == want.tobytes() and rank == want_rank


class TestGauge:
    def _setup(self, rng, n=2, dim=4):
        h = random_hermitian(rng, dim, 0.5, 2.0)
        space = AmbientSpace(dim_h1=dim, dim_h2=dim, n=n,
                             ambient_hamiltonian=HamiltonianProfile.constant(h))
        psi0 = random_orthonormal_columns(rng, dim, n)
        phi0 = random_orthonormal_columns(rng, dim, n)
        a0 = random_full_rank(rng, n, 0.7, 1.4)
        field = FieldProfile.sinusoid(0.4, 0.25, 0.1, 0.7)
        return space, psi0, phi0, a0, field

    def test_zero_gauges_are_exact(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        zero = np.zeros((2, 2))
        for g1, g2 in zip(*gauge_propagators(zero, zero, 2, 1.0, 0.25, 1.0)):
            assert np.array_equal(g1, np.eye(2, dtype=complex))
            assert np.array_equal(g2, np.eye(2, dtype=complex))
        distance = gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                           1.0, 1e-3, zero, zero)
        assert distance <= 1e-10

    def test_scalar_gauge_phases(self):
        # constant scalar gauges reduce to pure phase shuffling
        c1, c2, hbar = 0.6, -0.9, 1.0
        g1s, g2s = gauge_propagators(np.array([[c1]]), np.array([[c2]]), 1, 1.0,
                                     1e-3, hbar)
        t, g1, g2 = step_plan(1.0, 1e-3).times[-1], g1s[-1], g2s[-1]
        assert abs(g1[0, 0] - np.exp(-1j * c1 * t / hbar)) <= 1e-10
        assert abs(g2[0, 0] - np.exp(+1j * c2 * t / hbar)) <= 1e-10

    def test_scalar_gauge_invariance(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng, n=1)
        c1 = np.array([[0.6]])
        c2 = np.array([[-0.9]])
        distance = gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                           1.0, 1e-3, c1, c2)
        assert distance <= 1e-8

    def test_constant_matrix_gauges(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        c1 = random_hermitian(rng, 2, -0.8, 0.8)
        c2 = random_hermitian(rng, 2, -0.8, 0.8)
        distance = gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                           1.0, 1e-3, c1, c2)
        assert distance <= 1e-8

    def test_stacked_pairs_equal_each_pair_alone(self, rng, monkeypatch):
        # one constant pair and one with a callable C', run as one stacked
        # RK4 and one pair at a time: the same coefficient bits and distances
        space, psi0, phi0, a0, field = self._setup(rng)
        base = random_hermitian(rng, 2, -0.7, 0.7)
        calls = []

        def c_prime(t):
            calls.append(t)
            return np.sin(2 * np.pi * 0.15 * t) * base

        gauges = [(random_hermitian(rng, 2, -0.8, 0.8), random_hermitian(rng, 2, -0.8, 0.8)),
                  (c_prime, random_hermitian(rng, 2, -0.8, 0.8))]
        runs = []

        def keeping_rk4(rhs, y0, times, wanted):
            runs.append(rk4(rhs, y0, times, wanted))
            return runs[-1]

        monkeypatch.setattr(moving_domain, "rk4", keeping_rk4)
        stacked = gauge_equivalence_checks(space, psi0, phi0, a0, field, 1.0,
                                           1.0, 1e-2, gauges)
        # 100 steps: two Magnus nodes per step, then 201 distinct RK4 stage times
        assert len(calls) == 2 * 100 + 201
        alone = [gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                         1.0, 1e-2, c1, c2) for c1, c2 in gauges]
        assert stacked == alone
        assert all(0.0 < distance <= 1e-6 for distance in stacked)
        together, *lone = runs
        for m, run in enumerate(lone):
            for pair, single in zip(together, run, strict=True):
                assert np.array_equal(pair[m], single[0])

    def test_gauge_propagators_are_unitary(self, rng):
        c1 = random_hermitian(rng, 2, -0.8, 0.8)
        c2 = random_hermitian(rng, 2, -0.8, 0.8)
        eye = np.eye(2)
        for g1, g2 in zip(*gauge_propagators(c1, c2, 2, 1.0, 1e-2, 1.0)):
            assert np.linalg.norm(g1 @ g1.conj().T - eye) <= 1e-12
            assert np.linalg.norm(g2 @ g2.conj().T - eye) <= 1e-12

    def test_time_dependent_gauges(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        base1 = random_hermitian(rng, 2, -0.7, 0.7)
        base2 = random_hermitian(rng, 2, -0.7, 0.7)
        c1 = lambda t: np.sin(2 * np.pi * 0.15 * t) * base1  # noqa: E731
        c2 = lambda t: np.cos(2 * np.pi * 0.15 * t) * base2  # noqa: E731
        distance = gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                           1.0, 2.5e-4, c1, c2)
        assert distance <= 1e-8

    def test_non_hermitian_gauge_rejected(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianGaugeError):
            gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                    1.0, 1e-2, skew, skew)

    @pytest.mark.parametrize("which", ["c_prime", "c_double_prime"])
    def test_callable_gauge_names_its_non_hermitian_sample(self, which):
        # Hermitian up to t = 0.5, then skew: the first Gauss node past 0.5 is named
        def gauge(t):
            return np.array([[0.0, 1.0], [0.0, 0.0]]) if t > 0.5 else np.eye(2)

        times = step_plan(1.0, 0.1, 1).times.tolist()
        nodes = [t + f * (u - t) for t, u in zip(times, times[1:])
                 for f in (0.5 - 3.0 ** 0.5 / 6.0, 0.5 + 3.0 ** 0.5 / 6.0)]
        first = next(t for t in nodes if t > 0.5)
        gauges = {"c_prime": np.eye(2), "c_double_prime": np.eye(2), which: gauge}
        with pytest.raises(NotHermitianGaugeError,
                           match=rf"^gauge sample at t={first} is not Hermitian"):
            gauge_propagators(gauges["c_prime"], gauges["c_double_prime"], 2, 1.0, 0.1, 1.0)

    def test_singular_a0_rejected_before_evolution(self, rng, no_frame_evolution):
        space, psi0, phi0, _, field = self._setup(rng)
        zero = np.zeros((2, 2))
        with pytest.raises(NearSingularError):
            gauge_equivalence_check(space, psi0, phi0, np.diag([1.0, 0.0]), field,
                                    1.0, 1.0, 1e-2, zero, zero)

    def test_skew_constant_gauge_rejected_before_evolution(self, rng,
                                                           no_frame_evolution):
        space, psi0, phi0, a0, field = self._setup(rng)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotHermitianGaugeError, match="constant gauge"):
            gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0,
                                    1.0, 1e-2, np.zeros((2, 2)), skew)


class TestKnotAwareSteps:
    """The moving frame and the gauged coefficients step to the knots of the
    ambient H and of a sampled-table B, so they keep their fourth order."""

    DTS = (2e-2, 1e-2, 5e-3)

    def _setup(self, rng):
        space = AmbientSpace(dim_h1=4, dim_h2=3, n=2,
                             ambient_hamiltonian=HamiltonianProfile.interpolated(
                                 [0.0, 0.3337, 1.0],
                                 [random_hermitian(rng, 4, 0.5, 2.5) for _ in range(3)]))
        field = FieldProfile.sampled_table([0.0, 0.4123, 1.0], [0.6, 1.2, 0.8])
        return (space, random_orthonormal_columns(rng, 4, 2),
                random_orthonormal_columns(rng, 3, 2), random_full_rank(rng, 2, 0.7, 1.4), field)

    def test_moving_solution_keeps_fourth_order(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        runs = [moving_solution(space, psi0, phi0, a0, field, 1.0, 1.0, dt, 10)
                for dt in self.DTS]
        for run, dt in zip(runs, self.DTS):
            assert np.array_equal(run.times, step_plan(1.0, dt, 10).output_times)
        ks = [run.ks[-1] for run in runs]
        assert np.log2(frob(ks[0] - ks[1]) / frob(ks[1] - ks[2])) >= 3.5

    def test_gauge_distance_falls_at_fourth_order(self, rng):
        space, psi0, phi0, a0, field = self._setup(rng)
        c1 = lambda t: np.array([[1.0 + t, 0.2], [0.2, 0.5]])  # noqa: E731
        c2 = np.array([[0.3, 0.1j], [-0.1j, 0.7]])
        d = [gauge_equivalence_check(space, psi0, phi0, a0, field, 1.0, 1.0, dt, c1, c2)
             for dt in self.DTS]
        assert np.log2(d[0] / d[1]) >= 3.5 and np.log2(d[1] / d[2]) >= 3.5


class TestFrameSignConsistency:
    def test_embedding_reproduces_scalar_phase(self):
        # 1x1 embedding: assembled phase must match (E + B^2/r0^2) t / hbar,
        # which pins the bra/ket sign convention of the frame propagator.
        energy, b, r0, hbar = 1.0, 1.0, 1.0, 1.0
        space = AmbientSpace(
            dim_h1=1, dim_h2=1, n=1,
            ambient_hamiltonian=HamiltonianProfile.constant(
                np.array([[energy]], dtype=complex)))
        one = np.eye(1, dtype=complex)
        ops = moving_solution(space, one, one, r0 * one,
                              FieldProfile.constant(b), hbar,
                              t_end=1.0, dt=1e-2, output_stride=20)
        for t, k in zip(ops.times, ops.ks):
            expected = r0 * np.exp(1j * (energy + b * b / r0 ** 2) * t / hbar)
            assert abs(k[0, 0] - expected) <= 1e-10

    def test_frame_matches_propagator(self, rng):
        # the kets are exp(-i H t / hbar) psi0, the bras psi0* exp(i H t / hbar)
        h = random_hermitian(rng, 4, 0.5, 2.0)
        space = AmbientSpace(dim_h1=4, dim_h2=4, n=2,
                             ambient_hamiltonian=HamiltonianProfile.constant(h))
        psi0 = random_orthonormal_columns(rng, 4, 2)
        times, frames = frame_samples(space, psi0, 1.0, 1e-3, 500)
        assert np.array_equal(times, step_plan(1.0, 1e-3, 500).output_times)
        for t, psi in zip(times, frames):
            expected = unitary_exponential(h, -t) @ psi0
            assert frob(psi - expected) <= 1e-11
