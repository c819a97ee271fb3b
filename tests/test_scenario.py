import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest

from mesodyn.errors import OffGridKnotWarning, OutOfDomainError
from mesodyn.scenario import (
    BAD_STRIDE,
    BAD_TABLE,
    BAD_TIME_GRID,
    DIMENSION_MISMATCH,
    NOT_FULL_RANK,
    NOT_POSITIVE_DEFINITE,
    TOO_MANY_STEPS,
    FieldProfile,
    HamiltonianProfile,
    ScenarioConfig,
    integrate_b_squared,
    scenario_from_json,
    scenario_to_json,
    step_plan,
    validate_scenario,
)
from mesodyn.verification import crandn, random_hermitian


def make_config(**overrides):
    base = dict(
        hbar=1.0,
        hamiltonian=HamiltonianProfile.constant(np.diag([1.0, 2.0]).astype(complex)),
        field=FieldProfile.constant(1.0),
        initial_k=np.eye(2, dtype=complex),
        t_end=1.0,
        dt=1e-2,
        output_stride=10,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestSampleField:
    def test_constant_everywhere(self):
        assert FieldProfile.constant(2.0).sample(5.0) == 2.0

    def test_sinusoid_zero_at_origin(self):
        profile = FieldProfile.sinusoid(amplitude=1.0, frequency=1.0 / (2 * np.pi))
        assert profile.sample(0.0) == 0.0
        # with this frequency the profile is exactly sin(t)
        assert profile.sample(1.3) == pytest.approx(np.sin(1.3), abs=1e-15)

    def test_table_interpolates(self):
        profile = FieldProfile.sampled_table([0.0, 1.0], [0.0, 2.0])
        assert profile.sample(0.5) == 1.0

    def test_table_rejects_extrapolation(self):
        profile = FieldProfile.sampled_table([0.0, 1.0], [0.0, 2.0])
        with pytest.raises(OutOfDomainError):
            profile.sample(2.0)

    def test_ramp(self):
        assert FieldProfile.linear_ramp(2.0, 1.0).sample(3.0) == 7.0


class TestSampleHamiltonian:
    def test_constant(self):
        profile = HamiltonianProfile.constant(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(profile.samples([17.3])[0], np.diag([1.0, 2.0]))

    def test_sequence_midpoint(self):
        profile = HamiltonianProfile.interpolated(
            [0.0, 1.0], [np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex)])
        assert np.allclose(profile.samples([0.5])[0], 2.0 * np.eye(2))

    def test_interpolation_is_bitwise_hermitian(self, rng):
        samples = [random_hermitian(rng, 3, 0.5, 2.0) for _ in range(3)]
        profile = HamiltonianProfile.interpolated([0.0, 0.4, 1.0], samples)
        for t in (0.0, 0.13, 0.4, 0.77, 1.0):
            h = profile.samples([t])[0]
            assert np.array_equal(h, h.conj().T)

    def test_out_of_domain(self):
        profile = HamiltonianProfile.interpolated(
            [0.0, 1.0], [np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
        with pytest.raises(OutOfDomainError):
            profile.samples([1.5])


def reference_sample(times, matrices, t):
    """One sample written out with the arithmetic of ``HamiltonianProfile.samples``."""
    t = min(max(t, times[0]), times[-1])
    j = int(np.searchsorted(times, t, side="right"))
    if j >= len(times):
        mixed = matrices[-1]
    else:
        theta = (t - times[j - 1]) / (times[j] - times[j - 1])
        mixed = (1.0 - theta) * matrices[j - 1] + theta * matrices[j]
    return (mixed + mixed.conj().T) / 2


class TestHamiltonianSamples:
    TIMES = [0.0, 0.4, 1.0]

    def table(self, rng, dim=3, knots=TIMES):
        # Knots off Hermitian at roundoff, so symmetrizing changes bits.
        return [random_hermitian(rng, dim, 0.5, 2.0) + 1e-15 * crandn(rng, dim, dim)
                for _ in knots]

    @pytest.mark.parametrize("t", [0.0, 0.13, 0.4, 0.77, 1.0, -1e-12, 1.0 + 1e-12],
                             ids=["first_knot", "between", "inner_knot", "between_late",
                                  "last_knot", "clamped_low", "clamped_high"])
    def test_sample_is_the_reference_blend(self, t, rng):
        matrices = self.table(rng)
        (sample,) = HamiltonianProfile.interpolated(self.TIMES, matrices).samples([t])
        assert sample.shape == (3, 3)
        assert np.array_equal(sample, reference_sample(self.TIMES, matrices, t))

    def test_constant_samples(self, rng):
        profile = HamiltonianProfile.constant(self.table(rng)[0])
        samples = profile.samples([0.0, 5.0, -3.0])
        assert samples.shape == (3, 3, 3)
        for sample in samples:
            assert np.array_equal(sample, (profile.matrix + profile.matrix.conj().T) / 2)
        assert not samples.flags.writeable

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("knots", [[0.0, 1.0], [0.0, 0.4, 1.0]],
                             ids=["two_knots", "three_knots"])
    @pytest.mark.parametrize("times", [
        [0.77, 0.0, 0.13, 0.4, 1.0, -1e-12, 1.0 + 1e-12, 0.13, 0.999],
        [0.31, 0.05, 0.2],
        [1.0, 1.0 + 1e-12],
    ], ids=["unsorted_on_between_and_clamped", "one_interval", "last_knot_only"])
    def test_each_sample_is_its_own_times(self, times, knots, dim, rng):
        matrices = self.table(rng, dim, knots)
        if dim > 1:
            # signed zeros: a blend at theta = 1 would turn the -0.0 real parts into +0.0
            matrices[-1][0, 1], matrices[-1][1, 0] = complex(-0.0, -1.0), complex(-0.0, 1.0)
        profile = HamiltonianProfile.interpolated(knots, matrices)
        sampled = profile.samples(times)
        assert sampled.shape == (len(times), dim, dim)
        for t, sample in zip(times, sampled):
            assert sample.tobytes() == profile.samples([t])[0].tobytes()
            assert sample.tobytes() == reference_sample(knots, matrices, t).tobytes()

    def test_samples_name_the_first_time_outside(self, rng):
        profile = HamiltonianProfile.interpolated(self.TIMES, self.table(rng))
        with pytest.raises(OutOfDomainError) as lone:
            profile.samples([1.5])
        with pytest.raises(OutOfDomainError) as many:
            profile.samples([0.5, 1.5, -0.5])
        assert str(many.value) == str(lone.value)
        assert "t=1.5 outside its domain [0.0, 1.0]" in str(lone.value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown hamiltonian kind"):
            HamiltonianProfile(kind="stepwise", times=(0.0, 1.0),
                               matrices=(np.eye(2), np.eye(2))).samples([0.5])


class TestIntegrateBSquared:
    def test_constant_closed_form(self):
        assert integrate_b_squared(FieldProfile.constant(2.0), 0.0, 3.0) == 12.0

    def test_empty_interval(self):
        profile = FieldProfile.sinusoid(1.0, 0.3, 0.2, 0.5)
        assert integrate_b_squared(profile, 0.7, 0.7) == 0.0

    def test_sine_analytic(self):
        # int_0^pi sin^2 = pi/2
        profile = FieldProfile.sinusoid(amplitude=1.0, frequency=1.0 / (2 * np.pi))
        value = integrate_b_squared(profile, 0.0, np.pi)
        assert value == pytest.approx(np.pi / 2, abs=1e-10)

    def test_sine_zero_frequency(self):
        # f = 0 leaves the constant field B = offset + amplitude * sin(phase)
        profile = FieldProfile.sinusoid(amplitude=0.4, frequency=0.0, phase=0.9, offset=0.3)
        b = 0.3 + 0.4 * np.sin(0.9)
        value = integrate_b_squared(profile, 0.2, 1.7)
        assert value == pytest.approx(b * b * (1.7 - 0.2), rel=1e-14)

    def test_sine_short_interval(self):
        # Int_{t0}^{t1} B^2 = d B(m)^2 + d^3/24 (B^2)''(m) + O(d^5), d = t1 - t0
        offset, amplitude, frequency, phase = 0.7, 0.4, 0.3, 0.2
        t0 = 0.61
        t1 = t0 + 1e-6
        d, m = t1 - t0, 0.5 * (t0 + t1)
        w = 2.0 * np.pi * frequency
        theta = w * m + phase
        b = offset + amplitude * np.sin(theta)
        b1 = amplitude * w * np.cos(theta)
        b2 = -amplitude * w * w * np.sin(theta)
        expected = d * b * b + d ** 3 / 12.0 * (b1 * b1 + b * b2)
        profile = FieldProfile.sinusoid(amplitude, frequency, phase, offset)
        assert integrate_b_squared(profile, t0, t1) == pytest.approx(expected, rel=1e-14)

    def test_ramp_analytic(self):
        # (2t+1)^2 integrates to (2t+1)^3/6
        profile = FieldProfile.linear_ramp(2.0, 1.0)
        value = integrate_b_squared(profile, 0.0, 1.0)
        assert value == pytest.approx((27.0 - 1.0) / 6.0, rel=1e-13)

    def test_table_piecewise_exact(self):
        profile = FieldProfile.sampled_table([0.0, 0.5, 1.0], [1.0, 2.0, 0.0])
        # B^2 is quadratic on each segment: [0,.5]: (1+2t)^2, [.5,1]: (4-4t)^2
        expected = (2.0 ** 3 - 1.0) / 6.0 + (2.0 ** 3 - 0.0) / 12.0
        value = integrate_b_squared(profile, 0.0, 1.0)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_additivity(self):
        profile = FieldProfile.sinusoid(0.7, 0.4, 0.3, 0.6)
        whole = integrate_b_squared(profile, 0.0, 1.0)
        split = (integrate_b_squared(profile, 0.0, 0.37)
                 + integrate_b_squared(profile, 0.37, 1.0))
        assert abs(whole - split) <= 2e-12

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_b_squared(FieldProfile.constant(1.0), 1.0, 0.0)


class TestValidateScenario:
    def test_well_formed_is_empty(self):
        assert validate_scenario(make_config()).ok

    def test_non_positive_definite(self):
        cfg = make_config(hamiltonian=HamiltonianProfile.constant(
            np.diag([1.0, -1.0]).astype(complex)))
        assert NOT_POSITIVE_DEFINITE in validate_scenario(cfg).codes()

    def test_bad_time_grid(self):
        cfg = make_config(dt=2.0)
        assert BAD_TIME_GRID in validate_scenario(cfg).codes()

    def test_bad_stride(self):
        cfg = make_config(output_stride=0)
        assert BAD_STRIDE in validate_scenario(cfg).codes()

    def test_dimension_mismatch(self):
        cfg = make_config(initial_k=np.eye(3, dtype=complex))
        assert DIMENSION_MISMATCH in validate_scenario(cfg).codes()

    def test_rank_deficient_initial(self):
        cfg = make_config(initial_k=np.diag([1.0, 0.0]).astype(complex))
        assert NOT_FULL_RANK in validate_scenario(cfg).codes()

    def test_too_many_steps(self):
        assert TOO_MANY_STEPS in validate_scenario(make_config(dt=1e-300)).codes()
        assert TOO_MANY_STEPS in validate_scenario(make_config(dt=1e-12)).codes()
        assert validate_scenario(make_config(dt=1e-6)).ok

    def test_bad_table(self):
        cfg = make_config(field=FieldProfile.sampled_table([0.0, 0.0], [1.0, 1.0]))
        assert BAD_TABLE in validate_scenario(cfg).codes()

    def test_table_not_covering_time_range(self):
        cfg = make_config(field=FieldProfile.sampled_table([0.0, 0.5], [1.0, 1.0]))
        assert "OUT_OF_DOMAIN" in validate_scenario(cfg).codes()

    def test_never_throws_on_garbage(self):
        cfg = make_config(hbar=-1.0, dt=float("nan"), t_end=-2.0,
                          initial_k=np.full((2, 2), np.nan, dtype=complex))
        report = validate_scenario(cfg)
        assert not report.ok


class TestOffGridKnots:
    """A knot strictly inside a step of the dt grid warns once; a knot on it does not."""

    def config(self, rng, knots, dt=1e-2):
        # the README's 3x3 example
        matrices = [random_hermitian(rng, 3, 0.5, 2.0) for _ in knots]
        return make_config(hamiltonian=HamiltonianProfile.interpolated(knots, matrices),
                           initial_k=np.eye(3, dtype=complex), dt=dt)

    def test_knot_inside_a_step_warns_once(self, rng):
        cfg = self.config(rng, [0.0, 0.3337, 1.0])
        grid = step_plan(cfg.t_end, cfg.dt).times
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert validate_scenario(cfg).ok
        [warning] = caught
        assert warning.category is OffGridKnotWarning
        assert issubclass(OffGridKnotWarning, UserWarning)
        message = str(warning.message)
        assert "knot t=0.3337" in message
        assert f"step [{float(grid[33])!r}, {float(grid[34])!r}]" in message
        assert "more knots" not in message

    def test_several_off_grid_knots_warn_once(self, rng):
        cfg = self.config(rng, [0.0, 0.3337, 0.5, 0.6661, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_scenario(cfg)
        [warning] = caught
        assert "knot t=0.3337" in str(warning.message)
        assert "(and 1 more knots)" in str(warning.message)

    @pytest.mark.parametrize("knots, dt", [
        ([0.0, 0.34, 1.0], 1e-2),   # on the grid up to the rounding of 34 * dt
        ([0.0, 1.0], 1e-2),
        ([0.0, 0.3, 1.0], 0.1),     # 3 * 0.1 is 0.30000000000000004
        ([-1.0, 0.5, 2.0], 0.25),   # knots outside [0, t_end] and one on the grid
    ])
    def test_on_grid_knots_do_not_warn(self, rng, knots, dt):
        cfg = self.config(rng, knots, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_scenario(cfg).ok

    def test_invalid_scenario_does_not_warn(self, rng):
        cfg = dataclasses.replace(self.config(rng, [0.0, 0.3337, 1.0]), hbar=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not validate_scenario(cfg).ok


class TestStepPlan:
    def test_exact_multiple(self):
        plan = step_plan(1.0, 0.1, output_stride=2)
        assert plan.times[0] == 0.0
        assert plan.times[-1] == 1.0
        assert plan.output_indices[0] == 0
        assert plan.output_indices[-1] == len(plan.times) - 1

    def test_partial_final_step(self):
        plan = step_plan(0.95, 0.1, output_stride=3)
        assert plan.times[-1] == 0.95
        assert np.all(np.diff(plan.times) > 0)

    def test_output_times_cover_grid(self):
        plan = step_plan(1.0, 1e-3, output_stride=100)
        assert len(plan.output_times) == 11


class TestJsonRoundTrip:
    def test_scenario_round_trip(self, rng):
        cfg = ScenarioConfig(
            hbar=0.7,
            hamiltonian=HamiltonianProfile.interpolated(
                [0.0, 1.0],
                [random_hermitian(rng, 2, 0.5, 2.0), random_hermitian(rng, 2, 0.5, 2.0)]),
            field=FieldProfile.sinusoid(0.4, 0.2, 0.1, 0.8),
            initial_k=np.array([[1.0, 0.2j], [0.0, 1.0]]),
            t_end=2.0, dt=1e-3, output_stride=5, pd_floor=1e-11)
        doc = json.loads(json.dumps(scenario_to_json(cfg)))
        back = scenario_from_json(doc)
        assert back.digest() == cfg.digest()
        assert np.array_equal(back.initial_k, cfg.initial_k)
        assert back.field == cfg.field
        assert back.hbar == cfg.hbar

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_json({"hbar": 1.0})

    def test_digest_changes_with_content(self):
        a = make_config()
        b = make_config(t_end=2.0)
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("kind", ["constant", "interpolated-sequence"])
    def test_digest_is_sha256_of_canonical_json(self, rng, kind):
        # the values where repr and orjson disagree, plus the default pd_floor;
        # dim 48 puts 2304 entries in each re/im list, past one orjson chunk
        special = np.array([1e-05, 1e16, -0.0, 5e-324, 1e-12, -1e-05 + 5e-324j])
        h = random_hermitian(rng, 48, 0.5, 2.0)
        h[np.diag_indices(6)] += special.real
        k0 = crandn(rng, 48, 48)
        k0.flat[:special.size] = special
        k0.flat[-special.size:] = special.conj()
        if kind == "constant":
            hamiltonian = HamiltonianProfile.constant(h)
        else:
            hamiltonian = HamiltonianProfile.interpolated([0.0, 1e-05, 1e16], [h, h, h])
        cfg = ScenarioConfig(
            hbar=1e-05, hamiltonian=hamiltonian,
            field=FieldProfile.sampled_table([0.0, 1e-05, 1e16], [-0.0, 5e-324, 1e16]),
            initial_k=k0, t_end=1e16, dt=5e-324)
        assert cfg.pd_floor == 1e-12
        payload = json.dumps(scenario_to_json(cfg), sort_keys=True, separators=(",", ":"))
        assert cfg.digest() == hashlib.sha256(payload.encode("utf-8")).hexdigest()
