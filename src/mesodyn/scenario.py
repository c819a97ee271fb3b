"""Problem-instance definition: time profiles, initial data, quadrature.

A scenario bundles the magnetic-induction profile B(t), the Hamiltonian
profile H(t), the initial operator K0 and the integration controls.  All
profiles are immutable after construction and sampling them is pure, so
scenarios can be shared freely across threads.

Validation is deliberately separated from construction: building a
ScenarioConfig never fails on semantic grounds, and ``validate_scenario``
reports every violated invariant with a machine-readable code instead of
throwing.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import NearSingularError, OutOfDomainError
from .linalg import (
    DEFAULT_PD_FLOOR,
    HERMITIAN_RTOL,
    as_matrix,
    hermitian_excess,
    hermitian_part,
    matrix_from_json,
    matrix_json_text,
    matrix_to_json,
    singular_values,
)

FIELD_KINDS = ("constant", "sinusoid", "linear-ramp", "sampled-table")
HAMILTONIAN_KINDS = ("constant", "interpolated-sequence")

# Validation codes (machine readable).
BAD_HBAR = "BAD_HBAR"
BAD_TIME_GRID = "BAD_TIME_GRID"
BAD_STRIDE = "BAD_STRIDE"
BAD_PD_FLOOR = "BAD_PD_FLOOR"
BAD_FIELD = "BAD_FIELD"
BAD_TABLE = "BAD_TABLE"
BAD_HAMILTONIAN = "BAD_HAMILTONIAN"
NOT_HERMITIAN = "NOT_HERMITIAN"
NOT_POSITIVE_DEFINITE = "NOT_POSITIVE_DEFINITE"
NOT_SQUARE = "NOT_SQUARE"
NON_FINITE = "NON_FINITE"
DIMENSION_MISMATCH = "DIMENSION_MISMATCH"
NOT_FULL_RANK = "NOT_FULL_RANK"
OUT_OF_DOMAIN = "OUT_OF_DOMAIN"
TOO_MANY_STEPS = "TOO_MANY_STEPS"
TOO_MANY_SAMPLES = "TOO_MANY_SAMPLES"

# Ceiling on the fine steps, t_end / dt plus one per inserted knot, counted
# before any time grid is allocated.  It sits far above every shipped
# scenario (at most a few thousand steps) and keeps the step array small.
MAX_FINE_STEPS = 10 ** 7
# Ceiling on the output samples a run retains, counted by arithmetic before
# any plan is built.  Each sample is held as matrices, diagnostics and CSV
# text until the files are written: a dim-2 factorized run peaked 136 MB
# higher with 10^5 samples than with 100 (about 1.4 kB a sample; 13.5 kB at
# dim 16), so 2 * 10^5 keeps a dim-2 run near 300 MB.  The shipped, CI and
# benchmark scenarios retain at most 501.
MAX_OUTPUT_SAMPLES = 2 * 10 ** 5
# Ceiling on their entries, samples * n**2 with n the Hamiltonian's (ambient)
# dimension: simulate peaked 31-36 bytes higher per entry at dims 16 and 64,
# compare 48-52, so a run stays under about 0.5 GB.  The largest shipped, CI
# or benchmark scenario holds 201 * 64**2, about 8.2 * 10^5.
MAX_OUTPUT_ENTRIES = 10 ** 7

_DOMAIN_SLACK = 1e-9


def _outside_domain(domain: tuple[float, float], t0, t1):
    """[t0, t1] leaves the domain by more than a relative slack.

    Elementwise for arrays of times, a bool for floats.
    """
    lo, hi = domain
    slack = _DOMAIN_SLACK * max(1.0, abs(lo) if math.isfinite(lo) else 0.0,
                                abs(hi) if math.isfinite(hi) else 0.0)
    return (t0 < lo - slack) | (t1 > hi + slack)


def _knot_domain(times: tuple, tabulated: bool) -> tuple[float, float]:
    """[first knot, last knot] of a tabulated profile, the empty interval
    (inf, -inf) for an empty table, and the whole line otherwise."""
    if not tabulated:
        return (-math.inf, math.inf)
    if not times:
        return (math.inf, -math.inf)
    return (times[0], times[-1])


@dataclass(frozen=True)
class FieldProfile:
    """Real scalar profile B(t), tagged by kind.

    kinds: constant (value); sinusoid (offset + amplitude *
    sin(2*pi*frequency*t + phase)); linear-ramp (slope*t + intercept);
    sampled-table (linear interpolation between strictly increasing
    sample times).
    """

    kind: str
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    offset: float = 0.0
    slope: float = 0.0
    intercept: float = 0.0
    times: tuple = ()
    values: tuple = ()

    @staticmethod
    def constant(value: float) -> "FieldProfile":
        return FieldProfile(kind="constant", value=float(value))

    @staticmethod
    def sinusoid(amplitude: float, frequency: float, phase: float = 0.0,
                 offset: float = 0.0) -> "FieldProfile":
        return FieldProfile(kind="sinusoid", amplitude=float(amplitude),
                            frequency=float(frequency), phase=float(phase),
                            offset=float(offset))

    @staticmethod
    def linear_ramp(slope: float, intercept: float) -> "FieldProfile":
        return FieldProfile(kind="linear-ramp", slope=float(slope),
                            intercept=float(intercept))

    @staticmethod
    def sampled_table(times, values) -> "FieldProfile":
        return FieldProfile(kind="sampled-table",
                            times=tuple(float(t) for t in times),
                            values=tuple(float(v) for v in values))

    def domain(self) -> tuple[float, float]:
        return _knot_domain(self.times, self.kind == "sampled-table")

    def sample(self, t: float) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoid":
            return self.offset + self.amplitude * math.sin(
                2.0 * math.pi * self.frequency * t + self.phase)
        if self.kind == "linear-ramp":
            return self.slope * t + self.intercept
        if self.kind == "sampled-table":
            # the only kind with a bounded domain
            lo, hi = self.domain()
            if _outside_domain((lo, hi), t, t):
                raise OutOfDomainError(
                    f"field sampled at t={t!r} outside its domain [{lo}, {hi}]"
                )
            return float(np.interp(min(max(t, lo), hi), self.times, self.values))
        raise ValueError(f"unknown field kind {self.kind!r}")


@dataclass(frozen=True)
class HamiltonianProfile:
    """Hermitian positive-definite matrix profile H(t), tagged by kind.

    Sampling always returns the symmetrized matrix (M + M*)/2, which is
    bit-for-bit equal to its own conjugate transpose.  For the
    interpolated-sequence kind, interpolation is entrywise linear in
    time followed by re-symmetrization.  The symmetrized constant matrix
    and the knot arrays are set up once, at the first sample.
    """

    kind: str
    matrix: np.ndarray | None = None
    times: tuple = ()
    matrices: tuple = ()

    @staticmethod
    def constant(matrix) -> "HamiltonianProfile":
        return HamiltonianProfile(kind="constant", matrix=as_matrix(matrix))

    @staticmethod
    def interpolated(times, matrices) -> "HamiltonianProfile":
        return HamiltonianProfile(
            kind="interpolated-sequence",
            times=tuple(float(t) for t in times),
            matrices=tuple(as_matrix(m) for m in matrices),
        )

    @property
    def dim(self) -> int:
        if self.kind == "constant":
            return 0 if self.matrix is None else self.matrix.shape[0]
        return self.matrices[0].shape[0] if self.matrices else 0

    def domain(self) -> tuple[float, float]:
        return _knot_domain(self.times, self.kind == "interpolated-sequence")

    def is_constant(self) -> bool:
        return self.kind == "constant"

    def generator(self):
        """The matrix when constant, else ``samples``: what a propagator steps."""
        return self.samples([0.0])[0] if self.is_constant() else self.samples

    @cached_property
    def _table(self):
        """What ``samples`` reads, set up at the first sample: the symmetrized
        matrix, read-only, when constant, else the (K, n, n) knots, their
        times and each knot's interval length (the last knot's has no end)."""
        if self.kind not in HAMILTONIAN_KINDS:
            raise ValueError(f"unknown hamiltonian kind {self.kind!r}")
        if self.is_constant():
            matrix = hermitian_part(self.matrix)
            matrix.flags.writeable = False
            return matrix
        knot_times = np.array(self.times)
        return np.stack(self.matrices), knot_times, np.append(np.diff(knot_times), 1.0)

    def samples(self, times) -> np.ndarray:
        """The (T, n, n) stack of H(t), one sample per t in ``times``.

        A constant profile is its symmetrized matrix, read-only, at every t.
        An interpolated one clamps t into its knot range, finds its interval
        (``searchsorted`` side="right"), blends the two knots entrywise and
        symmetrizes the blend; at or past the last knot it symmetrizes that
        knot.  One clamp, one ``searchsorted`` and one blend serve all T
        times, and each sample has the bits of sampling its time alone.  A
        time outside the domain raises OutOfDomainError for the first such t.
        """
        ts = np.asarray(times, dtype=np.float64)
        if self.is_constant():
            return np.broadcast_to(self._table, ts.shape + self._table.shape)
        lo, hi = self.domain()
        outside = _outside_domain((lo, hi), ts, ts)
        if outside.any():
            raise OutOfDomainError(f"hamiltonian sampled at t={float(ts[np.argmax(outside)])!r} "
                                   f"outside its domain [{lo}, {hi}]")
        knots, knot_times, spans = self._table
        ts = np.minimum(np.maximum(ts, lo), hi)
        i = np.searchsorted(knot_times, ts, side="right") - 1  # the knot at or before t
        last = i == len(knot_times) - 1  # at the last knot: that knot itself, set below
        i = np.minimum(i, len(knot_times) - 2)  # so blend those in the last interval
        # complex up front: the blend then broadcasts theta without a buffered cast
        theta = ((ts - knot_times[i]) / spans[i]).astype(np.complex128)[:, None, None]
        if i.size and (i == i[0]).all():  # one interval: blend views of its two knots
            i = i[0]
        out = (1.0 - theta) * knots[i] + theta * knots[i + 1]
        out[last] = knots[-1]
        return hermitian_part(out, out=out)


def _sinc(x: float) -> float:
    return math.sin(x) / x if x else 1.0


def integrate_b_squared(profile: FieldProfile, t0: float, t1: float) -> float:
    """Integral of B(t)^2 over [t0, t1], exact for every field kind.

    Constant profiles use B^2 (t1 - t0).  A sinusoid c + A sin(w t + phi),
    w = 2 pi f, uses the closed form

        D [c^2 + A^2/2 + 2cA sin(w m + phi) S(w D/2) - (A^2/2) cos(2(w m + phi)) S(w D)]

    with D = t1 - t0, midpoint m and S(x) = sin(x)/x; it needs no branch
    for f = 0 and does not cancel on short intervals.  Linear ramps and
    sampled tables are piecewise linear, so Simpson per linear segment is
    exact for their piecewise-quadratic integrand.
    """
    if t0 > t1:
        raise ValueError(f"t0={t0!r} must not exceed t1={t1!r}")
    lo, hi = profile.domain()
    if _outside_domain((lo, hi), t0, t1):
        raise OutOfDomainError(
            f"integration range [{t0}, {t1}] outside the profile domain [{lo}, {hi}]"
        )
    if t1 == t0:
        return 0.0
    if profile.kind == "constant":
        return profile.value * profile.value * (t1 - t0)
    if profile.kind == "sinusoid":
        c, a, d = profile.offset, profile.amplitude, t1 - t0
        w = 2.0 * math.pi * profile.frequency
        theta = w * (0.5 * (t0 + t1)) + profile.phase
        return d * (c * c + 0.5 * a * a
                    + 2.0 * c * a * math.sin(theta) * _sinc(0.5 * w * d)
                    - 0.5 * a * a * math.cos(2.0 * theta) * _sinc(w * d))

    def f(t: float) -> float:
        b = profile.sample(t)
        return b * b

    knots = [t0] + [t for t in profile.times if t0 < t < t1] + [t1]
    return sum((b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))  # Simpson
               for a, b in zip(knots, knots[1:]))


@dataclass(frozen=True)
class ScenarioConfig:
    """A runnable problem instance.

    hbar and the profiles are shared by every solver; dt is the fine step
    of the time grid and output_stride thins the emitted states.
    ``initial_k`` is None only for a moving-domain scenario, whose
    construction never reads it; every fixed-domain solver needs it.
    """

    hbar: float
    hamiltonian: HamiltonianProfile
    field: FieldProfile
    initial_k: np.ndarray | None
    t_end: float
    dt: float
    output_stride: int = 1
    pd_floor: float = DEFAULT_PD_FLOOR

    @property
    def knots(self) -> tuple:
        """The knots of an interpolated H and a sampled-table B: kinks to step to."""
        return self.hamiltonian.times + self.field.times

    def plan(self) -> "StepPlan":
        """The scenario's ``step_plan``, with a step time at each of its knots."""
        return step_plan(self.t_end, self.dt, self.output_stride, self.knots)

    def digest(self) -> str:
        """Content hash of the scenario: the sha256 of its canonical JSON,
        ``json.dumps(scenario_to_json(self), sort_keys=True, separators=(",", ":"))``.

        Each matrix literal, nearly all of those bytes, is written by
        ``matrix_json_text`` and spliced in for a placeholder string; the
        document's only other strings are kind names, so none collides.
        """
        literals = []

        def placeholder(m) -> str:
            literals.append(matrix_json_text(m))
            return f"\x00{len(literals) - 1}"  # json writes it as "\u0000<i>"

        skeleton = json.dumps(_scenario_document(self, placeholder), sort_keys=True,
                              separators=(",", ":"))
        payload = re.sub(r'"\\u0000(\d+)"', lambda m: literals[int(m[1])], skeleton)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple = dataclass_field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> tuple:
        return tuple(issue.code for issue in self.issues)

    def __str__(self) -> str:
        if self.ok:
            return "scenario valid"
        return "; ".join(f"{i.code}: {i.message}" for i in self.issues)


def _check_field(profile: FieldProfile, t_end: float, issues: list) -> None:
    if profile.kind not in FIELD_KINDS:
        issues.append(ValidationIssue(BAD_FIELD, f"unknown field kind {profile.kind!r}"))
        return
    params = (profile.value, profile.amplitude, profile.frequency, profile.phase,
              profile.offset, profile.slope, profile.intercept)
    if not all(math.isfinite(p) for p in params):
        issues.append(ValidationIssue(NON_FINITE, "field parameters must be finite"))
        return
    if profile.kind == "sampled-table":
        times, values = profile.times, profile.values
        if len(times) < 2 or len(times) != len(values):
            issues.append(ValidationIssue(
                BAD_TABLE, "sampled-table needs >= 2 aligned (time, value) samples"))
            return
        if not all(math.isfinite(x) for x in times + values):
            issues.append(ValidationIssue(NON_FINITE, "table entries must be finite"))
            return
        if any(b <= a for a, b in zip(times, times[1:])):
            issues.append(ValidationIssue(BAD_TABLE, "table times must be strictly increasing"))
            return
    _check_covers("field", profile, t_end, issues)


def _check_covers(name: str, profile, t_end: float, issues: list) -> None:
    lo, hi = profile.domain()
    if lo > 0.0 or hi < t_end:
        issues.append(ValidationIssue(
            OUT_OF_DOMAIN, f"{name} domain [{lo}, {hi}] does not cover [0, {t_end}]"))


def _check_hamiltonian(profile: HamiltonianProfile, t_end: float, issues: list) -> int:
    """Append issues; return the profile dimension (0 when unusable)."""
    if profile.kind not in HAMILTONIAN_KINDS:
        issues.append(ValidationIssue(
            BAD_HAMILTONIAN, f"unknown hamiltonian kind {profile.kind!r}"))
        return 0
    if profile.kind == "constant":
        samples = () if profile.matrix is None else (profile.matrix,)
        if not samples:
            issues.append(ValidationIssue(BAD_HAMILTONIAN, "constant profile has no matrix"))
            return 0
    else:
        samples = profile.matrices
        if len(samples) < 1 or len(profile.times) != len(samples):
            issues.append(ValidationIssue(
                BAD_HAMILTONIAN, "interpolated-sequence needs aligned times and matrices"))
            return 0
        if any(b <= a for a, b in zip(profile.times, profile.times[1:])):
            issues.append(ValidationIssue(
                BAD_HAMILTONIAN, "sample times must be strictly increasing"))
            return 0
        _check_covers("hamiltonian", profile, t_end, issues)
    dim = samples[0].shape[0]
    for idx, m in enumerate(samples):
        if m.shape[0] != m.shape[1]:
            issues.append(ValidationIssue(
                NOT_SQUARE, f"hamiltonian sample {idx} is not square: {m.shape}"))
            return 0
        if m.shape[0] != dim:
            issues.append(ValidationIssue(
                DIMENSION_MISMATCH, f"hamiltonian sample {idx} has dimension "
                f"{m.shape[0]}, expected {dim}"))
            return 0
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            issues.append(ValidationIssue(
                NON_FINITE, f"hamiltonian sample {idx} has non-finite entries"))
            return 0
        dev = hermitian_excess(m, HERMITIAN_RTOL)
        if dev is not None:
            issues.append(ValidationIssue(
                NOT_HERMITIAN, f"hamiltonian sample {idx}: max |M - M*| = {dev:.3e}"))
        w = np.linalg.eigvalsh(hermitian_part(m))
        if float(w[0]) <= 0.0:
            issues.append(ValidationIssue(
                NOT_POSITIVE_DEFINITE,
                f"hamiltonian sample {idx} has min eigenvalue {float(w[0]):.3e}"))
    return dim


def validate_scenario(cfg: ScenarioConfig) -> ValidationReport:
    """Check every scenario invariant; never raises.

    An empty report means every solver precondition on the scenario holds
    at t = 0 and the profiles cover [0, t_end].
    """
    issues: list[ValidationIssue] = []

    if not (isinstance(cfg.hbar, (int, float)) and math.isfinite(cfg.hbar) and cfg.hbar > 0):
        issues.append(ValidationIssue(BAD_HBAR, f"hbar must be a positive real, got {cfg.hbar!r}"))
    grid_issues = len(issues)
    if not (math.isfinite(cfg.t_end) and cfg.t_end > 0):
        issues.append(ValidationIssue(BAD_TIME_GRID, f"t_end must be positive, got {cfg.t_end!r}"))
    if not (math.isfinite(cfg.dt) and cfg.dt > 0):
        issues.append(ValidationIssue(BAD_TIME_GRID, f"dt must be positive, got {cfg.dt!r}"))
    elif math.isfinite(cfg.t_end) and cfg.dt >= cfg.t_end:
        issues.append(ValidationIssue(
            BAD_TIME_GRID, f"dt={cfg.dt!r} must be smaller than t_end={cfg.t_end!r}"))
    elif math.isfinite(cfg.t_end) and (
            cfg.t_end / cfg.dt > MAX_FINE_STEPS or _step_count(cfg.t_end, cfg.dt)
            + len(_inserted_knots(cfg.t_end, cfg.dt, cfg.knots)) > MAX_FINE_STEPS):
        issues.append(ValidationIssue(
            TOO_MANY_STEPS, f"t_end/dt = {cfg.t_end / cfg.dt:.3e}, plus a step per knot "
            f"inside a step, exceeds the ceiling of {MAX_FINE_STEPS:.0e} fine steps"))
    if int(cfg.output_stride) < 1:
        issues.append(ValidationIssue(BAD_STRIDE, "output_stride must be >= 1"))
    elif len(issues) == grid_issues:
        count = output_sample_count(cfg.t_end, cfg.dt, cfg.output_stride)
        n = cfg.hamiltonian.dim
        if count > MAX_OUTPUT_SAMPLES or count * n * n > MAX_OUTPUT_ENTRIES:
            issues.append(ValidationIssue(
                TOO_MANY_SAMPLES, f"the run would retain {count} output samples of "
                f"{n * n} entries, above the ceiling of {MAX_OUTPUT_SAMPLES:.0e} samples "
                f"or {MAX_OUTPUT_ENTRIES:.0e} entries; raise output_stride"))
    if not (0.0 < cfg.pd_floor < 1.0):
        issues.append(ValidationIssue(BAD_PD_FLOOR, "pd_floor must lie in (0, 1)"))

    t_end = cfg.t_end if (math.isfinite(cfg.t_end) and cfg.t_end > 0) else 0.0
    _check_field(cfg.field, t_end, issues)
    h_dim = _check_hamiltonian(cfg.hamiltonian, t_end, issues)

    k = None if cfg.initial_k is None else np.asarray(cfg.initial_k, dtype=np.complex128)
    if k is None:
        pass  # a moving-domain scenario, which never reads initial_k
    elif k.ndim != 2 or k.shape[0] != k.shape[1]:
        issues.append(ValidationIssue(NOT_SQUARE, f"initial_k must be square, got {k.shape}"))
    elif not np.all(np.isfinite(k.real)) or not np.all(np.isfinite(k.imag)):
        issues.append(ValidationIssue(NON_FINITE, "initial_k has non-finite entries"))
    else:
        if h_dim and k.shape[0] != h_dim:
            issues.append(ValidationIssue(
                DIMENSION_MISMATCH,
                f"initial_k dimension {k.shape[0]} != hamiltonian dimension {h_dim}"))
        try:
            singular_values(k, cfg.pd_floor if 0.0 < cfg.pd_floor < 1.0 else DEFAULT_PD_FLOOR)
        except NearSingularError as exc:
            issues.append(ValidationIssue(NOT_FULL_RANK, f"initial_k {exc}"))

    return ValidationReport(issues=tuple(issues))


@dataclass(frozen=True)
class StepPlan:
    """Fine step times (landing exactly on t_end) and output indices."""

    times: np.ndarray
    output_indices: tuple

    @property
    def output_times(self) -> np.ndarray:
        return self.times[list(self.output_indices)]


def _step_count(t_end: float, dt: float) -> int:
    """The steps of the uniform grid 0, dt, 2 dt, ... ending on t_end: its last
    multiple of dt moves onto t_end when past it or within 1e-12 (relative)
    short of it, else a short step ends there."""
    n = math.floor(t_end / dt + 1e-9)
    last = dt * n
    return n if last > t_end or t_end - last <= 1e-12 * max(1.0, t_end) else n + 1


def _inserted_knots(t_end: float, dt: float, knots) -> np.ndarray:
    """The distinct knots 0 < t < t_end, in order, farther than the domain
    slack from every time of the uniform grid; by arithmetic, as a knot's
    nearest grid times are dt * round(t / dt) and its neighbours (or t_end)."""
    steps = _step_count(t_end, dt)
    t = np.array(sorted({float(k) for k in knots if 0.0 < k < t_end}), dtype=np.float64)
    near = np.minimum(np.maximum(np.rint(t / dt)[:, None] + (-1.0, 0.0, 1.0), 0.0), steps)
    grid = np.where(near == steps, t_end, dt * near)
    slack = _DOMAIN_SLACK * np.maximum(1.0, t)
    return t[(np.abs(grid - t[:, None]) > slack[:, None]).all(axis=1)]


def output_sample_count(t_end: float, dt: float, output_stride: int = 1) -> int:
    """``len(step_plan(t_end, dt, output_stride).output_indices)``, by
    arithmetic alone: no time grid is built."""
    return len(range(0, _step_count(t_end, dt), max(int(output_stride), 1))) + 1


def step_plan(t_end: float, dt: float, output_stride: int = 1, knots=()) -> StepPlan:
    """Fine step times from 0 to t_end, and the output indices among them.

    The times are the uniform grid (``_step_count``) plus each of ``knots``
    strictly inside one of its steps (``_inserted_knots``), so no step
    straddles a point where a profile is only continuous.  The outputs are
    every ``output_stride``-th time of the uniform grid and its last.
    """
    steps = _step_count(t_end, dt)
    times = dt * np.arange(steps + 1, dtype=np.float64)
    times[-1] = t_end
    outputs = [*range(0, steps, max(int(output_stride), 1)), steps]
    inserted = _inserted_knots(t_end, dt, knots)
    if inserted.size:
        uniform = times[outputs]
        times = np.sort(np.concatenate([times, inserted]))
        outputs = np.searchsorted(times, uniform).tolist()
    return StepPlan(times=times, output_indices=tuple(outputs))


def _field_to_json(profile: FieldProfile) -> dict:
    if profile.kind == "constant":
        return {"kind": "constant", "value": profile.value}
    if profile.kind == "sinusoid":
        return {"kind": "sinusoid", "amplitude": profile.amplitude,
                "frequency": profile.frequency, "phase": profile.phase,
                "offset": profile.offset}
    if profile.kind == "linear-ramp":
        return {"kind": "linear-ramp", "slope": profile.slope,
                "intercept": profile.intercept}
    if profile.kind == "sampled-table":
        return {"kind": "sampled-table", "times": list(profile.times),
                "values": list(profile.values)}
    raise ValueError(f"unknown field kind {profile.kind!r}")


def json_number(value, name: str) -> float:
    """A scenario document's number as a float.

    A JSON number parses to an int or a float; a string or a boolean (a
    bool is an int to Python) raises ValueError instead of converting.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _json_numbers(values, name: str) -> list:
    """A JSON array of numbers as a list of floats."""
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a JSON array, got {type(values).__name__}")
    return [json_number(v, f"{name} entry") for v in values]


def _json_integer(value, name: str) -> int:
    """A JSON integer, or a float of integral value such as 10.0, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _field_from_json(obj) -> FieldProfile:
    if not isinstance(obj, dict):
        raise ValueError(f"field must be a JSON object, got {type(obj).__name__}")

    def number(key: str, default=None) -> float:
        value = obj[key] if default is None else obj.get(key, default)
        return json_number(value, f"field {key}")

    kind = obj.get("kind")
    if kind == "constant":
        return FieldProfile.constant(number("value"))
    if kind == "sinusoid":
        return FieldProfile.sinusoid(number("amplitude"), number("frequency"),
                                     number("phase", 0.0), number("offset", 0.0))
    if kind == "linear-ramp":
        return FieldProfile.linear_ramp(number("slope"), number("intercept"))
    if kind == "sampled-table":
        return FieldProfile.sampled_table(_json_numbers(obj["times"], "field times"),
                                          _json_numbers(obj["values"], "field values"))
    raise ValueError(f"unknown field kind {kind!r}")


def _hamiltonian_to_json(profile: HamiltonianProfile, literal) -> dict:
    if profile.kind == "constant":
        return {"kind": "constant", "matrix": literal(profile.matrix)}
    if profile.kind == "interpolated-sequence":
        return {"kind": "interpolated-sequence", "times": list(profile.times),
                "matrices": [literal(m) for m in profile.matrices]}
    raise ValueError(f"unknown hamiltonian kind {profile.kind!r}")


def _hamiltonian_from_json(obj) -> HamiltonianProfile:
    if not isinstance(obj, dict):
        raise ValueError(
            f"hamiltonian must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "constant":
        return HamiltonianProfile.constant(matrix_from_json(obj["matrix"]))
    if kind == "interpolated-sequence":
        return HamiltonianProfile.interpolated(
            _json_numbers(obj["times"], "hamiltonian times"),
            [matrix_from_json(m) for m in obj["matrices"]])
    raise ValueError(f"unknown hamiltonian kind {kind!r}")


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    """The scenario's JSON object; ``initial_k`` is left out when None."""
    return _scenario_document(cfg, matrix_to_json)


def _scenario_document(cfg: ScenarioConfig, literal) -> dict:
    """``scenario_to_json`` with each matrix written by ``literal``."""
    doc = {
        "hbar": float(cfg.hbar),
        "hamiltonian": _hamiltonian_to_json(cfg.hamiltonian, literal),
        "field": _field_to_json(cfg.field),
        "initial_k": None if cfg.initial_k is None else literal(cfg.initial_k),
        "t_end": float(cfg.t_end),
        "dt": float(cfg.dt),
        "output_stride": int(cfg.output_stride),
        "pd_floor": float(cfg.pd_floor),
    }
    if doc["initial_k"] is None:
        del doc["initial_k"]
    return doc


def scenario_from_json(obj, require_initial_k: bool = True) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON object.

    Raises ValueError on structural problems (missing keys, malformed
    matrices, a string or boolean where a number belongs, a non-integral
    ``output_stride``); semantic checks belong to validate_scenario.  Without
    ``require_initial_k`` (moving-domain scenarios) a missing
    ``initial_k`` gives None.
    """
    if not isinstance(obj, dict):
        raise ValueError("scenario document must be a JSON object")
    required = {"hbar", "hamiltonian", "field", "t_end", "dt"}
    if require_initial_k:
        required.add("initial_k")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"scenario is missing keys {sorted(missing)}")
    return ScenarioConfig(
        hbar=json_number(obj["hbar"], "hbar"),
        hamiltonian=_hamiltonian_from_json(obj["hamiltonian"]),
        field=_field_from_json(obj["field"]),
        initial_k=(matrix_from_json(obj["initial_k"]) if "initial_k" in obj
                   else None),
        t_end=json_number(obj["t_end"], "t_end"),
        dt=json_number(obj["dt"], "dt"),
        output_stride=_json_integer(obj.get("output_stride", 1), "output_stride"),
        pd_floor=json_number(obj.get("pd_floor", DEFAULT_PD_FLOOR), "pd_floor"),
    )
