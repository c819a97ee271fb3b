"""Command-line front end.

Verbs: simulate, compare, critical, moving, flux, verify.  Every verb
writes its artifacts atomically into the output directory and finishes
with a run.json manifest.  Exit codes, each carried by its error class
as ``exit_code``: 0 success, 1 failed check or another package error (a
non-finite direct run, partial outputs retained), 2 usage, 3 invalid
config (a critical scenario with B(0) = 0 too), 4 near-singular (partial
outputs retained), 5 I/O failure, 6 solver precondition not met (series
truncation dominates, or the series solver given time-dependent
coefficients).
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .concurrency import two_cores
from .diagnostics import FluxInput, flux_distribution, invariant_report
from .diagnostics import CriticalPointSpec, critical_point
from .errors import (
    ConfigInvalidError,
    MesodynError,
    NearSingularError,
    NonFiniteError,
    UsageError,
)
from .fixed_domain import evolve_direct, evolve_factorized, evolve_series, max_distance
from .linalg import adjoint_inverse, matrix_from_json, matrix_to_json
from .moving_domain import moving_report, moving_solution
from .reports import (
    RunManifest,
    atomic_write_blocks,
    atomic_write_text,
    checks_csv,
    comparison_csv,
    diagnostics_csv,
    flux_csv,
    manifest_json,
    residual_report_csv,
    trajectory_csv,
)
from .scenario import ScenarioConfig, json_number, scenario_from_json, validate_scenario
from .verification import run_battery

COMPARE_TOLERANCE = 1e-6
# compare overlaps its direct and factorized routes from this operator
# dimension up.  Overlapped over sequential compare time, one BLAS thread
# on 2 cores (median of 8 pairs): 0.87-1.32 at dims 4-8, where the GIL
# binds, 1.03 at 16, 1.07 at 24, 0.91 at 32 (faster in 8 of 8), 0.71-0.77
# at 48 to 128.
OVERLAP_MIN_DIM = 32
# The series solver loops over its terms at every output time.  1,000 is
# far above the default 30 and the ~50 terms a series argument norm of
# SERIES_RADIUS_LIMIT (10) needs.
MAX_TERMS = 1000
VERBS = ("simulate", "compare", "critical", "moving", "flux", "verify")


@dataclasses.dataclass
class Command:
    verb: str
    config_path: str | None
    output_dir: str
    overrides: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def build_parser() -> _Parser:
    parser = _Parser(prog="mesodyn", description=__doc__)
    sub = parser.add_subparsers(dest="verb")

    def add(verb: str) -> argparse.ArgumentParser:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--output", default="mesodyn_out")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--hbar", type=float, default=None)
        return p

    sim = add("simulate")
    sim.add_argument("--solver", choices=("direct", "factorized", "series"),
                     default="factorized")
    sim.add_argument("--terms", type=int, default=30)
    cmp_p = add("compare")
    cmp_p.add_argument("--terms", type=int, default=30)
    add("critical")
    mov = add("moving")
    mov.add_argument("--literal-atime", dest="literal_atime", action="store_true")
    add("flux")
    ver = sub.add_parser("verify")  # the seeded battery reads no config
    ver.add_argument("--output", default="mesodyn_out")
    ver.add_argument("--seed", type=int, default=42)
    return parser


def parse_command(argv) -> Command:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        raise UsageError(f"a verb is required: one of {', '.join(VERBS)}\n"
                         f"{parser.format_usage()}")
    if not 1 <= getattr(args, "terms", 1) <= MAX_TERMS:
        parser.error(f"argument --terms: must be in 1..{MAX_TERMS}, got {args.terms}")
    if getattr(args, "seed", 0) < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    overrides = {}
    for key in ("dt", "t_end", "hbar", "solver", "terms", "seed", "literal_atime"):
        value = getattr(args, key, None)
        if value is not None and value is not False:
            overrides[key] = value
    return Command(verb=args.verb, config_path=getattr(args, "config", None),
                   output_dir=args.output, overrides=overrides)


def _file_digest(path: str) -> str:
    """sha256 of a file's bytes, read block by block."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigInvalidError(f"{path} is not valid JSON: {exc}") from exc


def _finite_number(value, name: str) -> float:
    """A scenario-document number as a finite float, else ConfigInvalidError."""
    try:
        number = json_number(value, name)
    except (ValueError, OverflowError) as exc:
        raise ConfigInvalidError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigInvalidError(f"{name} must be finite, got {value!r}")
    return number


def _scenario_from_document(doc: dict, overrides: dict, verb: str) -> ScenarioConfig:
    try:
        # the moving construction never reads initial_k
        cfg = scenario_from_json(doc, require_initial_k=verb != "moving")
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigInvalidError(f"bad scenario document: {exc}") from exc
    updates = {}
    for key in ("dt", "t_end", "hbar"):
        if key in overrides:
            updates[key] = overrides[key]
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    report = validate_scenario(cfg)
    if not report.ok:
        raise ConfigInvalidError(f"scenario invalid: {report}", report=report)
    return cfg


class _Workspace:
    """Collects artifacts for one run and writes the manifest last."""

    def __init__(self, output_dir: str, digest: str):
        self.output_dir = output_dir
        self.manifest = RunManifest(scenario_digest=digest,
                                    tool_version=__version__, wall_time=0.0)
        os.makedirs(output_dir, exist_ok=True)

    def write(self, name: str, text) -> None:
        """Write an artifact: a string, or an iterable of strings written as they come."""
        path = os.path.join(self.output_dir, name)
        if isinstance(text, str):
            atomic_write_text(path, text)
        else:  # perfbench's traced runs read the length of atomic_write_text's string
            atomic_write_blocks(path, text)
        self.manifest.outputs.append(name)

    def finish(self, wall_time: float) -> RunManifest:
        self.manifest.wall_time = wall_time
        self.write("run.json", manifest_json(self.manifest))
        return self.manifest


def _solver_drift_budget(tag: str, t_end: float) -> float:
    if tag == "direct":
        return 1e-8 * max(1.0, t_end)
    return 1e-10


def _emit_trajectory(ws: _Workspace, trajectory, cfg: ScenarioConfig) -> None:
    report = invariant_report(trajectory, cfg)
    ws.write(f"trajectory_{trajectory.solver_tag}.csv",
             trajectory_csv(trajectory, report))
    ws.write(f"diagnostics_{trajectory.solver_tag}.csv", diagnostics_csv(report))
    budget = _solver_drift_budget(trajectory.solver_tag, cfg.t_end)
    ws.manifest.status[f"conservation_{trajectory.solver_tag}"] = (
        "pass" if report.max_kk_star_drift() <= budget else "fail")


def _retain_partial(ws: _Workspace, exc: NearSingularError | NonFiniteError,
                    cfg: ScenarioConfig) -> None:
    """Emit what a stopped run integrated before the rank loss or overflow.

    The solver's error stays the run's error: the longest prefix whose
    diagnostics succeed is written, or none.  A sample's diagnostics fail
    on that sample alone, so a bisection finds the prefix.
    """
    partial = exc.partial

    def prefix(end):
        return dataclasses.replace(partial, times=partial.times[:end], ks=partial.ks[:end])

    def reported(end):
        try:
            invariant_report(prefix(end), cfg)
        except MesodynError:
            return False
        return True

    with np.errstate(over="ignore", invalid="ignore"):
        good = len(partial.ks) if partial is not None else 0
        if good and not reported(good):
            good, bad = 0, good  # prefix ``good`` passes (or is empty), ``bad`` fails
            while bad - good > 1:
                mid = (good + bad) // 2
                good, bad = (mid, bad) if reported(mid) else (good, mid)
        if good:
            _emit_trajectory(ws, prefix(good), cfg)
    ws.manifest.status["evolution_complete"] = "fail"


def _run_simulate(ws: _Workspace, cfg: ScenarioConfig, overrides: dict) -> None:
    solver = overrides.get("solver", "factorized")
    try:
        if solver == "direct":
            trajectory = evolve_direct(cfg)
        elif solver == "series":
            trajectory = evolve_series(cfg, int(overrides.get("terms", 30)))
        else:
            trajectory = evolve_factorized(cfg)
    except (NearSingularError, NonFiniteError) as exc:
        _retain_partial(ws, exc, cfg)
        raise
    ws.manifest.status["evolution_complete"] = "pass"
    _emit_trajectory(ws, trajectory, cfg)


def overlap_routes(dim: int) -> bool:
    """Whether compare runs its factorized route beside the direct one.

    Both routes are LAPACK-bound and share no state, so with one BLAS
    thread each they fill two CPUs.  An unpinned BLAS pool already uses
    them (overlapped, the routes fought over it and took about 1.5 times
    as long), and below OVERLAP_MIN_DIM the GIL serializes them.
    """
    return dim >= OVERLAP_MIN_DIM and two_cores()


@contextlib.contextmanager
def _factorized_route(cfg: ScenarioConfig):
    """Yield a call that returns ``evolve_factorized(cfg)``.

    Overlapped, the route starts on a worker thread here, in a copy of the
    caller's context (numpy's errstate lives there), and the call waits
    for it; leaving the block, by a return or an error, waits for the
    worker too.  Otherwise the call runs the route.
    """
    if not overlap_routes(cfg.initial_k.shape[0]):
        yield lambda: evolve_factorized(cfg)
        return
    # imported here: concurrent.futures adds about 4 ms to ``import mesodyn``
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        future = pool.submit(contextvars.copy_context().run, evolve_factorized, cfg)
        yield future.result


def _run_compare(ws: _Workspace, cfg: ScenarioConfig, overrides: dict) -> None:
    with _factorized_route(cfg) as factorized:
        try:
            direct = evolve_direct(cfg)
        except (NearSingularError, NonFiniteError) as exc:
            _retain_partial(ws, exc, cfg)
            raise
        trajectories = {"direct": direct, "factorized": factorized()}
    constant = cfg.hamiltonian.is_constant() and cfg.field.kind == "constant"
    if constant:
        trajectories["series"] = evolve_series(cfg, int(overrides.get("terms", 30)))
    rows = []
    names = sorted(trajectories)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            distance = max_distance(trajectories[a].ks, trajectories[b].ks)
            status = "pass" if distance <= COMPARE_TOLERANCE else "fail"
            rows.append((f"{a}_vs_{b}", distance, COMPARE_TOLERANCE, status))
            ws.manifest.status[f"{a}_vs_{b}"] = status
    ws.write("comparison.csv", comparison_csv(rows))
    for tag in names:
        _emit_trajectory(ws, trajectories[tag], cfg)


def _run_critical(ws: _Workspace, cfg: ScenarioConfig, doc: dict) -> None:
    h = cfg.hamiltonian.samples([0.0])[0]
    b = cfg.field.sample(0.0)
    if b == 0.0:  # K_nu = B(0) U (nu - H)^(-1/2) would be the zero matrix
        raise ConfigInvalidError("critical needs a nonzero field at t = 0, got B(0) = 0.0")
    nu = doc.get("nu")
    if nu is None:
        nu = float(np.linalg.eigvalsh(h)[-1]) + 1.0
    nu = _finite_number(nu, "nu")
    if "unitary" in doc:
        try:
            unitary = matrix_from_json(doc["unitary"])
        except ValueError as exc:
            raise ConfigInvalidError(f"bad unitary literal: {exc}") from exc
    else:
        unitary = np.eye(h.shape[0], dtype=complex)
    try:
        k = critical_point(CriticalPointSpec(nu=nu, unitary=unitary,
                                             hamiltonian=h, b=float(b)))
    except MesodynError as exc:
        raise ConfigInvalidError(f"critical point rejected: {exc}") from exc
    residual = float(np.linalg.norm(
        k @ h + (b * b) * adjoint_inverse(k, cfg.pd_floor) - nu * k))
    relative = residual / float(np.linalg.norm(k))
    payload = {
        "nu": nu,
        "b": float(b),
        "k": matrix_to_json(k),
        "residual": residual,
        "relative_residual": relative,
    }
    ws.write("critical_point.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    ws.manifest.status["euler_lagrange_residual"] = (
        "pass" if relative <= 1e-11 else "fail")


def _moving_inputs(cfg: ScenarioConfig, doc: dict):
    try:
        ambient_dim, rank = doc["ambient_dim"], doc["rank"]
        if not (type(ambient_dim) is int and type(rank) is int):
            raise ConfigInvalidError(f"ambient_dim and rank must be integers, "
                                     f"got {ambient_dim!r} and {rank!r}")
        psi0 = matrix_from_json(doc["psi0"])
        phi0 = matrix_from_json(doc["phi0"])
        a0 = matrix_from_json(doc["coeff_a0"])
    except KeyError as exc:
        raise ConfigInvalidError(
            f"moving scenario is missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigInvalidError(f"bad moving scenario matrix: {exc}") from exc
    if cfg.hamiltonian.dim != ambient_dim:
        raise ConfigInvalidError(
            f"hamiltonian dimension {cfg.hamiltonian.dim} != ambient_dim {ambient_dim}")
    if psi0.shape[1] != rank:
        raise ConfigInvalidError(f"rank {rank} != psi0's column count {psi0.shape[1]}")
    return psi0, phi0, a0


def _run_moving(ws: _Workspace, cfg: ScenarioConfig, doc: dict,
                overrides: dict) -> None:
    psi0, phi0, a0 = _moving_inputs(cfg, doc)
    try:
        trajectory = moving_solution(cfg, psi0, phi0, a0,
                                     literal=bool(overrides.get("literal_atime", False)))
    except MesodynError as exc:
        raise ConfigInvalidError(f"moving scenario rejected: {exc}") from exc
    residuals, image, radial = moving_report(trajectory, cfg, psi0.shape[1])
    ws.write("moving_report.csv", residual_report_csv(
        zip(trajectory.times, residuals, image, radial)))
    ws.manifest.status["image_fixed"] = "pass" if max(image) <= 1e-10 else "fail"
    ws.manifest.status["radial_conserved"] = "pass" if max(radial) <= 1e-9 else "fail"


def _run_flux(ws: _Workspace, cfg: ScenarioConfig, doc: dict) -> None:
    if "upsilon" not in doc or "total_flux" not in doc:
        raise ConfigInvalidError(
            "flux scenario needs 'upsilon' (matrix literal) and 'total_flux'")
    try:
        upsilon = matrix_from_json(doc["upsilon"]).reshape(-1)
    except ValueError as exc:
        raise ConfigInvalidError(f"bad upsilon literal: {exc}") from exc
    total_flux = _finite_number(doc["total_flux"], "total_flux")
    flux = FluxInput(upsilon=upsilon, total_flux=total_flux)
    try:
        # rejects a wrong-length or zero upsilon before the evolution runs
        flux_distribution(cfg.initial_k, flux)
    except ValueError as exc:
        raise ConfigInvalidError(f"bad upsilon: {exc}") from exc
    trajectory = evolve_factorized(cfg)
    distributions = flux_distribution(trajectory.ks, flux)
    worst = float(np.max(np.abs(np.sum(distributions, axis=-1) - total_flux)))
    ws.write("flux.csv", flux_csv(trajectory.times, distributions))
    ws.manifest.status["flux_normalization"] = (
        "pass" if worst <= 1e-12 * max(1.0, abs(total_flux)) else "fail")


def _run_verify(ws: _Workspace, overrides: dict) -> None:
    seed = int(overrides.get("seed", 42))
    results = run_battery(seed=seed)
    ws.write("checks.csv", checks_csv(results))
    for result in results:
        ws.manifest.status[result.name] = "pass" if result.passed else "fail"


def _error_record(exc: MesodynError | OSError) -> dict:
    record = {"type": type(exc).__name__, "message": str(exc)}
    last_good_time = getattr(exc, "last_good_time", None)
    if last_good_time is not None:
        record["last_good_time"] = last_good_time
    return record


@contextlib.contextmanager
def _recording_warnings(manifest: RunManifest):
    """Record in ``manifest.warnings`` each warning shown in the block.

    Only ``showwarning`` is wrapped, so the active filters still decide
    which warnings are shown (and recorded), turned into errors or
    ignored, and a shown warning still reaches stderr.  The hook is
    process-wide, so compare's worker thread is recorded too.
    """
    with warnings.catch_warnings():
        show = warnings.showwarning

        def record(message, category, *args, **kwargs):
            manifest.warnings.append({"category": category.__name__,
                                      "message": str(message)})
            show(message, category, *args, **kwargs)

        warnings.showwarning = record
        yield


def run(cmd: Command) -> RunManifest:
    """Dispatch one parsed command; returns the written manifest.

    The output directory opens first, so every package error and every
    OSError after that, an unreadable or rejected config included, still
    leaves a run.json that records the error before it propagates.  The
    manifest's digest is empty until the config file is hashed, and the
    sha256 of the raw file until the scenario is built and validated.
    """
    start = time.perf_counter()
    if cmd.verb == "verify":
        seed = int(cmd.overrides.get("seed", 42))
        digest = hashlib.sha256(f"verify-battery-seed-{seed}".encode()).hexdigest()
    else:
        digest = ""
    ws = _Workspace(cmd.output_dir, digest)

    def elapsed() -> float:
        # wall_time stays 0.0 for verify: its manifests are byte-reproducible.
        return 0.0 if cmd.verb == "verify" else time.perf_counter() - start

    with _recording_warnings(ws.manifest):
        try:
            if cmd.verb != "verify":
                ws.manifest.scenario_digest = _file_digest(cmd.config_path)
                doc = _load_document(cmd.config_path)
                cfg = _scenario_from_document(doc, cmd.overrides, cmd.verb)
                ws.manifest.scenario_digest = cfg.digest()
            if cmd.verb == "verify":
                _run_verify(ws, cmd.overrides)
            elif cmd.verb == "simulate":
                _run_simulate(ws, cfg, cmd.overrides)
            elif cmd.verb == "compare":
                _run_compare(ws, cfg, cmd.overrides)
            elif cmd.verb == "critical":
                _run_critical(ws, cfg, doc)
            elif cmd.verb == "moving":
                _run_moving(ws, cfg, doc, cmd.overrides)
            elif cmd.verb == "flux":
                _run_flux(ws, cfg, doc)
            else:
                raise UsageError(f"unknown verb {cmd.verb!r}")
        except (MesodynError, OSError) as exc:
            # partial artifacts are already on disk; the manifest names the error
            ws.manifest.error = _error_record(exc)
            ws.finish(elapsed())
            raise
        return ws.finish(elapsed())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        manifest = run(parse_command(argv))
    except (MesodynError, OSError) as exc:
        # an error class carries its exit code and label; an OSError is exit 5
        code, label = getattr(exc, "exit_code", 5), getattr(exc, "label", "i/o error")
        line = f"{label}: {exc}" if label else str(exc)
        last_good_time = getattr(exc, "last_good_time", None)
        if last_good_time is not None:
            line += f" (last good time {last_good_time})"
        print(f"mesodyn: {line}", file=sys.stderr)
        return code
    failed = [name for name, value in manifest.status.items() if value != "pass"]
    if failed:
        print(f"mesodyn: failed checks: {', '.join(sorted(failed))}",
              file=sys.stderr)
        return 1
    print(f"mesodyn: ok ({', '.join(manifest.outputs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
