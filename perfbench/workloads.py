"""Seeded inputs, CLI operations and output gates of the three workloads.

Every input is drawn here with numpy from the workload seed and written as
a scenario JSON document; the program sees only those documents and the
command lines.  Nothing here imports ``mesodyn``: the generators must not
move when the program's own random helpers change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ensemble", "propagate", "artifact")
SIZES = ("full", "tiny")
NO_INTERMEDIATE_OUTPUT = 10 ** 9  # output stride above the step count


@dataclass(frozen=True)
class CsvSpec:
    """Shape a CSV artifact must parse back to.

    ``rows`` counts data rows (header excluded; None: at least one).
    Columns named in ``text``
    hold words, columns in ``blank_ok`` may be empty, every other cell must
    be a finite number.
    """

    rows: int | None
    cols: int
    text: frozenset = frozenset()
    blank_ok: frozenset = frozenset()


@dataclass
class Operation:
    """One CLI invocation: its argv (without --output) and expected files.

    ``fine_steps`` and ``samples`` are per trajectory (per solver for
    ``compare``); they are provenance, the gate reads ``csvs``.
    """

    label: str
    argv: list
    csvs: dict
    config: dict | None = None
    config_path: str | None = None
    dim: int | None = None
    fine_steps: int | None = None
    samples: int | None = None


@dataclass
class OpResult:
    label: str
    failures: list = field(default_factory=list)
    sha256: dict = field(default_factory=dict)
    bytes: int = 0
    worst_error: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# ---------------------------------------------------------------------------
# Random operators (numpy only)


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def _hermitian(rng, n, lo, hi):
    q = _unitary(rng, n)
    m = (q * rng.uniform(lo, hi, size=n)) @ q.conj().T
    return (m + m.conj().T) / 2


def _full_rank(rng, n, smin, smax):
    return (_unitary(rng, n) * rng.uniform(smin, smax, size=n)) @ _unitary(rng, n)


def _orthonormal_columns(rng, rows, cols):
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q


def _literal(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def _sinusoid(rng):
    return {"kind": "sinusoid", "amplitude": rng.uniform(0.2, 0.5),
            "frequency": rng.uniform(0.1, 0.4),
            "phase": rng.uniform(0.0, 2.0 * math.pi),
            "offset": rng.uniform(0.5, 0.9)}


def _scenario(rng, dim, t_end, dt, stride, time_dependent):
    h0 = _hermitian(rng, dim, 0.5, 2.5)
    if time_dependent:
        # H drifts linearly over [0, 1] by a Hermitian step of norm <= 0.4,
        # so it stays positive definite on the whole domain.
        h1 = h0 + _hermitian(rng, dim, -0.4, 0.4)
        hamiltonian = {"kind": "interpolated-sequence", "times": [0.0, 1.0],
                       "matrices": [_literal(h0), _literal(h1)]}
    else:
        hamiltonian = {"kind": "constant", "matrix": _literal(h0)}
    return {"hbar": 1.0, "hamiltonian": hamiltonian, "field": _sinusoid(rng),
            "initial_k": _literal(_full_rank(rng, dim, 0.7, 1.5)),
            "t_end": t_end, "dt": dt, "output_stride": stride}


def _grid(t_end, dt, stride):
    steps = int(math.floor(t_end / dt + 1e-9))
    if t_end - steps * dt > 1e-12 * max(1.0, t_end):
        steps += 1
    samples = len(range(0, steps + 1, stride))
    if steps % stride:
        samples += 1
    return steps, samples


# ---------------------------------------------------------------------------
# Workloads

# (dim, t_end) of each operation; dt is 1e-3 throughout.
PROPAGATE = {"full": ((64, 0.1), (128, 0.05)), "tiny": ((2, 0.005), (3, 0.005))}
SIMULATE = {"full": ((16, 0.5), (32, 0.3), (64, 0.1)), "tiny": ((2, 0.005),)}
MOVING = {"full": (64, 16, 8, 0.2), "tiny": (4, 3, 2, 0.005)}  # M, dim_h2, n, t_end
DT = 1e-3


def _trajectory_specs(solver, dim, samples, constant_h):
    blank = frozenset() if constant_h else frozenset({"trace_khk_drift"})
    return {
        f"trajectory_{solver}.csv": CsvSpec(samples, 1 + 2 * dim * dim + 3,
                                            blank_ok=blank),
        f"diagnostics_{solver}.csv": CsvSpec(samples, 7, blank_ok=blank),
    }


def _ensemble(seed, size):
    # The verify verb has no size flag; ``tiny`` shrinks the battery
    # through run.py instead (see ``tiny_battery``).  The row count is left
    # open so that a check added to the battery is not a failure.
    return [Operation(label="verify", argv=["verify", "--seed", str(seed)],
                      csvs={"checks.csv": CsvSpec(None, 5, text=frozenset(
                          {"check", "comparison", "status"}))})]


def _propagate(seed, size):
    ops = []
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence([seed, 1]).spawn(len(PROPAGATE[size]))]
    for rng, (dim, t_end) in zip(rngs, PROPAGATE[size]):
        steps, samples = _grid(t_end, DT, NO_INTERMEDIATE_OUTPUT)
        csvs = {"comparison.csv": CsvSpec(1, 4, text=frozenset({"pair", "status"}))}
        for solver in ("direct", "factorized"):
            csvs.update(_trajectory_specs(solver, dim, samples, False))
        ops.append(Operation(
            label=f"compare-dim{dim}", argv=["compare"], csvs=csvs,
            config=_scenario(rng, dim, t_end, DT, NO_INTERMEDIATE_OUTPUT, True),
            dim=dim, fine_steps=steps, samples=samples))
    return ops


def _artifact(seed, size):
    ops = []
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence([seed, 2]).spawn(len(SIMULATE[size]) + 1)]
    for rng, (dim, t_end) in zip(rngs, SIMULATE[size]):
        steps, samples = _grid(t_end, DT, 1)
        ops.append(Operation(
            label=f"simulate-dim{dim}", argv=["simulate", "--solver", "factorized"],
            csvs=_trajectory_specs("factorized", dim, samples, True),
            config=_scenario(rng, dim, t_end, DT, 1, False),
            dim=dim, fine_steps=steps, samples=samples))
    ambient, dim_h2, rank, t_end = MOVING[size]
    rng = rngs[-1]
    doc = _scenario(rng, ambient, t_end, DT, 1, True)
    doc.update({
        "ambient_dim": ambient, "rank": rank,
        "psi0": _literal(_orthonormal_columns(rng, ambient, rank)),
        "phi0": _literal(_orthonormal_columns(rng, dim_h2, rank)),
        "coeff_a0": _literal(_full_rank(rng, rank, 0.7, 1.4)),
    })
    steps, samples = _grid(t_end, DT, 1)
    ops.append(Operation(
        label=f"moving-dim{ambient}", argv=["moving"],
        csvs={"moving_report.csv": CsvSpec(samples, 4,
                                           blank_ok=frozenset({"weak_residual"}))},
        config=doc, dim=ambient, fine_steps=steps, samples=samples))
    return ops


def operations(workload: str, seed: int, size: str = "full") -> list:
    """The CLI invocations of one pass of ``workload``, drawn from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return {"ensemble": _ensemble, "propagate": _propagate,
            "artifact": _artifact}[workload](seed, size)


def write_configs(ops, directory: str) -> None:
    """Write each operation's scenario document and point its argv at it."""
    os.makedirs(directory, exist_ok=True)
    for op in ops:
        if op.config is None:
            continue
        op.config_path = os.path.join(directory, f"{op.label}.json")
        with open(op.config_path, "w", encoding="utf-8") as handle:
            json.dump(op.config, handle)
        op.argv = op.argv + ["--config", op.config_path]


# ---------------------------------------------------------------------------
# Running and gating


def invoke(main, op: Operation, out_dir: str) -> tuple:
    """Run one CLI invocation in-process; returns (exit code, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(op.argv + ["--output", out_dir])
    except Exception:  # a traceback is a failed operation, not a crash
        return None, traceback.format_exc()
    return code, sink.getvalue().strip()


def _parse_csv(path: str, spec: CsvSpec, name: str, result: OpResult) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        result.failures.append(f"{name}: empty")
        return []
    header = lines[0].split(",")
    rows_ok = len(lines) > 1 if spec.rows is None else len(lines) - 1 == spec.rows
    if len(header) != spec.cols or not rows_ok:
        result.failures.append(
            f"{name}: {len(lines) - 1} rows x {len(header)} cols, "
            f"expected {spec.rows} x {spec.cols}")
        return []
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != spec.cols:
            result.failures.append(f"{name}: row {number} has {len(cells)} cells")
            return []
        row = {}
        for column, cell in zip(header, cells):
            if column in spec.text:
                row[column] = cell
            elif cell == "" and column in spec.blank_ok:
                row[column] = None
            else:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    result.failures.append(
                        f"{name}: row {number} column {column} = {cell!r}")
                    return []
                row[column] = value
        rows.append(row)
    return rows


def _worst(workload: str, name: str, rows: list):
    if workload == "ensemble" and name == "checks.csv":
        return max(r["metric"] for r in rows if r["check"] == "cross_solver_distance")
    if workload == "propagate" and name == "comparison.csv":
        return max(r["max_distance"] for r in rows)
    if workload == "artifact" and name.startswith("diagnostics_"):
        return max(r["kk_drift"] for r in rows)
    return None


class Gate:
    """Checks each invocation's exit code, manifest and CSV artifacts.

    The gate is the exit code, every manifest status, and the shape and
    finiteness of every CSV.  The sha256 of every artifact is recorded for
    information only.  A CSV whose bytes equal a copy that already passed
    is not parsed again, since equal bytes parse equally; bytes that differ
    are parsed in full and are never failed for differing.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._passed = {}  # (label, name, sha256) -> worst error of the file

    def __call__(self, op: Operation, code, error: str, out_dir: str) -> OpResult:
        result = OpResult(label=op.label)
        if code != 0:
            result.failures.append(f"exit {code}: {error}")
            return result
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as handle:
                data = handle.read()
            result.sha256[name] = hashlib.sha256(data).hexdigest()
            result.bytes += len(data)
        try:
            with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            result.failures.append(f"run.json unreadable: {exc}")
            return result
        bad = sorted(k for k, v in manifest.get("status", {}).items() if v != "pass")
        if bad or not manifest.get("status"):
            result.failures.append(f"run.json status not pass: {bad or 'empty'}")
        outputs = set(manifest.get("outputs", ()))
        for name, spec in op.csvs.items():
            if name not in outputs or name not in result.sha256:
                result.failures.append(f"{name}: missing")
                continue
            key = (op.label, name, result.sha256[name])
            if key in self._passed:
                worst = self._passed[key]
            else:
                before = len(result.failures)
                rows = _parse_csv(os.path.join(out_dir, name), spec, name, result)
                worst = _worst(self.workload, name, rows) if rows else None
                if len(result.failures) == before:
                    self._passed[key] = worst
            if worst is not None:
                result.worst_error = max(worst, result.worst_error or 0.0)
        return result


def clear(out_dir: str) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
