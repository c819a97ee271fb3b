"""Span tracing of mesodyn's public functions from outside the package.

``Tracer.install`` rebinds every wrapped function under each name that
holds it: the defining module, every ``mesodyn`` module that imported it
by name, the package namespace, and the class for the two ``sample``
methods.  ``numpy.linalg.svd``/``eigh``/``eigvalsh`` are wrapped as the
``lapack`` layer, since mesodyn calls them as ``np.linalg.<name>``.
``uninstall`` restores every binding, and ``assert_untraced`` checks that
none is left.

A span's self time is its duration minus the durations of its child
spans.  Time spent in unwrapped code counts towards the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
import sys
import time

import numpy as np

# (layer, defining module, attribute path) of every wrapped function.
TARGETS = (
    ("cli", "mesodyn.cli", "run"),
    ("scenario", "mesodyn.scenario", "scenario_from_json"),
    ("scenario", "mesodyn.scenario", "validate_scenario"),
    ("scenario", "mesodyn.scenario", "step_plan"),
    ("scenario", "mesodyn.scenario", "integrate_b_squared"),
    ("scenario", "mesodyn.scenario", "HamiltonianProfile.sample"),
    ("scenario", "mesodyn.scenario", "FieldProfile.sample"),
    ("linalg", "mesodyn.linalg", "hermitian"),
    ("linalg", "mesodyn.linalg", "hermitian_eigendecompose"),
    ("linalg", "mesodyn.linalg", "unitary_exponential"),
    ("linalg", "mesodyn.linalg", "psd_sqrt"),
    ("linalg", "mesodyn.linalg", "psd_inverse"),
    ("linalg", "mesodyn.linalg", "adjoint_inverse"),
    ("linalg", "mesodyn.linalg", "adjoint_pseudo_inverse"),
    ("fixed_domain", "mesodyn.fixed_domain", "polar_init"),
    ("fixed_domain", "mesodyn.fixed_domain", "evolve_W"),
    ("fixed_domain", "mesodyn.fixed_domain", "evolve_V"),
    ("fixed_domain", "mesodyn.fixed_domain", "evolve_factorized"),
    ("fixed_domain", "mesodyn.fixed_domain", "evolve_direct"),
    ("fixed_domain", "mesodyn.fixed_domain", "evolve_series"),
    ("moving_domain", "mesodyn.moving_domain", "evolve_frame_schrodinger"),
    ("moving_domain", "mesodyn.moving_domain", "coefficient_matrix_evolution"),
    ("moving_domain", "mesodyn.moving_domain", "assemble_moving_solution"),
    ("moving_domain", "mesodyn.moving_domain", "weak_residual"),
    ("moving_domain", "mesodyn.moving_domain", "image_projector"),
    ("moving_domain", "mesodyn.moving_domain", "gauge_propagators"),
    ("moving_domain", "mesodyn.moving_domain", "gauge_equivalence_check"),
    ("diagnostics", "mesodyn.diagnostics", "invariant_report"),
    ("diagnostics", "mesodyn.diagnostics", "total_hamiltonian"),
    ("diagnostics", "mesodyn.diagnostics", "hamiltonian_rate"),
    ("diagnostics", "mesodyn.diagnostics", "differential_check"),
    ("reports", "mesodyn.reports", "trajectory_csv"),
    ("reports", "mesodyn.reports", "diagnostics_csv"),
    ("reports", "mesodyn.reports", "residual_report_csv"),
    ("reports", "mesodyn.reports", "comparison_csv"),
    ("reports", "mesodyn.reports", "checks_csv"),
    ("reports", "mesodyn.reports", "atomic_write_text"),
    ("verification", "mesodyn.verification", "check_conservation_and_agreement"),
    ("verification", "mesodyn.verification", "check_series_agreement"),
    ("verification", "mesodyn.verification", "check_diagonal_closed_form"),
    ("verification", "mesodyn.verification", "check_critical_points"),
    ("verification", "mesodyn.verification", "check_differential_identity"),
    ("verification", "mesodyn.verification", "check_energy_rate_order"),
    ("verification", "mesodyn.verification", "check_constant_h_invariant"),
    ("verification", "mesodyn.verification", "check_moving_domain"),
    ("verification", "mesodyn.verification", "check_gauge_equivalence"),
    ("verification", "mesodyn.verification", "check_rk4_order"),
    ("lapack", "numpy.linalg", "svd"),
    ("lapack", "numpy.linalg", "eigh"),
    ("lapack", "numpy.linalg", "eigvalsh"),
)
LAYERS = ("cli", "scenario", "linalg", "fixed_domain", "moving_domain",
          "diagnostics", "reports", "verification", "lapack")
# Wrapped but not printed, to keep the per-layer list at 128 entries: the
# function with the least self time on every workload (one 1-row table per
# compare).  Its time still counts in its layer's roll-up.
UNREPORTED = ("reports.comparison_csv",)

_MARK = "_perfbench_span"


def metric_names() -> list:
    """Every per-layer metric a traced run prints, with its unit."""
    names = []
    for layer, _, attr in TARGETS:
        name = f"{layer}.{attr}"
        if name in UNREPORTED:
            continue
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if layer == "verification":
            names.append((f"{name}.total_s", "s"))
        if layer == "lapack":
            names.append((f"{name}.n3_sum", "n3-computed"))
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("reports.bytes", "bytes"),
        ("linalg.eig_repeat_ratio", "ratio"),
        ("scenario.field_samples_per_integral", "count"),
        ("fixed_domain.evolve_direct.step_ms", "ms"),
        ("fixed_domain.evolve_factorized.step_ms", "ms"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    return names


def _resolve(module_name: str, attr: str):
    """(owner, leaf name) of a target, or None once the program dropped it."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


def _holders(owner, leaf: str, module_name: str):
    """(object, attribute) pairs bound to the function ``owner.leaf``."""
    if owner is not sys.modules.get(module_name) or module_name.startswith("numpy"):
        return [(owner, leaf)]  # a method's class, or numpy.linalg
    target = getattr(owner, leaf)
    return [(module, key) for module in _mesodyn_modules()
            for key, value in vars(module).items() if value is target]


def _mesodyn_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "mesodyn" or name.startswith("mesodyn."))]


def missing_targets() -> list:
    """Targets the program no longer defines; their metrics read 0."""
    return [attr for _, module_name, attr in TARGETS
            if _resolve(module_name, attr) is None]


def assert_untraced() -> None:
    """Raise if any wrapper from this module is still bound anywhere."""
    found = [_resolve(module_name, attr) for _, module_name, attr in TARGETS]
    bound = [getattr(*pair) for pair in found if pair is not None]
    for module in _mesodyn_modules():
        bound += list(vars(module).values())
    leftover = sorted(getattr(v, _MARK) for v in bound if hasattr(v, _MARK))
    if leftover:
        raise RuntimeError(f"tracing wrappers still installed: {leftover}")


class Tracer:
    """Collects per-function calls, self time and inclusive time."""

    def __init__(self):
        self._restore = []
        self._stack = []
        self._active = {}
        self.reset()

    def reset(self) -> None:
        """Start a new pass: zero every counter."""
        self.stats = {}      # span name -> [calls, self_s, total_s]
        self.counts = {}     # extra counters
        self._eig_inputs = set()

    def _count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- hooks: run before the span starts, so their cost is the caller's --

    def _hook(self, name: str, step_plan):
        if name == "linalg.hermitian_eigendecompose":
            def hook(args, kwargs):
                m = np.ascontiguousarray(args[0], dtype=np.complex128)
                key = (m.shape, hashlib.blake2b(m.tobytes(), digest_size=16).digest())
                if key in self._eig_inputs:
                    self._count("eig_repeats")
                self._eig_inputs.add(key)
            return hook
        if name == "scenario.FieldProfile.sample":
            def hook(args, kwargs):
                if self._active.get("scenario.integrate_b_squared"):
                    self._count("field_samples_under_integral")
            return hook
        if step_plan and name in ("fixed_domain.evolve_direct",
                                  "fixed_domain.evolve_factorized"):
            def hook(args, kwargs):
                cfg = args[0]
                self._count(f"{name}.steps",
                            len(step_plan(cfg.t_end, cfg.dt).times) - 1)
            return hook
        if name == "reports.atomic_write_text":
            def hook(args, kwargs):
                text = args[1] if len(args) > 1 else kwargs["text"]
                self._count("reports.bytes",
                            len(text) if text.isascii() else len(text.encode("utf-8")))
            return hook
        if name.startswith("lapack."):
            def hook(args, kwargs):
                shape = np.shape(args[0])
                m, n = shape[-2], shape[-1]
                batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
                self._count(f"{name}.n3_sum", batch * m * n * min(m, n))
            return hook
        return None

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        active = self._active
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                active[name] -= 1
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if stack:
                    stack[-1][1] += duration

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        step_plan = getattr(importlib.import_module("mesodyn.scenario"), "step_plan", None)
        for layer, module_name, attr in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, leaf = found
            name = f"{layer}.{attr}"
            wrapper = self._wrap(name, getattr(owner, leaf), self._hook(name, step_plan))
            for holder, key in _holders(owner, leaf, module_name):
                self._restore.append((holder, key, getattr(holder, key)))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def pass_metrics(self, wall_s: float) -> dict:
        """Metrics of the pass since the last ``reset``, traced wall included."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, _, attr in TARGETS:
            name = f"{layer}.{attr}"
            calls, self_s, total_s = self.stats.get(name, (0, 0.0, 0.0))
            layer_self[layer] += self_s
            if name in UNREPORTED:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if layer == "verification":
                out[f"{name}.total_s"] = total_s
            if layer == "lapack":
                out[f"{name}.n3_sum"] = self.counts.get(f"{name}.n3_sum", 0)
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value

        def ratio(num, den):
            return num / den if den else 0.0

        eig_calls = self.stats.get("linalg.hermitian_eigendecompose", (0,))[0]
        integrals = self.stats.get("scenario.integrate_b_squared", (0,))[0]
        out["reports.bytes"] = self.counts.get("reports.bytes", 0)
        out["linalg.eig_repeat_ratio"] = ratio(self.counts.get("eig_repeats", 0),
                                               eig_calls)
        out["scenario.field_samples_per_integral"] = ratio(
            self.counts.get("field_samples_under_integral", 0), integrals)
        for solver in ("evolve_direct", "evolve_factorized"):
            name = f"fixed_domain.{solver}"
            total_s = self.stats.get(name, (0, 0.0, 0.0))[2]
            out[f"{name}.step_ms"] = ratio(1000.0 * total_s,
                                           self.counts.get(f"{name}.steps", 0))
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(layer_self.values())
        return out


def median_metrics(passes: list) -> dict:
    """Per-metric median over the traced passes; counts stay whole numbers."""
    out = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        whole = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if whole else statistics.median)(values)
    return out
