"""mesodyn benchmark: seeded CLI workloads with an optional traced run.

    python3 perfbench/run.py --workload ensemble|propagate|artifact \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root.  It imports ``mesodyn`` from ``src/`` and
drives ``mesodyn.cli.main`` in-process, one invocation after another (a
closed loop with one client), for about ``--seconds`` seconds.  Each pass
runs every invocation of the workload once; every invocation is gated
(exit code, ``run.json`` statuses, CSV shapes and finiteness).

``--trace 0`` prints the end-to-end metrics: the median pass time, the
set-up time, the peak RSS and the accuracy.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``spans.py``.  Earlier lines of standard output carry a readable summary and the
provenance; the last line is the JSON result.
"""

from __future__ import annotations

import os

# The BLAS pool is pinned before numpy loads.  On a 2-core machine a dim-128
# step ran no faster with 2 OpenBLAS threads than with 1, and 1 is steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# Seed of the recorded baseline, and the held-out seed that confirms a
# later claim on inputs its author did not tune against.
BASELINE_SEED = 42
HELDOUT_SEED = 7
SETUP_REPEATS = 7

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy_digits", "digits"))

_IMPORT_PROBE = ("import sys, time\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "start = time.perf_counter()\n"
                 "import mesodyn\n"
                 "print(repr(time.perf_counter() - start))\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: dim-2 inputs and a shrunken battery, "
                             "for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program():
    """Import mesodyn from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "mesodyn", "__init__.py")):
        sys.exit(f"perfbench: no mesodyn package under {SRC}")
    sys.path.insert(0, SRC)
    import mesodyn
    import mesodyn.cli

    if not os.path.abspath(mesodyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported mesodyn from {mesodyn.__file__}, not {SRC}")
    return mesodyn


def time_import() -> float:
    """Seconds to import mesodyn (numpy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(mesodyn, workload: str, seed: int, size: str):
    """Generate, write and validate the inputs SETUP_REPEATS times.

    Each repetition is timed together with one fresh-interpreter import.
    Returns (operations, seconds of each repetition).
    """
    from mesodyn.scenario import scenario_from_json, validate_scenario

    samples = []
    for _ in range(SETUP_REPEATS):
        seconds = time_import()
        start = time.perf_counter()
        ops = workloads.operations(workload, seed, size)
        config_dir = os.path.join(WORK, "configs")
        workloads.clear(config_dir)
        workloads.write_configs(ops, config_dir)
        for op in ops:
            if op.config is None:
                continue
            with open(op.config_path, encoding="utf-8") as handle:
                validate_scenario(scenario_from_json(json.load(handle)))
        samples.append(seconds + time.perf_counter() - start)
    return ops, samples


def run_pass(main, gate, ops, tracer=None):
    """One pass: every operation once.

    Returns (seconds, results).  Only the CLI invocations are timed, and
    the tracer is installed only around them.  Gating happens after the
    pass.
    """
    outputs = []
    seconds = 0.0
    if tracer is not None:
        tracer.reset()
    for op in ops:
        out_dir = os.path.join(WORK, "out", op.label)
        workloads.clear(out_dir)
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            code, error = workloads.invoke(main, op, out_dir)
            seconds += time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        outputs.append((op, code, error, out_dir))
    results = []
    for op, code, error, out_dir in outputs:
        results.append(gate(op, code, error, out_dir))
        workloads.clear(out_dir)
    return seconds, results


def measure(main, workload, ops, seconds, traced):
    """Closed loop of rounds for about ``seconds``; at least one round.

    Returns (untraced pass seconds, traced pass metrics, results).  A
    traced run alternates an untraced and a traced pass.
    """
    tracer = spans.Tracer() if traced else None
    gate = workloads.Gate(workload)
    walls, traced_metrics, results, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        spans.assert_untraced()
        wall, res = run_pass(main, gate, ops)
        walls.append(wall)
        results += res
        if traced:
            wall, res = run_pass(main, gate, ops, tracer)
            traced_metrics.append(tracer.pass_metrics(wall))
            results += res
        rounds.append(time.perf_counter() - round_start)
        # Start another round only if it should end within half a round of
        # the deadline, so a 12 s ensemble pass still gets three rounds in 36 s.
        if time.perf_counter() - start + 0.5 * statistics.median(rounds) > seconds:
            return walls, traced_metrics, results


def tally(results) -> tuple:
    """(attempted, failed) over every gated invocation; fail_ratio is their ratio."""
    return len(results), sum(1 for r in results if r.failed)


def blas_info() -> dict:
    info = {"version": None, "threads_pinned": BLAS_THREADS, "threads_reported": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for path in libs:
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        info["threads_reported"] = getter()
    return info


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(mesodyn, workload, seed, size, ops, results) -> dict:
    artifact_bytes = {}
    for r in results:
        artifact_bytes.setdefault(r.label, r.bytes)
    sha, varies = {}, set()
    for r in results:
        for name, digest in r.sha256.items():
            key = f"{r.label}/{name}"
            if sha.setdefault(key, digest) != digest:
                varies.add(key)
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mesodyn": mesodyn.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload, "seed": seed, "size": size,
        "baseline_seed": BASELINE_SEED, "heldout_seed": HELDOUT_SEED,
        "operations": [{"label": op.label, "dim": op.dim,
                        "fine_steps": op.fine_steps, "samples": op.samples,
                        "artifact_bytes": artifact_bytes.get(op.label)}
                       for op in ops],
        # Information only, not a gate: the first pass's digests, and the
        # artifacts whose bytes differed between passes (run.json records
        # its wall time, so it always does outside verify).
        "sha256": dict(sorted(sha.items())),
        "sha256_varies": sorted(varies),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    mesodyn = import_program()
    from mesodyn.cli import main as cli_main

    if args.size == "tiny" and args.workload == "ensemble":
        tiny_battery()
    try:
        ops, setups = setup(mesodyn, args.workload, args.seed, args.size)
        walls, traced, results = measure(cli_main, args.workload, ops,
                                         args.seconds, bool(args.trace))
    finally:
        workloads.clear(WORK)
    spans.assert_untraced()

    attempted, failed = tally(results)
    errors = [r.worst_error for r in results if r.worst_error is not None]
    worst = max(errors) if errors else None
    accuracy_ok = worst is not None and 0.0 < worst < math.inf
    wall_s = statistics.median(walls)
    if args.trace:
        metrics_raw = spans.median_metrics(traced)
        metrics_raw["trace.overhead_s"] = metrics_raw["trace.wall_s"] - wall_s
        units = dict(spans.metric_names())
    else:
        metrics_raw = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": -math.log10(worst) if accuracy_ok else 0.0,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": metrics_raw[name], "unit": unit}
               for name, unit in units.items()}

    print(json.dumps({"provenance": provenance(mesodyn, args.workload, args.seed,
                                               args.size, ops, results)},
                     sort_keys=True))
    for r in results:
        for failure in r.failures:
            print(f"FAILED {r.label}: {failure}")
    print(f"{args.workload}: {len(walls)} untraced passes, "
          f"{len(traced)} traced, {attempted} operations, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g} ratio")
    print(f"untraced pass seconds: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup seconds: {' '.join(f'{w:.4f}' for w in setups)}")
    if spans.missing_targets():
        print(f"not traced (no longer defined): {', '.join(spans.missing_targets())}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and accuracy_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def tiny_battery() -> None:
    """Shrink the verify battery for the smoke test.

    The verify verb has no size flag, so ``--size tiny`` rebinds the CLI's
    ``run_battery`` to the same function with one scenario or draw per
    check.  Never used by a measured run.
    """
    import functools

    import mesodyn.cli
    import mesodyn.verification

    mesodyn.cli.run_battery = functools.partial(
        mesodyn.verification.run_battery, scenario_count=1, draw_count=1,
        series_count=1, diagonal_count=1, constant_h_count=1)


if __name__ == "__main__":
    sys.exit(main())
