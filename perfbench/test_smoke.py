"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "42", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    printed = {line.split(" = ")[0].strip(): line.rsplit(" ", 1)[1]
               for line in done.stdout.splitlines()
               if line.startswith("  ") and " = " in line}
    assert printed == expected
    assert "fail_ratio 0 ratio" in done.stdout


def test_per_layer_list_matches_the_tracer():
    assert list(_declared("per_layer").items()) == spans.metric_names()
    assert len(spans.metric_names()) <= 128


def test_invalid_config_counts_as_failed():
    from mesodyn.cli import main

    ops = workloads.operations("propagate", 42, "tiny")
    ops[0].config["dt"] = -1.0  # BAD_TIME_GRID: the CLI exits 3
    workloads.write_configs(ops, os.path.join(run.WORK, "configs"))
    try:
        _, results = run.run_pass(main, workloads.Gate("propagate"), ops)
    finally:
        workloads.clear(run.WORK)
    assert run.tally(results) == (2, 1)
    assert results[0].failed and results[0].failures[0].startswith("exit 3")
    assert not results[1].failed


def test_tracer_rebinds_every_holder_and_restores():
    import mesodyn.cli
    import mesodyn.fixed_domain
    import mesodyn.linalg
    import mesodyn.scenario
    import mesodyn.verification
    import numpy as np

    originals = (mesodyn.fixed_domain.integrate_b_squared,
                 mesodyn.verification.evolve_direct, mesodyn.cli.run,
                 mesodyn.scenario.FieldProfile.sample, np.linalg.svd)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in ("evolve_direct", "invariant_report"):
            for module in (mesodyn.cli, mesodyn.verification):
                assert getattr(module, name).__wrapped__ is not None
        assert mesodyn.fixed_domain.integrate_b_squared is not originals[0]
        assert mesodyn.linalg.hermitian_eigendecompose.__wrapped__
        assert mesodyn.evolve_direct is mesodyn.verification.evolve_direct
        with pytest.raises(RuntimeError):
            spans.assert_untraced()
    finally:
        tracer.uninstall()
    spans.assert_untraced()
    assert originals == (mesodyn.fixed_domain.integrate_b_squared,
                         mesodyn.verification.evolve_direct, mesodyn.cli.run,
                         mesodyn.scenario.FieldProfile.sample, np.linalg.svd)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "propagate", "--seed", "42", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
