import copy
import csv
import dataclasses
import hashlib
import json
import random
import threading
import warnings

import numpy as np
import pytest

from mesodyn import cli, concurrency, errors
from mesodyn.cli import Command, main, parse_command, run
from mesodyn.errors import (
    ConvergenceWarning,
    NearSingularError,
    NonFiniteError,
    UsageError,
)
from mesodyn.fixed_domain import evolve_direct, evolve_factorized
from mesodyn.linalg import matrix_to_json
from mesodyn.reports import format_number
from mesodyn.scenario import (
    FieldProfile,
    HamiltonianProfile,
    ScenarioConfig,
    scenario_to_json,
    step_plan,
)
from mesodyn.verification import (
    random_full_rank,
    random_hermitian,
    random_orthonormal_columns,
)


def write_scenario(path, cfg, extra=None):
    doc = scenario_to_json(cfg)
    doc.update(extra or {})
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_config(energy=1.0, b=1.0, r0=1.0, phi0=0.0):
    return ScenarioConfig(
        hbar=1.0,
        hamiltonian=HamiltonianProfile.constant(np.array([[energy]], dtype=complex)),
        field=FieldProfile.constant(b),
        initial_k=np.array([[r0 * np.exp(1j * phi0)]]),
        t_end=1.0, dt=1e-3, output_stride=100)


def overflow_config():
    """A valid scenario whose direct RK4 stages overflow in the first step."""
    return ScenarioConfig(
        hbar=1e-3,
        hamiltonian=HamiltonianProfile.constant(np.diag([1e150, 2e150]).astype(complex)),
        field=FieldProfile.constant(1.0),
        initial_k=np.eye(2, dtype=complex),
        t_end=1.0, dt=0.1, output_stride=1)


def small_config(rng, dim=3):
    return ScenarioConfig(
        hbar=1.0,
        hamiltonian=HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.0)),
        field=FieldProfile.constant(0.8),
        initial_k=random_full_rank(rng, dim, 0.7, 1.4),
        t_end=1.0, dt=1e-3, output_stride=100)


class TestParseCommand:
    def test_simulate_with_solver(self):
        cmd = parse_command(["simulate", "--config", "s.json",
                             "--solver", "factorized"])
        assert cmd == Command(verb="simulate", config_path="s.json",
                              output_dir="mesodyn_out",
                              overrides={"solver": "factorized", "terms": 30})

    def test_compare_with_dt_override(self):
        cmd = parse_command(["compare", "--config", "s.json", "--dt", "1e-3"])
        assert cmd.overrides["dt"] == 0.001

    def test_missing_config_rejected(self):
        with pytest.raises(UsageError):
            parse_command(["simulate"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_command(["simulate", "--config", "s.json", "--frobnicate"])

    def test_unknown_verb_rejected(self):
        with pytest.raises(UsageError):
            parse_command(["dance"])

    def test_no_verb_rejected(self):
        with pytest.raises(UsageError):
            parse_command([])

    def test_verify_takes_seed(self):
        cmd = parse_command(["verify", "--seed", "7", "--output", "o"])
        assert cmd.verb == "verify"
        assert cmd.overrides["seed"] == 7
        assert cmd.config_path is None

    def test_verify_negative_seed_is_usage_error(self, tmp_path, capsys):
        # SeedSequence takes no negative seed; the battery draws from seed + 1
        assert main(["verify", "--seed", "-2", "--output", str(tmp_path / "v")]) == 2
        assert "argument --seed: must be >= 0, got -2" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("options", [
        ["--config", "nonexistent.json", "--dt", "5", "--hbar", "-1"],
        ["--dt", "0.1"],
        ["--t-end", "2"],
    ])
    def test_verify_rejects_scenario_options(self, tmp_path, options):
        # the battery draws its own scenarios: a scenario option is a usage error
        with pytest.raises(UsageError):
            parse_command(["verify", *options])
        assert main(["verify", "--output", str(tmp_path / "v"), *options]) == 2
        assert not (tmp_path / "v").exists()

    def test_literal_atime_flag(self):
        cmd = parse_command(["moving", "--config", "m.json", "--literal-atime"])
        assert cmd.overrides["literal_atime"] is True


# Each package error's exit code and stderr label, as main has mapped them.
ERROR_EXITS = {
    "MesodynError": (1, ""),
    "_EvolutionStop": (1, ""),
    "NonFiniteError": (1, ""),
    "NonSquareError": (1, ""),
    "ShapeMismatchError": (1, ""),
    "NearSingularError": (4, "near-singular: "),
    "OutOfDomainError": (1, ""),
    "RequiresConstantCoefficientsError": (6, "solver precondition not met: "),
    "TruncationDominatesError": (6, "solver precondition not met: "),
    "NotOrthonormalError": (1, ""),
    "RankDeficientError": (1, ""),
    "NotHermitianGaugeError": (1, ""),
    "NuDoesNotDominateError": (1, ""),
    "NotDiagonalError": (1, ""),
    "ZeroImageError": (1, ""),
    "InsufficientSamplesError": (1, ""),
    "ConfigInvalidError": (3, "invalid config: "),
    "UsageError": (2, ""),
}


class TestExitCodes:
    def raising(self, monkeypatch, exc):
        def run(cmd):
            raise exc

        monkeypatch.setattr(cli, "run", run)

    def test_every_error_class_keeps_its_code(self, monkeypatch, capsys):
        classes = {name: value for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, errors.MesodynError)}
        assert sorted(classes) == sorted(ERROR_EXITS)
        for name, error in classes.items():
            self.raising(monkeypatch, error("went wrong"))
            code, label = ERROR_EXITS[name]
            assert main(["verify"]) == code, name
            assert capsys.readouterr().err == f"mesodyn: {label}went wrong\n", name

    def test_os_error_is_exit_5(self, monkeypatch, capsys):
        self.raising(monkeypatch, PermissionError("no access"))
        assert main(["verify"]) == 5
        assert capsys.readouterr().err == "mesodyn: i/o error: no access\n"

    @pytest.mark.parametrize("error, code, label", [
        (NearSingularError, 4, "near-singular: "), (NonFiniteError, 1, "")])
    def test_last_good_time_only_when_carried(self, monkeypatch, capsys, error, code, label):
        self.raising(monkeypatch, error("stopped", last_good_time=0.25))
        assert main(["verify"]) == code
        assert capsys.readouterr().err == f"mesodyn: {label}stopped (last good time 0.25)\n"
        self.raising(monkeypatch, error("stopped"))
        assert main(["verify"]) == code
        assert capsys.readouterr().err == f"mesodyn: {label}stopped\n"

    def test_usage_error_of_the_parser(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("mesodyn: a verb is required")


class TestSimulate:
    def test_scalar_phase_column(self, tmp_path):
        # r0 = E = B = hbar = 1: angle of k_00 equals 2 t
        config = write_scenario(tmp_path / "s.json", scalar_config())
        out = tmp_path / "out"
        manifest = run(Command("simulate", config, str(out),
                               {"solver": "factorized"}))
        assert manifest.status["evolution_complete"] == "pass"
        lines = (out / "trajectory_factorized.csv").read_text().splitlines()
        header = lines[0].split(",")
        i_t = header.index("t")
        i_re = header.index("k_re_0_0")
        i_im = header.index("k_im_0_0")
        for line in lines[1:]:
            cells = line.split(",")
            t = float(cells[i_t])
            phase = np.angle(float(cells[i_re]) + 1j * float(cells[i_im]))
            assert abs(phase - 2.0 * t) <= 1e-8
        assert manifest.ok()
        assert "error" not in json.loads((out / "run.json").read_text())

    def test_byte_identical_reruns(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(Command("simulate", config, str(out_a), {"solver": "direct"}))
        run(Command("simulate", config, str(out_b), {"solver": "direct"}))
        for name in ("trajectory_direct.csv", "diagnostics_direct.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_overrides_apply_after_file_load(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng))
        out = tmp_path / "out"
        run(Command("simulate", config, str(out),
                    {"solver": "factorized", "t_end": 0.5, "dt": 5e-3}))
        lines = (out / "trajectory_factorized.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == 0.5

    def test_near_singular_exit_code_and_partial_output(self, tmp_path):
        # passes validation (ratio 0.3 > floor 0.29) but the violent stage
        # rotation at dt = 0.5 stretches the top singular value immediately
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(np.diag([50.0, 1.0]).astype(complex)),
            field=FieldProfile.constant(0.0),
            initial_k=np.diag([1.0, 0.3]).astype(complex),
            t_end=2.0, dt=0.5, output_stride=1, pd_floor=0.29)
        config = write_scenario(tmp_path / "s.json", cfg)
        out = tmp_path / "out"
        code = main(["simulate", "--config", config, "--output", str(out),
                     "--solver", "direct"])
        assert code == 4
        assert (out / "run.json").exists()
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["status"]["evolution_complete"] == "fail"
        assert "trajectory_direct.csv" in manifest["outputs"]
        assert manifest["error"]["type"] == "NearSingularError"
        assert manifest["error"]["last_good_time"] == 0.0

    def test_failed_run_leaves_manifest_with_error(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng, dim=2))
        out = tmp_path / "out"
        code = main(["simulate", "--config", config, "--output", str(out),
                     "--solver", "series", "--terms", "3"])
        assert code == 6
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "TruncationDominatesError"
        assert "increase terms" in manifest["error"]["message"]
        assert "last_good_time" not in manifest["error"]
        assert manifest["outputs"] == []

    def test_series_needs_constant_coefficients(self, rng, tmp_path):
        cfg = dataclasses.replace(small_config(rng, dim=2),
                                  field=FieldProfile.sinusoid(0.4, 0.3, 0.1, 0.7))
        config = write_scenario(tmp_path / "s.json", cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--output", str(out),
                     "--solver", "series"]) == 6
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "RequiresConstantCoefficientsError"

    @pytest.mark.parametrize("terms", [0, cli.MAX_TERMS + 1])
    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    def test_terms_below_one_is_usage_error(self, verb, terms, tmp_path):
        out = tmp_path / "out"
        assert main([verb, "--config", "s.json", "--terms", str(terms),
                     "--output", str(out)]) == 2
        assert not out.exists()

    def test_env_floor_overrides_config(self, tmp_path):
        # singular-value ratio 0.4 sits below the scenario's own floor 0.5
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(np.eye(2, dtype=complex)),
            field=FieldProfile.constant(1.0),
            initial_k=np.diag([1.0, 0.4]).astype(complex),
            t_end=1.0, dt=1e-2, output_stride=1, pd_floor=0.5)
        config = write_scenario(tmp_path / "s.json", cfg)
        assert main(["simulate", "--config", config,
                     "--output", str(tmp_path / "out")]) == 3

    def test_exit_codes_for_bad_inputs(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert_config_rejected(["simulate", "--config", str(bad_json)], tmp_path / "o1")
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"hbar": "\xe9"}')
        assert_config_rejected(["simulate", "--config", str(not_utf8)], tmp_path / "o3")
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing,
                     "--output", str(tmp_path / "o2")]) == 5
        manifest = json.loads((tmp_path / "o2" / "run.json").read_text())
        assert manifest["scenario_digest"] == ""
        assert manifest["error"]["type"] == "FileNotFoundError"
        assert "nope.json" in manifest["error"]["message"]
        assert manifest["outputs"] == []
        assert main(["simulate"]) == 2

    def test_invalid_scenario_exit_code(self, tmp_path):
        cfg = scalar_config()
        doc = scenario_to_json(cfg)
        doc["dt"] = 5.0  # dt > t_end
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path),
                     "--output", str(tmp_path / "o")]) == 3

    def test_step_ceiling_rejected_before_allocation(self, tmp_path, capsys):
        config = write_scenario(tmp_path / "s.json", scalar_config())
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--dt", "1e-300",
                     "--output", str(out)]) == 3
        assert "TOO_MANY_STEPS" in capsys.readouterr().err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "ConfigInvalidError"
        assert "TOO_MANY_STEPS" in manifest["error"]["message"]
        assert manifest["outputs"] == []

    def test_sample_ceiling_rejected_before_allocation(self, tmp_path, capsys):
        # 10^6 output samples, well inside the step ceiling, would hold
        # about 1.4 GB of samples before a file is written
        cfg = dataclasses.replace(scalar_config(), output_stride=1)
        config = write_scenario(tmp_path / "s.json", cfg)
        out = tmp_path / "o"
        assert main(["simulate", "--config", config, "--t-end", "1000",
                     "--output", str(out)]) == 3
        assert "TOO_MANY_SAMPLES" in capsys.readouterr().err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "ConfigInvalidError"
        assert "TOO_MANY_SAMPLES" in manifest["error"]["message"]
        assert manifest["outputs"] == []

    def test_overflowing_direct_run_is_typed_error(self, tmp_path, capsys):
        # the non-finite state must not reach LAPACK's SVD, which fails (or
        # never returns) on it
        config = write_scenario(tmp_path / "s.json", overflow_config())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning escapes
            code = main(["simulate", "--config", config, "--output", str(out),
                         "--solver", "direct"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "NonFiniteError"
        assert "inside step [0.0, 0.1]" in manifest["error"]["message"]
        assert manifest["error"]["last_good_time"] == 0.0
        assert manifest["status"]["evolution_complete"] == "fail"
        rows = (out / "trajectory_direct.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.0"]
        assert "diagnostics_direct.csv" in manifest["outputs"]

    @pytest.mark.parametrize("t_end", [1.0, 0.6])
    def test_overflow_after_finite_samples_keeps_the_solvers_error(self, tmp_path, capsys,
                                                                   t_end):
        # H = 1e14 diag(1, 2): the state at 0.5 is finite and the step
        # [0.5, 0.6] overflows it, also when it is the last step.  The sample
        # at 0.4 is finite, but its K K* overflows, so the partial CSVs hold
        # the samples at 0.0 and 0.2.
        cfg = dataclasses.replace(
            overflow_config(), hbar=1.0, output_stride=2, t_end=t_end,
            hamiltonian=HamiltonianProfile.constant(np.diag([1e14, 2e14]).astype(complex)))
        config = write_scenario(tmp_path / "s.json", cfg)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning escapes
            code = main(["simulate", "--config", config, "--output", str(out),
                         "--solver", "direct"])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "NonFiniteError"
        assert "inside step [0.5, 0.6" in manifest["error"]["message"]
        assert manifest["error"]["last_good_time"] == 0.5
        assert manifest["status"]["evolution_complete"] == "fail"
        assert manifest["outputs"] == ["trajectory_direct.csv", "diagnostics_direct.csv"]
        rows = (out / "trajectory_direct.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.0", "0.2"]


class TestCompare:
    def test_three_way_agreement(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng))
        out = tmp_path / "out"
        code = main(["compare", "--config", config, "--output", str(out)])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "pair,max_distance,tolerance,status"
        pairs = {line.split(",")[0] for line in lines[1:]}
        assert pairs == {"direct_vs_factorized", "direct_vs_series",
                         "factorized_vs_series"}
        assert all(line.split(",")[-1] == "pass" for line in lines[1:])
        assert all(float(line.split(",")[1]) <= 1e-6 for line in lines[1:])

    def test_stopped_direct_run_keeps_partial_trajectory(self, tmp_path, capsys):
        config = write_scenario(tmp_path / "s.json", overflow_config())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--config", config, "--output", str(out)])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "NonFiniteError"
        assert manifest["error"]["last_good_time"] == 0.0
        assert manifest["status"]["evolution_complete"] == "fail"
        assert manifest["outputs"] == ["trajectory_direct.csv", "diagnostics_direct.csv"]
        rows = (out / "trajectory_direct.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.0"]


def time_dependent_config(rng, dim, t_end=0.01):
    """A scenario with a time-dependent H and B, for both compare routes."""
    h0 = random_hermitian(rng, dim, 0.5, 2.5)
    return ScenarioConfig(
        hbar=1.0,
        hamiltonian=HamiltonianProfile.interpolated(
            [0.0, 1.0], [h0, h0 + random_hermitian(rng, dim, -0.4, 0.4)]),
        field=FieldProfile.sinusoid(0.4, 0.25, 0.1, 0.7),
        initial_k=random_full_rank(rng, dim, 0.7, 1.5),
        t_end=t_end, dt=1e-3, output_stride=5)


def main_joining_threads(argv) -> int:
    """``main(argv)``, asserting that it leaves no thread of its own running."""
    before = threading.active_count()
    code = main(argv)
    assert threading.active_count() == before
    return code


class TestCompareOverlap:
    """compare's factorized route on a worker thread beside the direct one."""

    @pytest.fixture
    def overlap(self, monkeypatch):
        def force(on: bool):
            monkeypatch.setattr(cli, "overlap_routes", lambda dim: on)
        return force

    def test_overlapped_equals_sequential(self, rng, tmp_path, overlap, monkeypatch):
        config = write_scenario(tmp_path / "s.json",
                                time_dependent_config(rng, cli.OVERLAP_MIN_DIM))
        on_main = []

        def factorized(cfg):
            on_main.append(threading.current_thread() is threading.main_thread())
            return evolve_factorized(cfg)

        monkeypatch.setattr(cli, "evolve_factorized", factorized)
        files = {}
        for on in (True, False):
            overlap(on)
            out = tmp_path / f"out_{on}"
            assert main_joining_threads(["compare", "--config", config,
                                         "--output", str(out)]) == 0
            manifest = json.loads((out / "run.json").read_text())
            manifest["wall_time"] = 0.0
            files[on] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
            files[on]["run.json"] = manifest
        assert on_main == [False, True]
        assert sorted(files[True]) == ["comparison.csv", "diagnostics_direct.csv",
                                       "diagnostics_factorized.csv", "run.json",
                                       "trajectory_direct.csv",
                                       "trajectory_factorized.csv"]
        for name in files[True]:
            assert files[True][name] == files[False][name], name

    def test_direct_error_wins(self, rng, tmp_path, overlap, monkeypatch):
        config = write_scenario(tmp_path / "s.json", time_dependent_config(rng, 3))
        direct_raised = threading.Event()
        factorized_ran = []

        def direct(cfg):
            partial = evolve_direct(cfg)
            direct_raised.set()
            raise NearSingularError("direct lost rank", last_good_time=partial.times[-1],
                                    partial=partial)

        def factorized(cfg):
            assert direct_raised.wait(timeout=30)
            factorized_ran.append(True)
            raise NonFiniteError("factorized overflowed")

        monkeypatch.setattr(cli, "evolve_direct", direct)
        monkeypatch.setattr(cli, "evolve_factorized", factorized)
        overlap(True)
        out = tmp_path / "out"
        assert main_joining_threads(["compare", "--config", config,
                                     "--output", str(out)]) == 4
        assert factorized_ran == [True]
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "NearSingularError"
        assert manifest["error"]["message"] == "direct lost rank"
        assert manifest["outputs"] == ["trajectory_direct.csv", "diagnostics_direct.csv"]
        assert sorted(p.name for p in out.iterdir()) == [
            "diagnostics_direct.csv", "run.json", "trajectory_direct.csv"]

    @pytest.mark.parametrize("on", [True, False])
    def test_factorized_error_after_clean_direct_run(self, rng, tmp_path, overlap,
                                                     monkeypatch, on):
        config = write_scenario(tmp_path / "s.json", time_dependent_config(rng, 3))

        def factorized(cfg):
            raise NearSingularError("factorized lost rank", last_good_time=0.0)

        monkeypatch.setattr(cli, "evolve_factorized", factorized)
        overlap(on)
        out = tmp_path / "out"
        assert main_joining_threads(["compare", "--config", config,
                                     "--output", str(out)]) == 4
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"] == {"type": "NearSingularError",
                                     "message": "factorized lost rank",
                                     "last_good_time": 0.0}
        assert manifest["outputs"] == []
        assert manifest["status"] == {}

    def test_worker_warning_is_recorded(self, rng, tmp_path, overlap, monkeypatch):
        config = write_scenario(tmp_path / "s.json", time_dependent_config(rng, 3))

        def factorized(cfg):
            warnings.warn("from the worker", ConvergenceWarning)
            return evolve_factorized(cfg)

        monkeypatch.setattr(cli, "evolve_factorized", factorized)
        overlap(True)
        out = tmp_path / "out"
        with pytest.warns(ConvergenceWarning, match="from the worker"):
            assert main_joining_threads(["compare", "--config", config,
                                         "--output", str(out)]) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["warnings"] == [{"category": "ConvergenceWarning",
                                         "message": "from the worker"}]

    def test_predicate(self, monkeypatch):
        monkeypatch.setattr(concurrency, "_usable_cpus", lambda: 2)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        dim = cli.OVERLAP_MIN_DIM
        assert cli.overlap_routes(dim)
        assert not cli.overlap_routes(dim - 1)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
        assert not cli.overlap_routes(dim)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert cli.overlap_routes(dim)
        monkeypatch.setattr(concurrency, "_usable_cpus", lambda: 1)
        assert not cli.overlap_routes(dim)
        monkeypatch.setattr(concurrency, "_usable_cpus", lambda: 2)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.delenv("OMP_NUM_THREADS")
        assert not cli.overlap_routes(dim)  # an unpinned pool


class TestWarningsInManifest:
    def test_series_overflow_records_its_convergence_warning(self, tmp_path):
        cfg = ScenarioConfig(
            hbar=0.0018165821532520128,
            hamiltonian=HamiltonianProfile.constant(np.array([[0.35689222]], dtype=complex)),
            field=FieldProfile.constant(1.0036723106227856),
            initial_k=np.array([[0.00085388 + 0.00068901j]]),
            t_end=0.2, dt=0.01, output_stride=5)
        config = write_scenario(tmp_path / "s.json", cfg)
        argv = ["simulate", "--solver", "series", "--config", config]
        with pytest.warns(ConvergenceWarning):
            assert main(argv + ["--output", str(tmp_path / "a")]) == 6
        manifest = json.loads((tmp_path / "a" / "run.json").read_text())
        assert manifest["error"]["type"] == "TruncationDominatesError"
        [warning] = manifest["warnings"]
        assert warning["category"] == "ConvergenceWarning"
        assert warning["message"].startswith("series argument norm ")
        # a warning the filters ignore is neither shown nor recorded
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv + ["--output", str(tmp_path / "b")]) == 6
        assert "warnings" not in json.loads((tmp_path / "b" / "run.json").read_text())

    def test_off_grid_knot_is_stepped_to_and_lists_nothing(self, tmp_path):
        # the README's 3x3 example: knots at 0, 0.3337 and 1 on a dt = 0.01
        # grid; the plan steps to 0.3337, so the routes agree and compare passes
        rng = np.random.default_rng(3)
        matrices = [random_hermitian(rng, 3, 0.5, 2.0) for _ in range(3)]
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.interpolated([0.0, 0.3337, 1.0], matrices),
            field=FieldProfile.constant(0.8),
            initial_k=random_full_rank(rng, 3, 0.7, 1.4),
            t_end=1.0, dt=1e-2, output_stride=10)
        config = write_scenario(tmp_path / "offgrid.json", cfg)
        out = tmp_path / "compare"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--config", config, "--output", str(out)]) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert "warnings" not in manifest
        assert set(manifest["status"].values()) == {"pass"}
        # the outputs stay on the uniform grid: t = 0, 0.1, ..., 1
        with open(out / "trajectory_factorized.csv", newline="") as handle:
            times = [float(row["t"]) for row in csv.DictReader(handle)]
        assert times == step_plan(1.0, 1e-2, 10).output_times.tolist()

    def test_verify_manifest_has_no_warnings_key(self, verify_seed_42):
        code, out = verify_seed_42
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        assert sorted(manifest) == ["outputs", "scenario_digest", "status",
                                    "tool_version", "wall_time"]


class TestCritical:
    def test_emits_point_and_residual(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng),
                                extra={"nu": 4.0})
        out = tmp_path / "out"
        assert main(["critical", "--config", config, "--output", str(out)]) == 0
        payload = json.loads((out / "critical_point.json").read_text())
        assert payload["nu"] == 4.0
        assert payload["relative_residual"] <= 1e-11
        assert payload["k"]["rows"] == 3

    @pytest.mark.parametrize("field", [
        {"kind": "constant", "value": 0.0},
        {"kind": "sinusoid", "amplitude": 0.4, "frequency": 0.25, "phase": 0.0, "offset": 0.0},
    ], ids=["constant_zero", "sinusoid_through_zero"])
    def test_zero_field_at_start_is_invalid_config(self, field, rng, tmp_path, capsys):
        # B(0) = 0 makes K_nu the zero matrix: rejected before it is formed
        config = write_scenario(tmp_path / "s.json", small_config(rng),
                                extra={"nu": 4.0, "field": field})
        out = tmp_path / "out"
        assert main(["critical", "--config", config, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "B(0) = 0.0" in err and "last good time" not in err
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["error"]["type"] == "ConfigInvalidError"
        assert "nonzero field" in manifest["error"]["message"]
        assert manifest["outputs"] == []


class TestMoving:
    def test_report_and_status(self, rng, tmp_path):
        dim, n = 5, 2
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.0)),
            field=FieldProfile.sinusoid(0.4, 0.3, 0.1, 0.7),
            initial_k=np.eye(dim, dtype=complex),
            t_end=1.0, dt=1e-3, output_stride=100)
        extra = {
            "ambient_dim": dim,
            "rank": n,
            "psi0": matrix_to_json(random_orthonormal_columns(rng, dim, n)),
            "phi0": matrix_to_json(random_orthonormal_columns(rng, 4, n)),
            "coeff_a0": matrix_to_json(random_full_rank(rng, n, 0.7, 1.4)),
        }
        config = write_scenario(tmp_path / "m.json", cfg, extra=extra)
        out = tmp_path / "out"
        assert main(["moving", "--config", config, "--output", str(out)]) == 0
        lines = (out / "moving_report.csv").read_text().splitlines()
        assert lines[0] == "t,weak_residual,image_drift,radial_drift"
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["status"]["image_fixed"] == "pass"
        assert manifest["status"]["radial_conserved"] == "pass"

    def test_runs_without_initial_k(self, rng, tmp_path):
        dim, n = 4, 2
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.0)),
            field=FieldProfile.constant(0.8), initial_k=None,
            t_end=0.5, dt=1e-2, output_stride=10)
        extra = {
            "ambient_dim": dim,
            "rank": n,
            "psi0": matrix_to_json(random_orthonormal_columns(rng, dim, n)),
            "phi0": matrix_to_json(random_orthonormal_columns(rng, 3, n)),
            "coeff_a0": matrix_to_json(random_full_rank(rng, n, 0.7, 1.4)),
        }
        config = write_scenario(tmp_path / "m.json", cfg, extra=extra)
        assert "initial_k" not in json.loads((tmp_path / "m.json").read_text())
        out = tmp_path / "out"
        assert main(["moving", "--config", config, "--output", str(out)]) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["scenario_digest"] == cfg.digest()
        assert manifest["outputs"] == ["moving_report.csv"]
        # every other verb still needs initial_k
        for verb in ("simulate", "compare", "critical", "flux"):
            assert_config_rejected([verb, "--config", config], tmp_path / verb)

    def test_missing_moving_keys_rejected(self, rng, tmp_path):
        config = write_scenario(tmp_path / "m.json", small_config(rng))
        assert main(["moving", "--config", config,
                     "--output", str(tmp_path / "out")]) == 3


class TestFlux:
    def test_distribution_sums_to_total(self, rng, tmp_path):
        cfg = small_config(rng)
        extra = {
            "upsilon": matrix_to_json(np.ones((3, 1), dtype=complex) / np.sqrt(3)),
            "total_flux": 2.5,
        }
        config = write_scenario(tmp_path / "f.json", cfg, extra=extra)
        out = tmp_path / "out"
        assert main(["flux", "--config", config, "--output", str(out)]) == 0
        lines = (out / "flux.csv").read_text().splitlines()
        assert lines[0] == "t,flux_0,flux_1,flux_2"
        for line in lines[1:]:
            values = [float(x) for x in line.split(",")[1:]]
            assert all(v >= 0.0 for v in values)
            assert abs(sum(values) - 2.5) <= 1e-11


def malformed(m, **fields):
    """The JSON literal of m with some fields replaced."""
    return {**matrix_to_json(m), **fields}


def assert_config_rejected(argv, out):
    assert main(argv + ["--output", str(out)]) == 3
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["error"]["type"] == "ConfigInvalidError"


class TestHostileInputs:
    def flux_config(self, rng, tmp_path, upsilon, total_flux):
        extra = {"upsilon": matrix_to_json(upsilon), "total_flux": total_flux}
        return write_scenario(tmp_path / "f.json", small_config(rng), extra=extra)

    @pytest.mark.parametrize("upsilon", [
        malformed(np.ones((3, 1)), rows=None),
        malformed(np.ones((3, 1)), re={}),
        malformed(np.ones((3, 1)), re=[float("nan"), 1.0, 1.0]),
    ], ids=["rows_null", "re_object", "re_nan"])
    def test_flux_malformed_upsilon(self, upsilon, rng, tmp_path):
        config = write_scenario(tmp_path / "f.json", small_config(rng),
                                extra={"upsilon": upsilon, "total_flux": 1.0})
        assert_config_rejected(["flux", "--config", config], tmp_path / "out")

    def test_flux_upsilon_of_wrong_length(self, rng, tmp_path):
        config = self.flux_config(rng, tmp_path, np.ones((2, 1)), 1.0)
        assert_config_rejected(["flux", "--config", config], tmp_path / "out")

    def test_flux_zero_upsilon(self, rng, tmp_path):
        config = self.flux_config(rng, tmp_path, np.zeros((3, 1)), 1.0)
        assert_config_rejected(["flux", "--config", config], tmp_path / "out")

    def test_flux_non_numeric_total(self, rng, tmp_path):
        config = self.flux_config(rng, tmp_path, np.ones((3, 1)), "lots")
        assert_config_rejected(["flux", "--config", config], tmp_path / "out")

    def test_flux_oversized_total(self, rng, tmp_path):
        config = self.flux_config(rng, tmp_path, np.ones((3, 1)), 10 ** 400)
        assert_config_rejected(["flux", "--config", config], tmp_path / "out")

    def test_critical_non_numeric_nu(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng),
                                extra={"nu": "big"})
        assert_config_rejected(["critical", "--config", config], tmp_path / "out")

    @pytest.mark.parametrize("extra", [
        {"nu": 0.0},
        {"unitary": matrix_to_json(2.0 * np.eye(3))},
        {"unitary": matrix_to_json(np.eye(2))},
        {"unitary": malformed(np.eye(3), rows=None)},
        {"unitary": malformed(np.eye(3), re={})},
        {"unitary": malformed(np.eye(3), im=[float("inf")] + [0.0] * 8)},
        {"hamiltonian": 3},
        {"field": None},
        # a JSON integer too large for a double, and an infinite stride
        {"hbar": 10 ** 400},
        {"t_end": 10 ** 400},
        {"pd_floor": 10 ** 400},
        {"nu": 10 ** 400},
        {"field": {"kind": "constant", "value": 10 ** 400}},
        {"field": {"kind": "sinusoid", "amplitude": 0.1, "frequency": 10 ** 400}},
        {"hamiltonian": {"kind": "interpolated-sequence", "times": [0.0, 10 ** 400],
                         "matrices": [matrix_to_json(np.eye(3))] * 2}},
        {"unitary": malformed(np.eye(3), re=[10 ** 400] + [0.0] * 8)},
        {"initial_k": malformed(np.eye(3), im=[0.0] * 8 + [-10 ** 400])},
        {"output_stride": float("inf")},
        {"output_stride": float("-inf")},
    ], ids=["nu_below_spectrum", "non_unitary", "unitary_of_wrong_size",
            "unitary_rows_null", "unitary_re_object", "unitary_im_inf",
            "hamiltonian_not_object", "field_null", "hbar_oversized_int",
            "t_end_oversized_int", "pd_floor_oversized_int", "nu_oversized_int",
            "field_value_oversized_int", "field_frequency_oversized_int",
            "knot_time_oversized_int", "unitary_entry_oversized_int",
            "initial_k_entry_oversized_int", "output_stride_inf",
            "output_stride_minus_inf"])
    def test_critical_rejected_input(self, extra, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng), extra=extra)
        assert_config_rejected(["critical", "--config", config], tmp_path / "out")

    @pytest.mark.parametrize("verb, extra", [
        ("simulate", {"output_stride": 2.5}),
        ("simulate", {"output_stride": "3"}),
        ("simulate", {"output_stride": True}),
        ("simulate", {"dt": "0.01"}),
        ("simulate", {"hbar": True}),
        ("simulate", {"t_end": "1.0"}),
        ("simulate", {"pd_floor": "1e-12"}),
        ("simulate", {"field": {"kind": "constant", "value": "0.8"}}),
        ("simulate", {"field": {"kind": "sinusoid", "amplitude": 0.1, "frequency": 0.2,
                                "phase": True}}),
        ("simulate", {"field": {"kind": "linear-ramp", "slope": "1", "intercept": 0.5}}),
        ("simulate", {"field": {"kind": "sampled-table", "times": [0.0, "1.0"],
                                "values": [0.5, 0.6]}}),
        ("simulate", {"field": {"kind": "sampled-table", "times": [0.0, 1.0],
                                "values": [True, 0.6]}}),
        ("simulate", {"field": {"kind": "sampled-table", "times": "01",
                                "values": [0.5, 0.6]}}),
        ("simulate", {"hamiltonian": {"kind": "interpolated-sequence",
                                      "times": ["0", 1.0],
                                      "matrices": [matrix_to_json(np.eye(3))] * 2}}),
        ("critical", {"nu": "4.0"}),
        ("critical", {"nu": True}),
        ("flux", {"upsilon": matrix_to_json(np.ones((3, 1))), "total_flux": "2.5"}),
        ("flux", {"upsilon": matrix_to_json(np.ones((3, 1))), "total_flux": True}),
    ], ids=["stride_fraction", "stride_string", "stride_bool", "dt_string", "hbar_bool",
            "t_end_string", "pd_floor_string", "field_value_string", "field_phase_bool",
            "field_slope_string", "table_time_string", "table_value_bool",
            "table_times_string", "knot_time_string", "nu_string", "nu_bool",
            "total_flux_string", "total_flux_bool"])
    def test_numbers_must_be_json_numbers(self, verb, extra, rng, tmp_path, capsys):
        config = write_scenario(tmp_path / "s.json", small_config(rng), extra=extra)
        assert_config_rejected([verb, "--config", config], tmp_path / "out")
        err = capsys.readouterr().err
        assert err.startswith("mesodyn: invalid config:") and "Traceback" not in err

    @pytest.mark.parametrize("verb, literal", [
        ("simulate", ("hamiltonian", "matrix")), ("simulate", ("initial_k",)),
        ("moving", ("psi0",)), ("moving", ("phi0",)), ("moving", ("coeff_a0",)),
        ("critical", ("unitary",)), ("flux", ("upsilon",)),
    ], ids=["H", "K0", "psi0", "phi0", "coeff_a0", "unitary", "upsilon"])
    @pytest.mark.parametrize("part, entry", [
        ("re", "1.0"), ("re", True), ("im", "0.0"), ("im", False),
    ], ids=["re_string", "re_bool", "im_string", "im_bool"])
    def test_matrix_entries_must_be_json_numbers(self, verb, literal, part, entry,
                                                 tmp_path, capsys):
        doc = fuzz_documents()[0]
        matrix = doc
        for key in literal:
            matrix = matrix[key]
        matrix[part][0] = entry
        config = tmp_path / "s.json"
        config.write_text(json.dumps(doc))
        assert_config_rejected([verb, "--config", str(config)], tmp_path / "out")
        err = capsys.readouterr().err
        assert err.startswith("mesodyn: invalid config:") and "Traceback" not in err
        assert "lists of JSON numbers" in err

    def test_integral_float_stride_is_an_integer(self, rng, tmp_path):
        config = write_scenario(tmp_path / "s.json", small_config(rng),
                                extra={"output_stride": 250.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", config, "--solver", "factorized",
                     "--output", str(out)]) == 0
        lines = (out / "trajectory_factorized.csv").read_text().splitlines()
        assert len(lines) == 1 + 5  # t = 0, 0.25, 0.5, 0.75, 1

    @pytest.mark.parametrize("literal", ["initial_k", "hamiltonian"])
    def test_non_finite_scenario_literal(self, literal, rng, tmp_path):
        doc = scenario_to_json(small_config(rng))
        matrix = doc["hamiltonian"]["matrix"] if literal == "hamiltonian" else doc[literal]
        matrix["re"][0] = float("nan")
        config = tmp_path / "s.json"
        config.write_text(json.dumps(doc))
        assert_config_rejected(["simulate", "--config", str(config)], tmp_path / "out")

    def test_rejected_scenario_digest_is_of_raw_config(self, rng, tmp_path):
        doc = scenario_to_json(small_config(rng))
        doc["dt"] = -1.0
        config = tmp_path / "s.json"
        config.write_text(json.dumps(doc))
        assert_config_rejected(["simulate", "--config", str(config)], tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "run.json").read_text())
        assert manifest["scenario_digest"] == hashlib.sha256(config.read_bytes()).hexdigest()
        assert manifest["outputs"] == []

    def moving_config(self, rng, tmp_path, phi0_cols, a0, changes=None):
        dim, n = 4, 2
        cfg = ScenarioConfig(
            hbar=1.0,
            hamiltonian=HamiltonianProfile.constant(random_hermitian(rng, dim, 0.5, 2.0)),
            field=FieldProfile.constant(0.8),
            initial_k=np.eye(dim, dtype=complex),
            t_end=1.0, dt=1e-3, output_stride=100)
        extra = {
            "ambient_dim": dim,
            "rank": n,
            "psi0": matrix_to_json(random_orthonormal_columns(rng, dim, n)),
            "phi0": matrix_to_json(random_orthonormal_columns(rng, 3, phi0_cols)),
            "coeff_a0": matrix_to_json(a0),
            **(changes or {}),
        }
        return write_scenario(tmp_path / "m.json", cfg, extra=extra)

    @pytest.mark.parametrize("phi0_cols, a0_dim, changes", [
        (2, 3, None),
        (1, 2, None),
        (2, 2, {"rank": None}),
        (2, 2, {"ambient_dim": [4]}),
        (2, 2, {"psi0": malformed(np.eye(4)[:, :2], rows=None)}),
        (2, 2, {"psi0": malformed(np.eye(4)[:, :2], re={})}),
        (2, 2, {"rank": 3}),
        (2, 2, {"ambient_dim": 5}),
    ], ids=["coeff_a0_not_rank_square", "phi0_columns_not_rank", "rank_null",
            "ambient_dim_list", "psi0_rows_null", "psi0_re_object",
            "rank_not_psi0_columns", "ambient_dim_not_hamiltonian_dim"])
    def test_moving_shape_mismatch(self, phi0_cols, a0_dim, changes, rng, tmp_path, capsys):
        a0 = random_full_rank(rng, a0_dim, 0.7, 1.4)
        config = self.moving_config(rng, tmp_path, phi0_cols, a0, changes)
        assert_config_rejected(["moving", "--config", config], tmp_path / "out")
        assert "Traceback" not in capsys.readouterr().err

    def test_moving_singular_coeff_a0(self, rng, tmp_path):
        config = self.moving_config(rng, tmp_path, 2, np.diag([1.0, 0.0]))
        assert_config_rejected(["moving", "--config", config], tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "run.json").read_text())
        assert "crosses the floor" in manifest["error"]["message"]


class TestFormatting:
    def test_shortest_round_trip(self):
        for x in (0.1, 1e-12, np.pi, 2.0 / 3.0, 1234.5678):
            assert float(format_number(x)) == x
        assert format_number(1.0) == "1.0"


# Values a mutation puts at one JSON path of a valid document.
FUZZ_VALUES = (None, "text", 0, -1, 1e300, -1e300, 2 ** 70, 10 ** 400,
               float("inf"), float("-inf"), float("nan"), [], {})
FUZZ_COMMANDS = (["simulate", "--solver", "direct"],
                 ["simulate", "--solver", "factorized"],
                 ["simulate", "--solver", "series"],
                 ["compare"], ["critical"], ["moving"], ["flux"])
EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}  # the module docstring of mesodyn.cli


def fuzz_documents():
    """Valid 2x2 documents that every config verb accepts.

    One has constant coefficients (the series solver's domain), one an
    interpolated H and a sinusoidal B.  Both carry the extra keys of
    critical, moving and flux.
    """
    h0 = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
    h1 = np.array([[1.5, 0.2j], [-0.2j, 2.5]])
    k0 = np.array([[1.0, 0.2 + 0.1j], [0.0, 0.8]])
    extra = {
        "nu": 4.0,
        "unitary": matrix_to_json(np.eye(2)),
        "upsilon": matrix_to_json(np.ones((2, 1)) / np.sqrt(2.0)),
        "total_flux": 1.5,
        "ambient_dim": 2,
        "rank": 1,
        "psi0": matrix_to_json(np.eye(2)[:, :1]),
        "phi0": matrix_to_json(np.eye(2)[:, 1:]),
        "coeff_a0": matrix_to_json(np.array([[0.9 + 0.3j]])),
    }
    profiles = [
        (HamiltonianProfile.constant(h0), FieldProfile.constant(0.7)),
        (HamiltonianProfile.interpolated([0.0, 0.2], [h0, h1]),
         FieldProfile.sinusoid(0.4, 0.25, 0.1, 0.7)),
    ]
    docs = []
    for hamiltonian, field in profiles:
        cfg = ScenarioConfig(hbar=1.0, hamiltonian=hamiltonian, field=field,
                             initial_k=k0, t_end=0.2, dt=0.01, output_stride=5)
        docs.append({**scenario_to_json(cfg), **extra})
    return docs


def json_paths(node, prefix=()):
    """Every key path into a parsed JSON document, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


class TestConfigFuzzer:
    def test_seeded_mutations_exit_with_a_documented_code(self, tmp_path):
        draw = random.Random(11)
        docs = fuzz_documents()
        escaped = []
        for i in range(200):
            doc = copy.deepcopy(draw.choice(docs))
            path = draw.choice(list(json_paths(doc)))
            value = draw.choice(FUZZ_VALUES)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
            config = tmp_path / f"c{i}.json"
            config.write_text(json.dumps(doc))
            argv = draw.choice(FUZZ_COMMANDS) + ["--config", str(config)]
            out = tmp_path / f"o{i}"
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main(argv + ["--output", str(out)])
            except Exception as exc:  # noqa: BLE001 - an escape is the finding
                escaped.append((i, argv[0], path, value, repr(exc)))
                continue
            if code not in EXIT_CODES or not (out / "run.json").is_file():
                escaped.append((i, argv[0], path, value, code))
        assert not escaped, escaped
