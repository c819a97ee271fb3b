import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from mesodyn import concurrency, fixed_domain, verification
from mesodyn.cli import main
from mesodyn.errors import NearSingularError, NonFiniteError
from mesodyn.verification import (
    check_conservation_and_agreement,
    check_constant_h_invariant,
    check_critical_points,
    check_diagonal_closed_form,
    check_rk4_order,
    check_series_agreement,
    run_battery,
)

COUNTS = dict(scenario_count=1, draw_count=1, series_count=1, diagonal_count=1,
              constant_h_count=1)

# The checks off the direct route run as the same calls in the battery and
# alone; stand-ins that echo their arguments keep the comparison fast and
# still pin the seed each one gets and its place in the result list.
OFF_ROUTE = ("check_differential_identity", "check_energy_rate_order",
             "check_moving_domain", "check_gauge_equivalence", "check_magnus_order",
             "check_moving_full_rank_reduction")


def _echo(name):
    def check(seed, *counts):
        return [verification._result(f"{name}{(seed, *counts)}", 0.0, 1.0)]
    return check


@pytest.fixture
def split(monkeypatch):
    """Force run_battery's halves into a forked worker (True) or one after
    the other (False), and check that no worker outlives the test."""
    def force(on: bool):
        monkeypatch.setattr(concurrency, "fork_worker", lambda: on)
    yield force
    assert multiprocessing.active_children() == []


def _key(results):
    return [(r.name, r.metric.hex(), r.threshold, r.comparison, r.passed) for r in results]


@pytest.mark.parametrize("seed", [42, 7])
def test_battery_equals_its_checks_one_at_a_time(seed, monkeypatch):
    # run_battery integrates every direct-route scenario in one call; each
    # check must still return exactly what it returns alone
    for name in OFF_ROUTE:
        monkeypatch.setattr(verification, name, _echo(name))
    alone = (check_conservation_and_agreement(seed + 1, COUNTS["scenario_count"])
             + check_series_agreement(seed + 2, COUNTS["series_count"])
             + check_diagonal_closed_form(seed + 3, COUNTS["diagonal_count"])
             + check_critical_points(seed + 4)
             + verification.check_differential_identity(seed + 5, COUNTS["draw_count"])
             + verification.check_energy_rate_order(seed + 6)
             + check_constant_h_invariant(seed + 7, COUNTS["constant_h_count"])
             + verification.check_moving_domain(seed + 8)
             + verification.check_gauge_equivalence(seed + 9)
             + check_rk4_order(seed + 10)
             + verification.check_magnus_order(seed + 11)
             + verification.check_moving_full_rank_reduction(seed + 12))
    assert _key(run_battery(seed, **COUNTS)) == _key(alone)


@pytest.mark.parametrize("seed", [42, 7])
def test_split_battery_equals_its_checks_one_at_a_time(seed, split, monkeypatch):
    # the forked worker inherits the stand-ins, which are module attributes
    split(True)
    test_battery_equals_its_checks_one_at_a_time(seed, monkeypatch)


@pytest.mark.parametrize("seed", [42, 7])
def test_split_battery_is_bit_identical(seed, split):
    split(True)
    forked = run_battery(seed)
    split(False)
    assert _key(forked) == _key(run_battery(seed))
    assert len(forked) == 20 and all(r.passed for r in forked)


DIRECT = ("check_conservation_and_agreement", "check_series_agreement",
          "check_diagonal_closed_form", "check_critical_points",
          "check_constant_h_invariant", "check_rk4_order")


def _stand_in(action=lambda: None):
    """A direct-route check that yields no scenario, running ``action`` first."""
    def steps(seed, *counts):
        action()
        yield []
        return [verification._result("stand_in", 0.0, 1.0)]
    return verification._direct_check(steps)


@pytest.fixture
def stand_ins(monkeypatch):
    """Replace every check by a quick one; returns a setter for one check.

    check_critical_points runs in the worker half; check_gauge_equivalence
    runs beside it, off the direct route.
    """
    for name in DIRECT:
        monkeypatch.setattr(verification, name, _stand_in())
    for name in OFF_ROUTE:
        monkeypatch.setattr(verification, name, _echo(name))

    def set_check(name, action):
        if name in DIRECT:
            monkeypatch.setattr(verification, name, _stand_in(action))
        else:
            monkeypatch.setattr(verification, name, lambda seed, *counts: action())
    return set_check


def _lose_rank():
    raise NearSingularError(f"lost rank in process {os.getpid()}",
                            last_good_time=0.25, partial=[0.0])


@pytest.mark.parametrize("on", [False, True])
def test_worker_error_keeps_its_type_message_and_time(on, split, stand_ins, tmp_path):
    split(on)
    stand_ins("check_critical_points", _lose_rank)
    with pytest.raises(NearSingularError) as info:
        run_battery(42)
    message = str(info.value)
    assert (message != f"lost rank in process {os.getpid()}") == on
    assert info.value.last_good_time == 0.25
    # the partial samples of a stop stay in the process that made them
    assert info.value.partial == (None if on else [0.0])
    assert main(["verify", "--output", str(tmp_path)]) == 4
    error = json.loads((tmp_path / "run.json").read_text())["error"]
    assert error["type"] == "NearSingularError"
    assert error["message"].startswith("lost rank in process ")
    assert error["last_good_time"] == 0.25


def _overflow():
    raise NonFiniteError("overflow beside the worker")


@pytest.mark.parametrize("on", [False, True])
def test_when_both_halves_fail_the_first_halfs_error_wins(on, split, stand_ins):
    split(on)
    stand_ins("check_gauge_equivalence", _overflow)
    with pytest.raises(NonFiniteError, match="overflow beside the worker"):
        run_battery(42)
    stand_ins("check_critical_points", _lose_rank)
    with pytest.raises(NearSingularError):
        run_battery(42)


def test_worker_error_keeps_its_worker_traceback(split, stand_ins):
    split(True)

    def divide():
        return 1 / 0

    stand_ins("check_critical_points", divide)
    with pytest.raises(ZeroDivisionError) as info:
        run_battery(42)
    cause = info.value.__cause__
    assert "in divide" in str(cause) and "ZeroDivisionError" in str(cause)


def test_worker_ignores_an_interrupt_meant_for_the_terminal(split, stand_ins, capfd):
    # Ctrl-C signals the whole foreground group; only the caller stops
    split(True)
    stand_ins("check_critical_points", lambda: os.kill(os.getpid(), signal.SIGINT))
    assert len(run_battery(42)) == 12
    assert "Traceback" not in capfd.readouterr().err


def test_worker_that_dies_is_a_typed_error(split, stand_ins, tmp_path, capsys):
    split(True)
    stand_ins("check_critical_points", lambda: os._exit(3))
    assert main(["verify", "--output", str(tmp_path)]) == 1
    message = "worker process exited with code 3 before it sent a result"
    assert json.loads((tmp_path / "run.json").read_text())["error"] == {
        "type": "MesodynError", "message": message}
    assert capsys.readouterr().err == f"mesodyn: {message}\n"


def test_interrupt_here_stops_the_worker(split, stand_ins):
    split(True)
    stand_ins("check_critical_points", lambda: time.sleep(60))

    def interrupt():
        raise KeyboardInterrupt

    stand_ins("check_gauge_equivalence", interrupt)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_battery(42)
    assert time.perf_counter() - start < 30


def test_fork_needs_two_cpus_and_no_other_thread(monkeypatch):
    # the battery's small matrices never thread in BLAS, so an unpinned
    # BLAS pool does not take the worker's CPU
    monkeypatch.setattr(concurrency, "_usable_cpus", lambda: 2)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert concurrency.fork_worker()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not concurrency.fork_worker()
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    monkeypatch.setattr(concurrency, "_usable_cpus", lambda: 1)
    assert not concurrency.fork_worker()


SRC = str(Path(__file__).resolve().parents[1] / "src")

# verify with quick stand-in checks; check_critical_points, in the worker
# half, warns.  argv: output directory, "split" or "serial".
WARNING_RUN = """
import sys, warnings
from mesodyn import cli, concurrency, verification
from mesodyn.errors import ConvergenceWarning

def quiet(seed, *counts):
    yield []
    return [verification._result("quiet", 0.0, 1.0)]

def warning(seed, *counts):
    warnings.warn("from the worker", ConvergenceWarning)
    yield []
    return [verification._result("warned", 0.0, 1.0)]

for name in %r:
    setattr(verification, name, verification._direct_check(quiet))
verification.check_critical_points = verification._direct_check(warning)
for name in %r:
    setattr(verification, name, lambda seed, *counts: [])
concurrency.fork_worker = lambda: sys.argv[2] == "split"
sys.exit(cli.main(["verify", "--output", sys.argv[1]]))
""" % (DIRECT, OFF_ROUTE)


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_worker_warning_is_shown_and_listed_once(tmp_path):
    manifests = {}
    for mode in ("split", "serial"):
        out = tmp_path / mode
        done = _python("-c", WARNING_RUN, str(out), mode)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("from the worker") == 1, done.stderr
        assert "ConvergenceWarning" in done.stderr
        manifests[mode] = (out / "run.json").read_bytes()
    assert json.loads(manifests["split"])["warnings"] == [
        {"category": "ConvergenceWarning", "message": "from the worker"}]
    assert manifests["split"] == manifests["serial"]


# verify with quick stand-in checks; check_critical_points, in the worker
# half, loses rank, and check_gauge_equivalence, in the second half, says
# that it ran, warns and overflows.  argv: output directory, "split" or
# "serial".
BOTH_FAIL_RUN = """
import sys, warnings
from mesodyn import cli, concurrency, verification
from mesodyn.errors import ConvergenceWarning, NearSingularError, NonFiniteError

def quiet(seed, *counts):
    yield []
    return [verification._result("quiet", 0.0, 1.0)]

def lose_rank(seed, *counts):
    raise NearSingularError("lost rank in the first half", last_good_time=0.25)
    yield

def warn_and_overflow(seed, *counts):
    print("the second half ran")
    warnings.warn("from the second half", ConvergenceWarning)
    raise NonFiniteError("overflow in the second half")

for name in %r:
    setattr(verification, name, verification._direct_check(quiet))
verification.check_critical_points = verification._direct_check(lose_rank)
for name in %r:
    setattr(verification, name, lambda seed, *counts: [])
verification.check_gauge_equivalence = warn_and_overflow
concurrency.fork_worker = lambda: sys.argv[2] == "split"
sys.exit(cli.main(["verify", "--output", sys.argv[1]]))
""" % (DIRECT, OFF_ROUTE)


@pytest.mark.parametrize("mode", ["split", "serial"])
def test_when_both_halves_fail_the_second_halfs_warning_is_not_shown(mode, tmp_path):
    done = _python("-c", BOTH_FAIL_RUN, str(tmp_path), mode)
    assert done.returncode == 4, done.stderr
    assert "lost rank in the first half" in done.stderr
    assert "from the second half" not in done.stderr
    assert "overflow" not in done.stderr
    # serially, the second half never starts once the first has failed
    assert ("the second half ran" in done.stdout) == (mode == "split")
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["error"]["type"] == "NearSingularError"
    assert manifest["error"]["message"] == "lost rank in the first half"
    assert "warnings" not in manifest


def test_import_starts_no_process_machinery():
    probe = ("import sys, mesodyn, mesodyn.cli, mesodyn.verification\n"
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
             " if m in sys.modules))")
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_magnus_order_catches_a_wrong_commutator_sign(monkeypatch):
    # the opposite commutator sign leaves a second-order Magnus step
    (right,) = verification.check_magnus_order(42)
    assert right.passed and right.metric == pytest.approx(4.0, abs=0.05)
    monkeypatch.setattr(fixed_domain, "_SQRT3_12", -fixed_domain._SQRT3_12)
    (wrong,) = verification.check_magnus_order(42)
    assert not wrong.passed and wrong.metric == pytest.approx(2.0, abs=0.05)
