"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  The random instances are seeded, so the whole gate
is reproducible; desk scale (dimensions 2..5, t in [0, 1]).
"""

import numpy as np
import pytest

from mesodyn.cli import Command, run
from mesodyn.verification import (
    check_conservation_and_agreement,
    check_constant_h_invariant,
    check_critical_points,
    check_diagonal_closed_form,
    check_differential_identity,
    check_energy_rate_order,
    check_gauge_equivalence,
    check_magnus_order,
    check_moving_domain,
    check_moving_full_rank_reduction,
    check_rk4_order,
    check_series_agreement,
)

ROOT_SEED = 42


def _assert_all(criterion, results):
    for result in results:
        print(f"criterion {criterion}: {result}")
    failed = [r for r in results if not r.passed]
    assert not failed, f"criterion {criterion} failed: {[str(r) for r in failed]}"


@pytest.fixture(scope="module")
def conservation_results():
    # 50 seeded scenarios, dims 2..5, time-dependent H and B, shared by
    # criteria 1 and 2
    return check_conservation_and_agreement(ROOT_SEED + 1, scenario_count=50)


def test_criterion_1_kk_star_conservation(conservation_results):
    results = [r for r in conservation_results
               if r.name.startswith("conservation")]
    assert {r.name for r in results} == {"conservation_factorized",
                                         "conservation_direct"}
    assert results[0].threshold == 1e-10
    assert results[1].threshold == 1e-8
    _assert_all(1, results)


def test_criterion_2_cross_solver_oracle(conservation_results):
    cross = [r for r in conservation_results if r.name == "cross_solver_distance"]
    assert cross[0].threshold == 1e-6
    series = check_series_agreement(ROOT_SEED + 2, scenario_count=10, terms=30)
    assert all(r.threshold == 1e-9 for r in series)
    _assert_all(2, cross + series)


def test_kstar_k_heisenberg(conservation_results):
    # the paper's autonomous Schroedinger factor: the direct route's K*K
    # follows W0* K0*K0 W0 whatever the field is
    results = [r for r in conservation_results if r.name == "kstar_k_heisenberg"]
    assert results[0].threshold == 1e-10
    _assert_all("(kstar_k)", results)


def test_criterion_3_diagonal_closed_form():
    results = check_diagonal_closed_form(ROOT_SEED + 3, scenario_count=10)
    assert results[0].threshold == 1e-8
    _assert_all(3, results)


def test_criterion_4_critical_points():
    results = check_critical_points(ROOT_SEED + 4, draw_count=10)
    thresholds = {r.name: r.threshold for r in results}
    assert thresholds["critical_point_residual"] == 1e-11
    assert thresholds["critical_point_phase_rotation"] == 1e-8
    _assert_all(4, results)


def test_criterion_5_hamiltonian_flow_identity():
    identity = check_differential_identity(ROOT_SEED + 5, draw_count=100)
    assert identity[0].threshold == 1e-6
    order = check_energy_rate_order(ROOT_SEED + 6)
    assert order[0].threshold == 1.9 and order[0].comparison == ">="
    _assert_all(5, identity + order)


def test_criterion_6_constant_h_invariant():
    results = check_constant_h_invariant(ROOT_SEED + 7, scenario_count=10)
    assert results[0].threshold == 1e-8
    _assert_all(6, results)


def test_criterion_7_moving_domain():
    results = check_moving_domain(ROOT_SEED + 8)
    thresholds = {r.name: (r.threshold, r.comparison) for r in results}
    assert thresholds["moving_image_drift"] == (1e-10, "<=")
    assert thresholds["moving_radial_drift"] == (1e-9, "<=")
    assert thresholds["weak_residual_order"] == (1.9, ">=")
    assert thresholds["moving_rank_one_closed_form"] == (1e-10, "<=")
    _assert_all(7, results)


def test_criterion_8_gauge_uniqueness():
    results = check_gauge_equivalence(ROOT_SEED + 9)
    assert results[0].threshold == 1e-8
    _assert_all(8, results)


def test_criterion_9_verify_determinism(tmp_path, verify_seed_42):
    # the first run is the session's shared `verify --seed 42`; exit 0 is ok()
    code_a, out_a = verify_seed_42
    out_b = tmp_path / "b"
    manifest_b = run(Command("verify", None, str(out_b), {"seed": 42}))
    assert code_a == 0 and manifest_b.ok()
    for name in ("run.json", "checks.csv"):
        bytes_a = (out_a / name).read_bytes()
        bytes_b = (out_b / name).read_bytes()
        identical = bytes_a == bytes_b
        print(f"criterion 9: {'PASS' if identical else 'FAIL'} byte-identical {name}")
        assert identical


def test_rk4_uniqueness_regression():
    # supporting regression: direct-solver self-convergence stays at order 4
    results = check_rk4_order(ROOT_SEED + 10)
    _assert_all("(rk4 regression)", results)


def test_magnus_order_regression():
    # supporting regression: the factorized W's Magnus step stays at order 4
    results = check_magnus_order(ROOT_SEED + 11)
    assert results[0].threshold == 3.5 and results[0].comparison == ">="
    _assert_all("(magnus regression)", results)


def test_moving_full_rank_reduction():
    # supporting regression: at full rank the moving construction is the
    # fixed-domain solution
    results = check_moving_full_rank_reduction(ROOT_SEED + 12)
    assert results[0].threshold == 1e-12
    _assert_all("(moving reduction)", results)
