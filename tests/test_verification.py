import pytest

from mesodyn import fixed_domain, verification
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
    battery = run_battery(seed, **COUNTS)
    assert [(r.name, r.metric.hex(), r.threshold, r.comparison, r.passed) for r in battery] == [
        (r.name, r.metric.hex(), r.threshold, r.comparison, r.passed) for r in alone]


def test_magnus_order_catches_a_wrong_commutator_sign(monkeypatch):
    # the opposite commutator sign leaves a second-order Magnus step
    (right,) = verification.check_magnus_order(42)
    assert right.passed and right.metric == pytest.approx(4.0, abs=0.05)
    monkeypatch.setattr(fixed_domain, "_SQRT3_12", -fixed_domain._SQRT3_12)
    (wrong,) = verification.check_magnus_order(42)
    assert not wrong.passed and wrong.metric == pytest.approx(2.0, abs=0.05)
