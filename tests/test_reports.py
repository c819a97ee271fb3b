import numpy as np

from mesodyn.diagnostics import DiagnosticsRecord, DiagnosticsReport
from mesodyn.fixed_domain import EvolutionState, Trajectory
from mesodyn.reports import format_number, trajectory_csv


def reference_trajectory_csv(trajectory, report):
    """One format_number call per cell: the definition of the format."""
    rows_n, cols_n = trajectory.states[0].k.shape
    header = ["t"]
    for i in range(rows_n):
        for j in range(cols_n):
            header += [f"k_re_{i}_{j}", f"k_im_{i}_{j}"]
    header += ["kk_drift", "trace_khk_drift", "unitarity_defect"]
    rows = [header]
    for state, record in zip(trajectory.states, report.records):
        row = [format_number(state.t)]
        for i in range(rows_n):
            for j in range(cols_n):
                entry = state.k[i, j]
                row += [format_number(entry.real), format_number(entry.imag)]
        row.append(format_number(record.kk_star_drift))
        row.append("" if record.trace_khk_drift is None
                   else format_number(record.trace_khk_drift))
        row.append(format_number(record.unitarity_defect))
        rows.append(row)
    return "\n".join(",".join(row) for row in rows) + "\n"


def record(t, trace_khk_drift):
    return DiagnosticsRecord(t=t, xi=1.0, xi_rate_predicted=0.0,
                             xi_rate_observed=0.0, kk_star_drift=2.5e-17,
                             trace_khk_drift=trace_khk_drift,
                             unitarity_defect=np.float64(1e-16))


class TestTrajectoryCsv:
    def test_matches_per_cell_reference(self, rng):
        # complex(re, im) keeps signed zeros that re + im*1j would lose
        awkward = np.array(
            [[complex(-0.0, 5e-324), complex(3.0, -0.0), complex(1e22, 0.1)],
             [complex(-7.0, 1e-308), complex(2.0 ** 53, 1.0),
              complex(-1e22, -5e-324)]])
        transposed = (rng.standard_normal((3, 2))
                      + 1j * rng.standard_normal((3, 2))).T
        assert not transposed.flags["C_CONTIGUOUS"]
        states = (
            EvolutionState(t=0.0, k=awkward),
            EvolutionState(t=0.1, k=transposed),
            EvolutionState(t=np.float64(1e22), k=awkward[:, ::-1]),
        )
        trajectory = Trajectory(states=states, solver_tag="test")
        report = DiagnosticsReport(records=(
            record(0.0, None), record(0.1, -0.0), record(1e22, 3.0)))
        text = trajectory_csv(trajectory, report)
        assert text == reference_trajectory_csv(trajectory, report)
        first = text.splitlines()[1].split(",")
        assert first[1:5] == ["-0.0", "5e-324", "3.0", "-0.0"]
        assert first[5] == "1e+22"
        assert first[-2] == ""

    def test_real_valued_k_writes_zero_imaginary_parts(self):
        trajectory = Trajectory(
            states=(EvolutionState(t=0.5, k=np.array([[1.0, -2.0]])),),
            solver_tag="test")
        report = DiagnosticsReport(records=(record(0.5, None),))
        text = trajectory_csv(trajectory, report)
        assert text == reference_trajectory_csv(trajectory, report)
        assert text.splitlines()[1].startswith("0.5,1.0,0.0,-2.0,0.0,")

    def test_empty_trajectory(self):
        trajectory = Trajectory(states=(), solver_tag="test")
        assert trajectory_csv(trajectory, DiagnosticsReport(records=())) == "t\n"
