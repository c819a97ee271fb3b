import numpy as np
import pytest

from mesodyn.diagnostics import DiagnosticsRecord, DiagnosticsReport
from mesodyn.fixed_domain import EvolutionState, Trajectory
from mesodyn.reports import CELL_CHUNK, format_cells, format_number, trajectory_csv


def repr_cells(values):
    """The definition format_cells must meet byte for byte."""
    return ",".join(map(repr, values.tolist()))


def assert_formats_as_repr(values):
    text = format_cells(values)
    if text != repr_cells(values):
        # pytest's own diff of strings this long takes minutes to build
        wrong = [(x, cell) for x, cell in zip(values.tolist(), text.split(","))
                 if cell != repr(x)]
        pytest.fail(f"format_cells differs from repr; first (value, cell): {wrong[:5]}")


class TestFormatCells:
    def test_random_bit_patterns(self, rng):
        # uniformly drawn bits: every exponent, NaN payloads too
        values = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64)
        # the exponent field is zero about once in 2048 draws: add subnormals
        subnormal_bits = rng.integers(1, 2 ** 52, size=2_000, dtype=np.uint64)
        subnormals = subnormal_bits.view(np.float64) * rng.choice([-1.0, 1.0], 2_000)
        for v in (values, subnormals):
            assert_formats_as_repr(v)

    def test_one_ulp_around_each_decade(self):
        # repr switches to exponent form below 1e-4 and from 1e16 on
        decades = 10.0 ** np.arange(-8, 21)
        around = np.concatenate([np.nextafter(decades, 0.0), decades,
                                 np.nextafter(decades, np.inf)])
        assert_formats_as_repr(np.concatenate([around, -around]))

    def test_zeros_infinities_nan_and_extremes(self):
        finfo = np.finfo(np.float64)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, finfo.max, -finfo.max,
                           finfo.smallest_subnormal, -finfo.smallest_subnormal])
        assert format_cells(values) == (
            "0.0,-0.0,inf,-inf,nan,1.7976931348623157e+308,"
            "-1.7976931348623157e+308,5e-324,-5e-324")

    @pytest.mark.parametrize("length", [0, 1, CELL_CHUNK - 1, CELL_CHUNK,
                                        CELL_CHUNK + 1])
    def test_lengths_around_the_chunk(self, length, rng):
        values = rng.standard_normal(length)
        assert_formats_as_repr(values)
        if length:
            # an exponent-form cell at the end of each chunk
            values[CELL_CHUNK - 1::CELL_CHUNK] = 1e-300
            values[-1] = np.nan
            assert_formats_as_repr(values)
            assert_formats_as_repr(values[::-1])


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

    def test_stopped_run_with_non_finite_entries(self, rng):
        # a direct run stopped by overflow: Inf and NaN in the last sample,
        # which is wide enough (2 * 33^2 entries) to span two chunks
        k = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
        blown = k.copy()
        blown[0, 0] = complex(np.inf, -np.inf)
        blown[15, 16] = complex(np.nan, 1e-7)
        blown[32, 32] = complex(1e300, np.nan)
        states = (EvolutionState(t=0.0, k=k), EvolutionState(t=0.1, k=blown))
        trajectory = Trajectory(states=states, solver_tag="direct")
        report = DiagnosticsReport(records=(record(0.0, None), record(0.1, None)))
        text = trajectory_csv(trajectory, report)
        assert text == reference_trajectory_csv(trajectory, report)
        assert text.splitlines()[2].split(",")[1:3] == ["inf", "-inf"]

    def test_empty_trajectory(self):
        trajectory = Trajectory(states=(), solver_tag="test")
        assert trajectory_csv(trajectory, DiagnosticsReport(records=())) == "t\n"
