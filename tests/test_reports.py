import numpy as np
import pytest

from mesodyn.diagnostics import DiagnosticsReport
from mesodyn.fixed_domain import Trajectory
from mesodyn.linalg import CELL_CHUNK, format_cells
from mesodyn.reports import atomic_write_text, format_number, trajectory_csv


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


    @pytest.mark.parametrize("where", ["first", "last", "adjacent", "across", "whole",
                                       "every"])
    def test_runs_between_exponent_form_cells(self, where, rng):
        # exponent-form cells at the ends of a chunk, side by side, across a
        # chunk boundary, filling a chunk, and everywhere
        values = rng.standard_normal(3 * CELL_CHUNK + 7)
        tiny = rng.uniform(1e-9, 1e-5, values.size) * rng.choice([-1.0, 1.0], values.size)
        starts = np.arange(0, values.size, CELL_CHUNK)
        picked = {
            "first": starts,
            "last": np.append(starts[1:] - 1, values.size - 1),
            "adjacent": np.concatenate([starts + 3, starts + 4, starts + 5]),
            "across": np.concatenate([starts[1:] - 1, starts[1:]]),
            "whole": np.arange(CELL_CHUNK, 2 * CELL_CHUNK),
            "every": np.arange(values.size),
        }[where]
        values[picked] = tiny[picked]
        assert_formats_as_repr(values)
        assert_formats_as_repr(values[::-1])
        values[picked[::2]] = np.nan  # NaN is written by repr too
        assert_formats_as_repr(values)


def reference_trajectory_csv(trajectory, report):
    """One format_number call per cell: the definition of the format."""
    rows_n, cols_n = trajectory.ks[0].shape
    header = ["t"]
    for i in range(rows_n):
        for j in range(cols_n):
            header += [f"k_re_{i}_{j}", f"k_im_{i}_{j}"]
    header += ["kk_drift", "trace_khk_drift", "unitarity_defect"]
    rows = [header]
    for s, (t, k) in enumerate(zip(trajectory.times, trajectory.ks)):
        row = [format_number(t)]
        for i in range(rows_n):
            for j in range(cols_n):
                entry = k[i, j]
                row += [format_number(entry.real), format_number(entry.imag)]
        row.append(format_number(report.kk_star_drift[s]))
        row.append("" if report.trace_khk_drift is None
                   else format_number(report.trace_khk_drift[s]))
        row.append(format_number(report.unitarity_defect[s]))
        rows.append(row)
    return "\n".join(",".join(row) for row in rows) + "\n"


def report_of(times, trace_khk_drift=None):
    """A report on ``times``: the given trace-drift column, the rest constant."""
    count = len(times)
    return DiagnosticsReport(
        times=np.asarray(times, dtype=np.float64), xi=np.ones(count),
        xi_rate_predicted=np.zeros(count), xi_rate_observed=np.zeros(count),
        kk_star_drift=np.full(count, 2.5e-17), unitarity_defect=np.full(count, 1e-16),
        trace_khk_drift=(None if trace_khk_drift is None
                         else np.asarray(trace_khk_drift, dtype=np.float64)))


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
        times = np.array([0.0, 0.1, 1e22])
        trajectory = Trajectory(times=times,
                                ks=np.array([awkward, transposed, awkward[:, ::-1]]),
                                solver_tag="test")
        for drifts, first_drift in ((None, ""), ([0.25, -0.0, 3.0], "0.25")):
            report = report_of(times, drifts)
            text = "".join(trajectory_csv(trajectory, report))
            assert text == reference_trajectory_csv(trajectory, report)
            first = text.splitlines()[1].split(",")
            assert first[1:5] == ["-0.0", "5e-324", "3.0", "-0.0"]
            assert first[5] == "1e+22"
            assert first[-2] == first_drift
        assert text.splitlines()[2].split(",")[-2] == "-0.0"

    def test_real_valued_k_writes_zero_imaginary_parts(self):
        trajectory = Trajectory(times=np.array([0.5]), ks=np.array([[[1.0, -2.0]]]),
                                solver_tag="test")
        report = report_of([0.5])
        text = "".join(trajectory_csv(trajectory, report))
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
        trajectory = Trajectory(times=np.array([0.0, 0.1]), ks=np.array([k, blown]),
                                solver_tag="direct")
        report = report_of([0.0, 0.1])
        text = "".join(trajectory_csv(trajectory, report))
        assert text == reference_trajectory_csv(trajectory, report)
        assert text.splitlines()[2].split(",")[1:3] == ["inf", "-inf"]

    def test_yields_blocks_of_rows(self, rng):
        # dim 40: MAGNUS_CHUNK // 1600 = 10 rows per block
        ks = rng.standard_normal((23, 40, 40)) + 0j
        times = np.arange(23) * 0.1
        trajectory = Trajectory(times=times, ks=ks, solver_tag="test")
        report = report_of(times)
        blocks = list(trajectory_csv(trajectory, report))
        assert [block.count("\n") for block in blocks] == [1, 10, 10, 3]
        assert "".join(blocks) == reference_trajectory_csv(trajectory, report)

    def test_empty_trajectory(self):
        trajectory = Trajectory(times=np.array([]), ks=np.empty((0, 2, 2), dtype=complex),
                                solver_tag="test")
        assert "".join(trajectory_csv(trajectory, report_of([]))) == "t\n"


class TestAtomicWrite:
    def test_string_and_blocks_give_the_same_bytes(self, tmp_path):
        atomic_write_text(str(tmp_path / "a.csv"), "x,y\n1.0,2.0\n")
        atomic_write_text(str(tmp_path / "b.csv"), iter(["x,y\n", "1.0,", "2.0\n"]))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_raising_blocks_leave_no_temp_file(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old\n")

        def blocks():
            yield "new,"
            raise ValueError("formatting failed")

        with pytest.raises(ValueError, match="formatting failed"):
            atomic_write_text(str(target), blocks())
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
