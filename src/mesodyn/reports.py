"""CSV/JSON artifact writers.

All numeric cells use the shortest round-trip decimal representation of
the double (Python's repr), so identical runs produce byte-identical
files.  Trajectory entries, the bulk of every artifact, are formatted by
``linalg.format_cells`` through orjson, whose text is byte-equal to repr's.
Writers go through a temp-file + atomic-rename so a crashed run never
leaves a truncated artifact behind; the trajectory CSV reaches the temp
file block by block, so its text is never held whole.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsReport
from .fixed_domain import MAGNUS_CHUNK, Trajectory
from .linalg import format_cells


def format_number(x) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def atomic_write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings, to ``path`` atomically.

    The text goes to a temp file beside ``path``, which replaces ``path``
    by one ``os.replace`` once it is complete.  If writing fails, or the
    iterable raises, the temp file is removed and ``path`` is untouched.
    """
    atomic_write_blocks(path, (text,) if isinstance(text, str) else text)


def atomic_write_blocks(path: str, blocks) -> None:
    """``atomic_write_text`` of an iterable of strings, each written as it comes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def trajectory_csv(trajectory: Trajectory, report: DiagnosticsReport):
    """Per-sample operator entries (row-major re/im) plus drift columns.

    Yields the header line, then blocks of max(1, MAGNUS_CHUNK // n**2)
    rows, so a writer holds one block of text at a time.
    """
    times, ks = trajectory.times.tolist(), trajectory.ks
    if not len(ks):
        yield "t\n"
        return
    rows_n, cols_n = ks.shape[1:]
    header = ["t"]
    for i in range(rows_n):
        for j in range(cols_n):
            header += [f"k_re_{i}_{j}", f"k_im_{i}_{j}"]
    header += ["kk_drift", "trace_khk_drift", "unitarity_defect"]
    yield ",".join(header) + "\n"
    kk_drifts = report.kk_star_drift.tolist()
    defects = report.unitarity_defect.tolist()
    trace_drifts = ([""] * len(ks) if report.trace_khk_drift is None
                    else [repr(x) for x in report.trace_khk_drift.tolist()])
    # each K's entries in row-major order, each as re,im: the float64 view
    # of the contiguous complex array interleaves them so
    entries = np.ascontiguousarray(ks, dtype=np.complex128).reshape(len(ks), -1).view(np.float64)
    size = max(1, MAGNUS_CHUNK // (rows_n * cols_n))
    for start in range(0, len(ks), size):
        w = slice(start, start + size)
        yield "".join(f"{t!r},{format_cells(k)},{kk!r},{trace},{defect!r}\n"
                      for t, k, kk, trace, defect
                      in zip(times[w], entries[w], kk_drifts[w], trace_drifts[w], defects[w]))


def diagnostics_csv(report: DiagnosticsReport) -> str:
    rows = [["t", "xi", "xi_rate_pred", "xi_rate_obs", "kk_drift",
             "trace_khk_drift", "unitarity_defect"]]
    trace_drifts = report.trace_khk_drift
    for i, t in enumerate(report.times):
        rows.append([
            format_number(t), format_number(report.xi[i]),
            format_number(report.xi_rate_predicted[i]),
            format_number(report.xi_rate_observed[i]),
            format_number(report.kk_star_drift[i]),
            "" if trace_drifts is None else format_number(trace_drifts[i]),
            format_number(report.unitarity_defect[i]),
        ])
    return _csv(rows)


def residual_report_csv(rows_in) -> str:
    """Moving-domain report: (t, weak residual or None, image drift, radial drift)."""
    rows = [["t", "weak_residual", "image_drift", "radial_drift"]]
    for t, residual, image_drift, radial_drift in rows_in:
        rows.append([
            format_number(t),
            "" if residual is None else format_number(residual),
            format_number(image_drift), format_number(radial_drift),
        ])
    return _csv(rows)


def comparison_csv(rows_in) -> str:
    """Cross-solver table: (pair, max_distance, tolerance, status)."""
    rows = [["pair", "max_distance", "tolerance", "status"]]
    for pair, distance, tolerance, status in rows_in:
        rows.append([pair, format_number(distance), format_number(tolerance), status])
    return _csv(rows)


def flux_csv(times, distributions) -> str:
    """Per-time flux distribution, one column per image component."""
    n = len(distributions[0]) if distributions else 0
    rows = [["t"] + [f"flux_{i}" for i in range(n)]]
    for t, dist in zip(times, distributions):
        rows.append([format_number(t)] + [format_number(v) for v in dist])
    return _csv(rows)


def checks_csv(results) -> str:
    """Verification battery table."""
    rows = [["check", "metric", "threshold", "comparison", "status"]]
    for r in results:
        rows.append([r.name, format_number(r.metric), format_number(r.threshold),
                     r.comparison, "pass" if r.passed else "fail"])
    return _csv(rows)


@dataclass
class RunManifest:
    """What a command produced: digest, version, timing, files, verdicts.

    ``error`` is set when the run stopped on a package error:
    {"type", "message"} plus "last_good_time" when the error carries one.
    ``warnings`` holds one {"category", "message"} per warning shown.
    """

    scenario_digest: str
    tool_version: str
    wall_time: float
    outputs: list = field(default_factory=list)
    status: dict = field(default_factory=dict)
    error: dict | None = None
    warnings: list = field(default_factory=list)

    def ok(self) -> bool:
        return self.error is None and all(v == "pass" for v in self.status.values())


def manifest_json(manifest: RunManifest) -> str:
    doc = {
        "scenario_digest": manifest.scenario_digest,
        "tool_version": manifest.tool_version,
        "wall_time": manifest.wall_time,
        "outputs": list(manifest.outputs),
        "status": dict(sorted(manifest.status.items())),
    }
    if manifest.error is not None:
        doc["error"] = dict(manifest.error)
    if manifest.warnings:  # left out when empty: most manifests keep their bytes
        doc["warnings"] = [dict(w) for w in manifest.warnings]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
