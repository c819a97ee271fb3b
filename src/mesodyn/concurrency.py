"""When a run may use a second CPU, and two independent halves run on two.

``compare`` overlaps its two routes on two threads (``cli.overlap_routes``)
under the gate ``two_cores``: BLAS pinned to one thread, so each route keeps
to its own CPU, and at least two usable CPUs.  ``verify`` runs its battery
as two halves in two processes (``run_halves``) under ``fork_worker``.

``multiprocessing`` is imported only where a worker may be forked, so
``import mesodyn`` does not pay for it.
"""

from __future__ import annotations

import os
import threading
import warnings

from .errors import MesodynError


def _blas_pinned() -> bool:
    """Whether OpenBLAS runs one thread: OPENBLAS_NUM_THREADS if set to a
    positive count, else OMP_NUM_THREADS, is 1 (numpy's OpenBLAS order)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def two_cores() -> bool:
    """Whether two BLAS-bound computations can each have a CPU of their own."""
    return _blas_pinned() and _usable_cpus() >= 2


def fork_worker() -> bool:
    """Whether ``run_halves`` runs its first half in a forked worker.

    It needs two usable CPUs, but not BLAS pinned: the battery's matrices
    (dim 2 to 8) are too small for OpenBLAS to thread.  With BLAS unpinned
    on 2 CPUs the split still took in-process ``run_battery(42)`` from
    1.25 to 0.82 s (medians of 8 alternating runs).
    Forked, not spawned: a spawned worker would import numpy and mesodyn
    afresh (about 0.1 s, a tenth of the verify battery) and could run only
    what pickles by import path.  So the fork start method must exist and
    no other Python thread may be alive: a fork copies no thread but every
    lock, so a lock another thread held stays held in the child (Python
    3.12 and later warn about it).
    """
    if _usable_cpus() < 2 or threading.active_count() != 1:
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _outcome(half):
    """``(value, error, warnings)`` of ``half()``.

    The active filters decide which warnings are recorded (or raised as
    errors); a recorded warning is not shown but kept as
    ``(message, category, filename, lineno)`` for ``_replay``.
    """
    with warnings.catch_warnings(record=True) as shown:
        try:
            value, error = half(), None
        except Exception as exc:  # the caller raises it in run order
            value, error = None, exc
    return value, error, [(str(w.message), w.category, w.filename, w.lineno)
                          for w in shown]


def _replay(shown) -> None:
    for message, category, filename, lineno in shown:
        warnings.warn_explicit(message, category, filename, lineno)


class _WorkerTraceback(Exception):
    """The worker's traceback of an error, chained as that error's cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _send_outcome(half, sender) -> None:
    import signal
    import traceback

    # an interrupt at a terminal reaches the worker too; the caller ends it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    value, error, shown = _outcome(half)
    trace = None if error is None else "".join(traceback.format_exception(error))
    with sender:
        sender.send((value, error, shown, trace))


def _forked_outcomes(first, second) -> list:
    """The outcomes of ``first`` in a forked worker and ``second`` here, meanwhile.

    The worker sends back its pickled outcome: a value, or an exception of
    the same type and message with the worker's traceback as its cause.
    The worker is joined on every path, and killed first if this process
    stops with an exception of its own (an interrupt: ``_outcome`` keeps
    every ``Exception``).
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_outcome, args=(first, sender), daemon=True)
    worker.start()
    sender.close()  # the worker holds the one sending end: its exit ends recv
    try:
        here = _outcome(second)
        there = receiver.recv()
    except EOFError:
        there = None
    except BaseException:
        worker.terminate()
        raise
    finally:
        receiver.close()
        worker.join()
    if there is None:
        raise MesodynError(f"worker process exited with code {worker.exitcode} "
                           "before it sent a result")
    value, error, shown, trace = there
    if trace:
        error.__cause__ = _WorkerTraceback(trace)
    return [(value, error, shown), here]


def run_halves(first, second) -> tuple:
    """``(first(), second())``: two halves that share no state, in that order.

    Where ``fork_worker`` allows, ``first`` runs in a forked worker while
    ``second`` runs here; otherwise they run one after the other.  Either
    way the halves end in order: ``first``'s warnings are shown and its
    error raised, then ``second``'s.  So should both halves fail,
    ``first``'s error wins and ``second``'s warnings are not shown.  A
    worker that exits without sending its outcome raises ``MesodynError``.
    """
    if not fork_worker():
        return first(), second()
    outcomes = _forked_outcomes(first, second)
    for _, error, shown in outcomes:
        _replay(shown)
        if error is not None:
            raise error
    return tuple(value for value, _, _ in outcomes)
