"""Deterministic dense complex linear-algebra primitives.

Matrices are plain ``numpy.ndarray`` values with dtype complex128.  The
helpers here construct and check the structured operators the solvers
rely on: Hermitian matrices (symmetrized at construction), unitaries and
their exponentials, the checked full-rank SVD behind the polar split and
the checked (K*)^-1 (an LU inverse whose norms certify the full-rank
floor, with the singular values deciding every case they cannot), and the
trace pairings

    <L|N> = trace(L N*),   <L,N> = Re trace(L N*),   w(L,N) = Im trace(L N*).

Every function is a pure function of its inputs; nothing here mutates
its arguments or keeps state, so concurrent use is safe.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import inv as _lu_inverse

from .errors import (
    NearSingularError,
    NonFiniteError,
    NonSquareError,
    ShapeMismatchError,
)

# Construction / invariant tolerances.
HERMITIAN_RTOL = 1e-13          # allowed entrywise deviation from M = M*
UNITARY_TOL = 1e-12             # ||U*U - I||_F <= UNITARY_TOL * sqrt(dim)
DEFAULT_PD_FLOOR = 1e-12        # relative singular-value / eigenvalue floor

# The norm screen of adjoint_inverse.  For a nonsingular K and X = (K*)^-1,
#   s_min/s_max = 1/(||K||_2 ||X||_2) >= 1/c,   c = ||K||_F ||X||_F.
# The LU inverse X' of K* has a relative forward error of at most about
# n eps kappa <= n eps c (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 14), so c' = ||K||_F ||X'||_F under-reads c by that share.
# LU guard: c' n eps <= 0.01 keeps that share near 1%, so c <= c'/0.99,
#   and puts the exact s_min/s_max above about 99 n eps, clear of the SVD's
#   own rounding (a few eps s_max): the SVD would pass under a tiny floor.
# Margin: floor c' <= 1/2 then gives floor c <= 0.505, so the exact
#   s_min/s_max is at least 1.98 floor, and the SVD's computed ratio, a few
#   eps from it, passes the floor too.
# One stack-wide c' serves every member, whose norms are at most the
# stack's.  Anything else (an Inf c', or a NaN one from an LU that met a
# zero pivot) goes to the SVD.
INVERSE_SCREEN_MARGIN = 0.5
INVERSE_LU_GUARD = 0.01
_EPS = float(np.finfo(np.float64).eps)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(M + M*) / 2 of a matrix or of each matrix in a stack.

    Bit-for-bit equal to its own conjugate transpose.  ``out=m`` (a complex
    array the caller owns) symmetrizes it in place, with the same bits and
    one temporary fewer.
    """
    a = np.asarray(m, dtype=np.complex128)
    out = np.add(a, a.conj().swapaxes(-1, -2), out=out)
    out /= 2
    return out


def hermitian_excess(a: np.ndarray, rtol: float) -> float | None:
    """max |M - M*| when it exceeds rtol * max(max |M|, 1), else None."""
    if not a.size:
        return None
    dev = float(np.max(np.abs(a - a.conj().T)))
    return dev if dev > rtol * max(float(np.max(np.abs(a))), 1.0) else None


def below_floor(lo, hi, floor):
    """Relative full-rank test: hi is not positive or lo <= floor * hi.

    ``lo``/``hi`` are the smallest and largest singular values (or
    eigenvalues of a positive-definite matrix).  Arrays are tested
    elementwise: an array ``lo`` with one ``hi`` flags every value under
    the floor, and per-member arrays test each member of a stack.
    """
    return (hi <= 0.0) | (lo <= floor * hi)


def hermitian(m) -> np.ndarray:
    """Validate closeness to M = M* and return the symmetrized matrix."""
    a = require_square(m)
    dev = hermitian_excess(a, HERMITIAN_RTOL)
    if dev is not None:
        raise ShapeMismatchError(
            f"matrix is not Hermitian: max |M - M*| = {dev:.3e} exceeds "
            f"{HERMITIAN_RTOL:.1e} * max(|M|, 1)"
        )
    return hermitian_part(a)


def unitary_defect(u) -> float:
    """||U*U - I||_F."""
    a = as_matrix(u)
    gram = a.conj().T @ a
    return float(np.linalg.norm(gram - np.eye(a.shape[1])))


def require_unitary(u) -> np.ndarray:
    a = require_square(u)
    defect = unitary_defect(a)
    if defect > UNITARY_TOL * np.sqrt(a.shape[0]):
        raise ShapeMismatchError(
            f"matrix is not unitary: ||U*U - I||_F = {defect:.3e}"
        )
    return a


def hermitian_eigendecompose(m):
    """Eigenvalues (ascending) and an orthonormal eigenbasis, M = Q diag(w) Q*.

    Plain LAPACK ``eigh`` on the validated Hermitian matrix.  The phases
    and the order of eigenvectors inside degenerate clusters are LAPACK's;
    every caller forms functions Q f(w) Q*, which do not depend on them,
    and identical input gives identical bits on a fixed machine.
    """
    return np.linalg.eigh(hermitian(m))


def unitary_exponentials(a, scales) -> list:
    """[exp(i * s * A) for s in scales] for Hermitian A.

    One eigendecomposition A = Q diag(w) Q* serves every scale, each
    exponential being Q diag(exp(i s w)) Q*.
    """
    w, q = hermitian_eigendecompose(a)
    qh = q.conj().T
    out = []
    for scale in scales:
        if scale == 0.0:
            out.append(np.eye(w.shape[0], dtype=np.complex128))
        else:
            out.append((q * np.exp(1j * scale * w)) @ qh)
    return out


def unitary_exponential(a, scale: float) -> np.ndarray:
    """exp(i * scale * A) for Hermitian A, via eigendecomposition."""
    return unitary_exponentials(a, (scale,))[0]


class Pairing(NamedTuple):
    """trace(L N*) split into Hermitian, Riemannian and symplectic parts."""

    hermitian: complex
    riemannian: float
    symplectic: float


def pairing(l, n) -> Pairing:
    """<L|N> = trace(L N*) together with Re and Im parts.

    Real and imaginary parts are reduced separately (no fused complex
    multiply), so swapping the arguments conjugates every term exactly:
    w(L,N) = -w(N,L) as floating-point negation of the same reduction
    order, and w(L,L) = 0.0 exactly.
    """
    a = as_matrix(l)
    b = as_matrix(n)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    riemannian = float(np.sum(a.real * b.real + a.imag * b.imag))
    symplectic = float(np.sum(a.imag * b.real - a.real * b.imag))
    return Pairing(hermitian=complex(riemannian, symplectic),
                   riemannian=riemannian, symplectic=symplectic)


def singular_extent(k) -> tuple[float, float]:
    """Smallest and largest singular values."""
    s = np.linalg.svd(as_matrix(k), compute_uv=False)
    return float(s[-1]), float(s[0])


def _checked_svd(a: np.ndarray, floor, compute_uv: bool):
    """np.linalg.svd of a square array or (..., n, n) stack, full rank or raise.

    The one "SVD, floor test, raise" sequence behind every inverse and
    polar split.  Raises NonFiniteError for a NaN or Inf entry (LAPACK's
    SVD can loop forever on Inf) and for an SVD that does not converge, and
    NearSingularError when ``below_floor(s[-1], s[0], floor)`` for any
    member; ``floor`` is one value or one per member.  Returns what
    ``np.linalg.svd`` does: (U, s, V*), or s alone without ``compute_uv``.
    """
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    try:
        out = np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteError(f"singular value decomposition failed: {exc}") from exc
    s = out[1] if compute_uv else out
    lo, hi = s[..., -1], s[..., 0]
    bad = below_floor(lo, hi, floor)
    if bad.any():
        # Report the first member under its floor.
        j = np.flatnonzero(bad)[0]
        lo, hi, floor = (np.ravel(np.broadcast_to(x, bad.shape))[j] for x in (lo, hi, floor))
        raise NearSingularError(
            f"singular value ratio {lo:.3e}/{hi:.3e} crosses the floor {floor:.1e}"
        )
    return out


def full_rank_svd(a: np.ndarray, floor):
    """(U, s, V*) with a = U diag(s) V*, for a square array or stack.

    The polar split's SVD, checked as ``_checked_svd`` describes.
    """
    return _checked_svd(a, floor, compute_uv=True)


def adjoint_inverse(k, floor=DEFAULT_PD_FLOOR) -> np.ndarray:
    """(K*)^-1 of a square full-rank K, or of each member of a (..., n, n) stack.

    The one checked (K*)^-1.  LAPACK's LU inverse with partial pivoting,
    the gufunc behind ``np.linalg.inv`` called without its wrapper, inverts
    K* with the same bits.  The floor stays defined on singular values, as
    ``_checked_svd`` tests it, but the Frobenius norms of K and
    X = (K*)^-1 over the whole stack certify a pass without an SVD when
    ``floor * ||K||_F ||X||_F`` is at most ``INVERSE_SCREEN_MARGIN`` and
    ``n eps ||K||_F ||X||_F`` at most ``INVERSE_LU_GUARD`` (derivation
    beside the constants).  Every other case runs the values-only SVD,
    which decides it: its NearSingularError or NonFiniteError is raised,
    and a non-finite X where the SVD passed (an LU that met an exactly zero
    pivot, which leaves NaN) raises NearSingularError.  No case warns.
    ``floor`` is one value or one per member; a float is read as is, so a
    caller that inverts many stacks passes a uniform floor as a float and
    the screen takes no maximum.  Each member of a stack is its own LAPACK
    call, so a stack gives the same bits as one member at a time.
    """
    a = np.asarray(k, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquareError(f"expected a square matrix or a stack of them, "
                             f"got shape {a.shape}")
    # a zero pivot fills X with NaN and raises the invalid flag; the other
    # two are those np.linalg.inv silences, and a successful LU clears all
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        x = _lu_inverse(a.conj().swapaxes(-1, -2), signature="D->D")
    # Python floats: an overflow gives inf or nan, never a warning.
    c = math.sqrt(float(np.vdot(a, a).real) * float(np.vdot(x, x).real))
    top = floor if isinstance(floor, float) else float(np.max(floor))
    if c * top <= INVERSE_SCREEN_MARGIN and c * a.shape[-1] * _EPS <= INVERSE_LU_GUARD:
        return x
    _checked_svd(a, floor, compute_uv=False)
    if not np.isfinite(x).all():
        # Only an exactly zero pivot fails here, possible under a tiny floor.
        raise NearSingularError("K* is singular to working precision")
    return x


def adjoint_pseudo_inverse(k, floor: float = DEFAULT_PD_FLOOR):
    """Zero-extended inverse of K* for a rectangular rank-r operator.

    Singular values at or below ``floor`` times the largest are treated as
    exact zeros.  Returns ((K*)^+, rank).
    """
    a = as_matrix(k)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], a.shape[1]), dtype=np.complex128), 0
    keep = ~below_floor(s, s[0], floor)
    rank = int(np.count_nonzero(keep))
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (u * inv) @ vh, rank


def matrix_to_json(m) -> dict:
    """Row-major JSON literal: {"rows", "cols", "re", "im"}."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def matrix_json_text(m) -> str:
    """``json.dumps(matrix_to_json(m), sort_keys=True, separators=(",", ":"))``.

    The entries go through ``format_cells``, whose cells are the same
    repr text that json writes for a finite float.
    """
    a = as_matrix(m)
    return (f'{{"cols":{a.shape[1]},"im":[{format_cells(a.imag.ravel())}],'
            f'"re":[{format_cells(a.real.ravel())}],"rows":{a.shape[0]}}}')


# Entries per orjson call.  The bytes and str copies of one call live at
# once: a call per trajectory, or per dim-128 row, raised peak RSS by up
# to 10%, while 2048 entries keep each copy near 50 kB.
CELL_CHUNK = 2048


def format_cells(values: np.ndarray) -> str:
    """``",".join(map(repr, values.tolist()))`` for a 1-D float64 array.

    orjson writes the same shortest round-trip digits as repr, 7x to 17x
    faster on rows of 8192 to 512 entries.  The two differ only where repr switches to exponent form
    (0 < |x| < 1e-4 or |x| >= 1e16: "1e-05" against "1e-5") and for NaN and
    Inf, which orjson writes as null.  Those cells are re-written by repr,
    and only a chunk that holds one is split into cells.
    """
    import orjson  # loaded on first use: it adds about 4 ms to ``import mesodyn``

    values = np.ascontiguousarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    repr_only = ~((magnitude == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16)))
    parts = []
    for start in range(0, values.size, CELL_CHUNK):
        chunk = values[start:start + CELL_CHUNK]
        text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        odd = np.flatnonzero(repr_only[start:start + CELL_CHUNK])
        if odd.size:
            cells = text.split(",")
            for i in odd.tolist():
                cells[i] = repr(float(chunk[i]))
            text = ",".join(cells)
        parts.append(text)
    return ",".join(parts)


def matrix_from_json(obj) -> np.ndarray:
    """Parse the row-major JSON literal produced by matrix_to_json.

    Raises ValueError for every malformed literal.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix literal must be an object")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise ValueError(f"matrix literal is missing fields {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValueError(f"matrix literal sizes must be non-negative integers, "
                         f"got rows={rows!r}, cols={cols!r}")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"matrix literal entries must be numbers: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"matrix literal has {re.size} re / {im.size} im entries, "
            f"expected {rows * cols}"
        )
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix literal entries must be finite")
    return as_matrix((re + 1j * im).reshape(rows, cols))
