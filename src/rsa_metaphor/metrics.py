"""Distribution-comparison metrics: Pearson r, Jensen-Shannon divergence, k-agreement.

Each metric has one implementation, a row-wise form that compares the rows
of two (R, n) arrays along the last axis: :func:`pearson_rows`,
:func:`jsd_rows`, :func:`top_k_rows` and :func:`k_agreement_rows` (the
count that :func:`top_k_overlap` takes from two top-k index arrays).  The
scalar functions :func:`pearson`, :func:`jsd`, :func:`top_k_indices` and
:func:`k_agreement` are their one-row case: they pass a 1-D vector, which
the row-wise forms treat as a single row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroVarianceError

_SUM_TOL = 1e-6


def _as_vector(x) -> np.ndarray:
    probs = getattr(x, "p", None)
    arr = np.asarray(probs if probs is not None else x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def _as_rows(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        raise ValueError("expected a vector or an (R, n) array of rows, got a scalar")
    # C order: each row is reduced as one contiguous run, with the bits of a 1-D vector
    return np.ascontiguousarray(arr)


def _check_distribution(arr: np.ndarray, name: str) -> None:
    """Raise for the first row of ``arr`` that is not a probability distribution."""
    if np.any(arr < 0) or not np.isfinite(arr).all():
        raise ValueError(f"{name} is not a distribution: negative or non-finite entries")
    sums = arr.sum(axis=-1)
    off = np.abs(sums - 1.0) > _SUM_TOL
    if np.any(off):
        raise ValueError(f"{name} is not a distribution: sums to {sums[off][0]:.9g}")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a batched (1, n) @ (n, 1) matmul is one BLAS dot per row: the bits of 1-D a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def pearson_rows(p, q) -> np.ndarray:
    """Sample Pearson correlation of each row of ``p`` with the same row of ``q``.

    Raises :class:`ZeroVarianceError` when any row of either array is constant.
    """
    a = _as_rows(p)
    b = _as_rows(q)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] < 2:
        raise ValueError("pearson needs at least 2 entries")
    a = a - a.mean(axis=-1, keepdims=True)
    b = b - b.mean(axis=-1, keepdims=True)
    saa = _row_dot(a, a)
    sbb = _row_dot(b, b)
    if np.any(saa == 0.0) or np.any(sbb == 0.0):
        raise ZeroVarianceError("constant vector has no defined correlation")
    return np.clip(_row_dot(a, b) / np.sqrt(saa * sbb), -1.0, 1.0)


def pearson(p, q) -> float:
    """Sample Pearson correlation between two equal-length vectors.

    Raises :class:`ZeroVarianceError` when either vector is constant.
    """
    return float(pearson_rows(_as_vector(p), _as_vector(q)))


def jsd_rows(p, q, base: float = 2.0) -> np.ndarray:
    """Jensen-Shannon divergence between each row of ``p`` and the same row of ``q``.

    JSD(p, q) = KL(p||m)/2 + KL(q||m)/2 with m = (p+q)/2 and 0*log 0 := 0.
    With base-2 logarithms the value lies in [0, 1].  Every row must be a
    distribution; the error names the first row's sum that is not 1.
    """
    a = _as_rows(p)
    _check_distribution(a, "p")
    b = _as_rows(q)
    _check_distribution(b, "q")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    value = 0.5 * (_kl_terms(a, b).sum(axis=-1) + _kl_terms(b, a).sum(axis=-1)) / math.log(base)
    return np.maximum(value, 0.0)


def jsd(p, q, base: float = 2.0) -> float:
    """Jensen-Shannon divergence between two distributions (see :func:`jsd_rows`)."""
    return float(jsd_rows(_as_vector(p), _as_vector(q), base))


def _kl_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Terms x_i log(x_i / m_i) with m = (x+y)/2, and 0 log 0 := 0.

    The ratio is formed as 2x / (x+y): the same correctly rounded quotient
    as x / m, but finite when x is subnormal and (x+y)/2 underflows to 0.
    """
    ratio = np.divide(2.0 * x, x + y, out=np.ones_like(x), where=x > 0)
    return x * np.log(ratio)


def top_k_rows(p, k: int) -> np.ndarray:
    """Indices of each row's k largest entries, descending; ties broken by ascending index."""
    arr = _as_rows(p)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # a stable sort keeps tied entries in index order
    return np.argsort(-arr, axis=-1, kind="stable")[..., :k]


def top_k_indices(p, k: int) -> np.ndarray:
    """Indices of the k most probable entries, descending; ties broken by ascending index."""
    return top_k_rows(_as_vector(p), k)


def top_k_overlap(top_p: np.ndarray, top_q: np.ndarray) -> np.ndarray:
    """Per row, how many indices two rows of :func:`top_k_rows` output share."""
    # indices are distinct within a row, so each shared index matches once
    return np.count_nonzero(top_p[..., :, None] == top_q[..., None, :], axis=(-2, -1))


def k_agreement_rows(p, q, k: int) -> np.ndarray:
    """Per row pair, how many indices the two rows share among their k largest entries."""
    return top_k_overlap(top_k_rows(p, k), top_k_rows(q, k))


def k_agreement(p, q, k: int) -> int:
    """Number of features the two distributions share among their k most probable."""
    return int(k_agreement_rows(_as_vector(p), _as_vector(q), k))
