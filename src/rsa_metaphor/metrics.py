"""Distribution-comparison metrics: Pearson r, Jensen-Shannon divergence, k-agreement.

Each metric has one implementation, a row-wise form that compares the rows
of two (R, n) arrays along the last axis: :func:`pearson_rows`,
:func:`jsd_rows`, :func:`top_k_rows` and :func:`top_k_overlap` (the count
of indices that two top-k index arrays share).  The scalar functions
:func:`pearson`, :func:`jsd`, :func:`top_k_indices` and :func:`k_agreement`
are their one-row case: they pass a 1-D vector, which the row-wise forms
treat as a single row.  Pearson r has one computation, :func:`_pearson`, which
also scores the fit's objective and its derivative; the feature correlation
matrix shares its centring and undefined rule, :func:`_centred`.
JSD has one, :func:`_jsd`, unchecked: ``evaluate`` checks its rows once for
both its JSDs.  Ranking takes k rounds of ``argmax`` over int64 keys in the
floats' order, each marking the entries it picked below every key (:func:`_top_k`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroVarianceError

_SUM_TOL = 1e-6
_TINY = np.finfo(float).tiny
_PICKED = np.iinfo(np.int64).min  # below the key of every float, -inf's too


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
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


def _centred(x: np.ndarray, axis: int = -1):
    """``x`` centred along ``axis``, its sums of squares there, and where it has no Pearson r:
    constant (range 0; centring can leave rounding residue) or squares summing to 0."""
    centred = x - x.mean(axis=axis, keepdims=True)
    squares = np.sum(centred * centred, axis=axis)
    return centred, squares, (np.ptp(x, axis=axis) == 0.0) | (squares == 0.0)


def _pearson(a: np.ndarray, b: np.ndarray, dp: np.ndarray | None = None):
    """Pearson r of each row of ``a`` with the same row of ``b``, which broadcasts.

    C-order rows are reduced by ``np.sum`` as contiguous runs.  Returns ``(r, dr,
    undefined)``: r clipped to [-1, 1] (NaN for a NaN entry), its derivative along
    ``dp``, a direction for ``a`` of ``a``'s shape (None without one), and per row
    whether either row is undefined by :func:`_centred`'s rule.
    """
    a, saa, undefined_a = _centred(a)
    b, sbb, undefined_b = _centred(b)
    undefined = undefined_a | undefined_b
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined rows are flagged, not used
        product = saa * sbb  # where it underflows, take the product of the roots
        denom = np.where(product < _TINY, np.sqrt(saa) * np.sqrt(sbb), np.sqrt(product))
        r = np.clip(np.sum(a * b, axis=-1) / denom, -1.0, 1.0)
        dr = None
        if dp is not None:  # ((b / denom) . dp) - (r / saa) (a . dp), in a's own copy
            along_a = np.sum(np.multiply(a, dp, out=a), axis=-1)
            along_b = np.multiply(np.divide(b, denom[..., None], out=a), dp, out=a)
            dr = np.sum(along_b, axis=-1) - r / saa * along_a
    return r, dr, undefined


def pearson_rows(p, q) -> np.ndarray:
    """Sample Pearson correlation of each row of ``p`` with the same row of ``q``.

    Raises :class:`ZeroVarianceError` when :func:`_pearson` flags any row undefined.
    """
    a = _as_rows(p)
    b = _as_rows(q)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] < 2:
        raise ValueError("pearson needs at least 2 entries")
    r, _, undefined = _pearson(a, b)
    if np.any(undefined):
        raise ZeroVarianceError("constant vector has no defined correlation")
    return r


def pearson(p, q) -> float:
    """Sample Pearson correlation between two equal-length vectors.

    Raises :class:`ZeroVarianceError` when either vector is constant.
    """
    return float(pearson_rows(_as_vector(p), _as_vector(q)))


def _check_base(base: float) -> None:
    if not (math.isfinite(base) and base > 1):
        raise ValueError(f"log base must be finite and > 1, got {base!r}")


def jsd_rows(p, q, base: float = 2.0) -> np.ndarray:
    """Jensen-Shannon divergence between each row of ``p`` and the same row of ``q``.

    JSD(p, q) = KL(p||m)/2 + KL(q||m)/2 with m = (p+q)/2 and 0*log 0 := 0.
    With base-2 logarithms the value lies in [0, 1].  Every row must be a
    distribution; the error names the first row's sum that is not 1.  The
    log ``base`` must be finite and > 1.
    """
    _check_base(base)
    a = _as_rows(p)
    _check_distribution(a, "p")
    b = _as_rows(q)
    _check_distribution(b, "q")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return _jsd(a, b, base)


def _jsd(a: np.ndarray, b: np.ndarray, base: float) -> np.ndarray:
    """:func:`jsd_rows` of two C-order arrays of distribution rows of one shape, unchecked."""
    value = 0.5 * (_kl_terms(a, b).sum(axis=-1) + _kl_terms(b, a).sum(axis=-1)) / math.log(base)
    return np.maximum(value, 0.0)


def jsd(p, q, base: float = 2.0) -> float:
    """Jensen-Shannon divergence between two distributions (see :func:`jsd_rows`)."""
    return float(jsd_rows(_as_vector(p), _as_vector(q), base))


def _kl_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Terms x_i log(x_i / m_i) with m = (x+y)/2, and 0 log 0 := 0.

    The ratio is formed as 2x / (x+y): the same correctly rounded quotient
    as x / m, but finite when x is subnormal and (x+y)/2 underflows to 0.
    It is 1 where x is 0, and each step writes into it: two temporaries of
    x's size at most.
    """
    positive = x > 0
    ratio = np.multiply(x, 2.0, out=np.ones_like(x), where=positive)
    np.divide(ratio, x + y, out=ratio, where=positive)
    np.log(ratio, out=ratio)
    return np.multiply(x, ratio, out=ratio)


def _top_k(arr: np.ndarray, k: int) -> np.ndarray:
    """Each row's k largest entries of C-order ``arr``, descending: their indices, then keys.

    A key is an entry's bits as int64, a negative entry's low 63 bits flipped, which orders
    keys as the floats (``+ 0.0`` makes -0.0 tie with 0.0); ``argmax`` breaks ties by index.
    """
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if np.isnan(arr).any():
        raise ValueError("cannot rank a NaN entry")
    keys = (arr + 0.0).view(np.int64).reshape(-1, n)
    keys ^= (keys >> 63) & np.iinfo(np.int64).max
    flat, starts = keys.reshape(-1), np.arange(0, keys.size, n)
    picks = np.empty((2, len(keys), k), dtype=np.int64)
    for j in range(k):
        at = keys.argmax(axis=-1) + starts
        picks[:, :, j] = at - starts, flat[at]
        flat[at] = _PICKED
    return picks.reshape(2, *arr.shape[:-1], k)


def top_k_rows(p, k: int) -> np.ndarray:
    """Indices of each row's k largest entries, descending; ties broken by ascending index.

    The same as ``np.argsort(-p, kind="stable")[..., :k]`` in O(k n) per row, not a
    sort's O(n log n): the CLI's 59-feature listing takes about 0.15 ms.  NaN raises.
    """
    return _top_k(_as_rows(p), k)[0]


def top_k_indices(p, k: int) -> np.ndarray:
    """Indices of the k most probable entries, descending; ties broken by ascending index."""
    return top_k_rows(_as_vector(p), k)


def top_k_overlap(top_p: np.ndarray, top_q: np.ndarray) -> np.ndarray:
    """Per row, how many indices two rows of :func:`top_k_rows` output share."""
    # indices are distinct within a row, so each shared index matches once
    return np.count_nonzero(top_p[..., :, None] == top_q[..., None, :], axis=(-2, -1))


def k_agreement(p, q, k: int) -> int:
    """Number of features the two distributions share among their k most probable."""
    return int(top_k_overlap(top_k_indices(p, k), top_k_indices(q, k)))
