"""Distribution-comparison metrics: Pearson r, Jensen-Shannon divergence, k-agreement."""

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


def _as_distribution(x, name: str) -> np.ndarray:
    arr = _as_vector(x)
    if np.any(arr < 0) or not np.isfinite(arr).all():
        raise ValueError(f"{name} is not a distribution: negative or non-finite entries")
    if abs(arr.sum() - 1.0) > _SUM_TOL:
        raise ValueError(f"{name} is not a distribution: sums to {arr.sum():.9g}")
    return arr


def pearson(p, q) -> float:
    """Sample Pearson correlation between two equal-length vectors.

    Raises :class:`ZeroVarianceError` when either vector is constant.
    """
    a = _as_vector(p)
    b = _as_vector(q)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("pearson needs at least 2 entries")
    a = a - a.mean()
    b = b - b.mean()
    saa = float(a @ a)
    sbb = float(b @ b)
    if saa == 0.0 or sbb == 0.0:
        raise ZeroVarianceError("constant vector has no defined correlation")
    r = float(a @ b) / math.sqrt(saa * sbb)
    return min(1.0, max(-1.0, r))


def jsd(p, q, base: float = 2.0) -> float:
    """Jensen-Shannon divergence between two distributions.

    JSD(p, q) = KL(p||m)/2 + KL(q||m)/2 with m = (p+q)/2 and 0*log 0 := 0.
    With base-2 logarithms the value lies in [0, 1].
    """
    a = _as_distribution(p, "p")
    b = _as_distribution(q, "q")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    m = 0.5 * (a + b)
    value = 0.5 * (_kl_terms(a, m).sum() + _kl_terms(b, m).sum()) / math.log(base)
    return max(0.0, float(value))


def _kl_terms(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Terms x_i log(x_i / m_i), with 0 log 0 := 0; x_i > 0 implies m_i > 0."""
    ratio = np.divide(x, m, out=np.ones_like(x), where=x > 0)
    return x * np.log(ratio)


def top_k_indices(p, k: int) -> np.ndarray:
    """Indices of the k most probable entries, descending; ties broken by ascending index."""
    arr = _as_vector(p)
    if not 1 <= k <= arr.size:
        raise ValueError(f"k must be in [1, {arr.size}], got {k}")
    # lexsort is stable: primary key -p, secondary key the index itself
    order = np.lexsort((np.arange(arr.size), -arr))
    return order[:k]


def k_agreement(p, q, k: int) -> int:
    """Number of features the two distributions share among their k most probable."""
    top_p = set(top_k_indices(p, k).tolist())
    top_q = set(top_k_indices(q, k).tolist())
    return len(top_p & top_q)
