"""Fitting the speaker rationality parameter by gradient ascent.

The objective is the mean, over training metaphors, of the Pearson
correlation between the model's interpretation and the human one (or one
pooled correlation over all metaphor x feature pairs with
``objective_kind="pooled"``).  It is maximized by gradient ascent with an
Armijo backtracking line search.  The line search needs only objective
values, so its trial points run the listener forward only; the analytic
gradient is computed at accepted points.

Everything here is deterministic: the only randomness is the split seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# interpret_with_gradient is not called here; bench/spans.py wraps learn.interpret_with_gradient
from .engine import RsaConfig, _interpret_batch, interpret_with_gradient  # noqa: F401
from .errors import DatasetError, Error, ZeroVarianceError
from .lexicon import HumanResponseTable, MetaphorItem, TypicalityTable

_OBJECTIVE_KINDS = ("mean", "pooled")

TRAIN_PER_CLASS = 9
TEST_PER_CLASS = 3

DEFAULT_MULTISTART_INITS = (0.5, 1.0, 5.0, 20.0, 50.0)


@dataclass(frozen=True)
class TrainTestSplit:
    """Stratified 18/6 partition of the 24 metaphors, 9+9 train per class."""

    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class FitResult:
    """Outcome of one optimization run.

    ``converged`` is True when the gradient-norm tolerance was met;
    ``stop_reason`` is one of ``gradient_tolerance``, ``max_iterations``,
    ``line_search_stalled``.  ``trace`` holds (iteration, lam, objective)
    for the start point and every accepted iterate.
    """

    lambda_hat: float
    objective_value: float
    iterations: int
    gradient_norm_at_convergence: float
    converged: bool
    stop_reason: str
    trace: tuple[tuple[int, float, float], ...]


def make_split(items: tuple[MetaphorItem, ...], seed: int) -> TrainTestSplit:
    """Deterministic stratified shuffle: 9 train + 3 test per class."""
    per_class = TRAIN_PER_CLASS + TEST_PER_CLASS
    by_class: dict[str, list[str]] = {}
    for item in items:
        by_class.setdefault(item.inherence, []).append(item.id)
    classes = sorted(by_class)
    if len(items) != 2 * per_class or any(
        len(ids) != per_class for ids in by_class.values()
    ) or len(classes) != 2:
        counts = {k: len(v) for k, v in by_class.items()}
        raise DatasetError(
            f"split needs {2 * per_class} items, {per_class} per class; got {counts}"
        )
    rng = np.random.default_rng(seed)
    train: list[str] = []
    test: list[str] = []
    for klass in classes:
        order = rng.permutation(per_class)
        ids = by_class[klass]
        train.extend(ids[i] for i in order[:TRAIN_PER_CLASS])
        test.extend(ids[i] for i in order[TRAIN_PER_CLASS:])
    return TrainTestSplit(tuple(train), tuple(test), seed)


def _pearson_rows(m: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r of each row pair of ``m`` and ``h``, and its gradient in ``m``."""
    a = m - m.mean(axis=1, keepdims=True)
    b = h - h.mean(axis=1, keepdims=True)
    saa = np.sum(a * a, axis=1)
    sbb = np.sum(b * b, axis=1)
    if np.any(saa == 0.0) or np.any(sbb == 0.0):
        raise ZeroVarianceError("constant vector in the training objective")
    denom = np.sqrt(saa * sbb)
    r = np.sum(a * b, axis=1) / denom
    grad = b / denom[:, None] - (r / saa)[:, None] * a
    return r, grad


def objective(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
) -> float:
    """Correlation between model and human interpretations on the train set."""
    value, _ = _objective_and_gradient(lam, train, human, config, table, kind, gradient=False)
    return value


def gradient(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
) -> float:
    """Analytic d(objective)/d(lam), chained through softmax and normalizations."""
    _, g = _objective_and_gradient(lam, train, human, config, table, kind)
    return g


def _objective_and_gradient(lam, train, human, config, table, kind, gradient=True):
    """The objective at ``lam`` and, if ``gradient``, its derivative (else None).

    One kernel call covers the whole training set.  ``mean`` correlates each
    item's row with its human row; ``pooled`` correlates the flattened rows.
    """
    if kind not in _OBJECTIVE_KINDS:
        raise ValueError(f"objective kind must be one of {_OBJECTIVE_KINDS}, got {kind!r}")
    if not train:
        raise ValueError("empty training set")
    logp, dp = _interpret_batch(train, replace(config, lam=float(lam)), table, gradient)
    model = np.exp(logp)
    target = np.stack([human.distribution(item.id) for item in train])
    if kind == "pooled":
        model, target = model.reshape(1, -1), target.reshape(1, -1)
    r, grad_m = _pearson_rows(model, target)
    value = float(np.mean(r))
    if not math.isfinite(value):
        raise Error(f"objective is not finite at lam={lam!r}")
    if not gradient:
        return value, None
    return value, float(np.mean(np.sum(grad_m * dp.reshape(grad_m.shape), axis=1)))


def finite_difference_gradient(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
    step: float | None = None,
) -> float:
    """Central-difference cross-check for :func:`gradient`."""
    h = step if step is not None else 1e-4 * max(1.0, abs(lam))
    hi = objective(lam + h, train, human, config, table, kind)
    lo = objective(lam - h, train, human, config, table, kind)
    return (hi - lo) / (2.0 * h)


def _gradient_ascent(f, grad, x0: np.ndarray, max_iterations: int, tol: float):
    """Gradient ascent with an Armijo backtracking line search.

    Each search starts from twice the previously accepted step.  Non-finite
    objective values during the line search reject the step and halve it.
    Returns (x, fx, iterations, grad_norm, stop_reason, trace).
    """
    armijo_slope = 1e-4
    shrink = 0.5
    max_halvings = 60

    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    if not np.isfinite(fx):
        raise Error(f"objective is not finite at the initial point {x.tolist()}")
    g = grad(x)
    trace = [(0, x.copy(), fx)]
    gnorm = float(np.linalg.norm(g))
    if gnorm <= tol:
        return x, fx, 0, gnorm, "gradient_tolerance", trace

    step = 1.0
    stop_reason = "max_iterations"
    iterations = 0
    for k in range(1, max_iterations + 1):
        slope = float(g @ g)
        alpha = step
        accepted = False
        for _ in range(max_halvings):
            x_new = x + alpha * g
            try:
                f_new = f(x_new)
            except Error:  # undefined trial point: treat like a non-finite value
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= fx + armijo_slope * alpha * slope:
                accepted = True
                break
            alpha *= shrink
        if not accepted:
            stop_reason = "line_search_stalled"
            break
        iterations = k
        x, fx = x_new, f_new
        g = grad(x)
        trace.append((k, x.copy(), fx))
        if float(np.linalg.norm(g)) <= tol:
            stop_reason = "gradient_tolerance"
            break
        step = alpha * 2.0  # warm-start the next search from twice the accepted step

    gnorm = float(np.linalg.norm(g))
    return x, fx, iterations, gnorm, stop_reason, trace


def learn_lambda(
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    init: float = 1.0,
    max_iterations: int = 200,
    tol: float = 1e-6,
    kind: str = "mean",
) -> FitResult:
    """Fit the rationality parameter from ``init`` by line-searched gradient ascent."""
    if not math.isfinite(init):
        raise ValueError(f"init must be finite, got {init!r}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    def f(x: np.ndarray) -> float:
        value, _ = _objective_and_gradient(
            x[0], train, human, config, table, kind, gradient=False
        )
        return value

    def g(x: np.ndarray) -> np.ndarray:
        _, deriv = _objective_and_gradient(x[0], train, human, config, table, kind)
        return np.array([deriv])

    x, fx, iterations, gnorm, stop_reason, raw_trace = _gradient_ascent(
        f, g, np.array([float(init)]), max_iterations, tol
    )
    trace = tuple((k, float(xk[0]), float(fk)) for k, xk, fk in raw_trace)
    return FitResult(
        lambda_hat=float(x[0]),
        objective_value=float(fx),
        iterations=iterations,
        gradient_norm_at_convergence=gnorm,
        converged=stop_reason == "gradient_tolerance",
        stop_reason=stop_reason,
        trace=trace,
    )


def learn_lambda_multistart(
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    inits: tuple[float, ...] = DEFAULT_MULTISTART_INITS,
    max_iterations: int = 200,
    tol: float = 1e-6,
    kind: str = "mean",
) -> FitResult:
    """Run :func:`learn_lambda` from several starts and keep the best fit.

    The objective is not provably concave in the rationality parameter, so a
    handful of starts guards against shallow local maxima.
    """
    if not inits:
        raise ValueError("need at least one initial point")
    best: FitResult | None = None
    for init in inits:
        result = learn_lambda(
            train, human, config, table,
            init=init, max_iterations=max_iterations, tol=tol, kind=kind,
        )
        if best is None or result.objective_value > best.objective_value:
            best = result
    return best
