"""Fitting the speaker rationality parameter by gradient ascent.

The objective is the mean, over training metaphors, of the Pearson
correlation between the model's interpretation and the human one (or one
pooled correlation over all metaphor x feature pairs with
``objective_kind="pooled"``).  It is maximized on ``lambda >= 0`` by
projected gradient ascent (a trial point below 0 is projected onto 0) with
an Armijo backtracking line search.  The objective takes a vector of lams:
one kernel call and one pass of the Pearson r that ``evaluate`` reports
cover them all, with the same bits per lam as a call of its own.  A
multistart fit advances its starts in lockstep, so each round scores the
next trial point of every unfinished start, value and analytic gradient,
in one kernel call; an accepted point holds the gradient for the next
step.  The grid ablation scores its grid in chunks the same way.

Everything here is deterministic: the only randomness is the split seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

# interpret_with_gradient is not called here; bench/spans.py wraps learn.interpret_with_gradient
from .engine import RsaConfig, _interpret_lams, interpret_with_gradient  # noqa: F401
from .errors import DatasetError, Error, ZeroVarianceError
from .lexicon import HumanResponseTable, MetaphorItem, TypicalityTable
from .metrics import _pearson

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
    for the start point and every accepted iterate.  ``starts`` holds every
    start's own fit for a multistart fit, and is empty otherwise.
    """

    lambda_hat: float
    objective_value: float
    iterations: int
    gradient_norm_at_convergence: float
    converged: bool
    stop_reason: str
    trace: tuple[tuple[int, float, float], ...]
    starts: tuple[FitResult, ...] = ()


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


def objective(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
) -> float:
    """Correlation between model and human interpretations on the train set."""
    values, _ = _objective_and_gradient((lam,), train, human, config, table, kind, gradient=False)
    return float(values[0])


def gradient(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
) -> float:
    """Analytic d(objective)/d(lam), chained through softmax and normalizations."""
    _, grads = _objective_and_gradient((lam,), train, human, config, table, kind)
    return float(grads[0])


def _objective_and_gradient(lams, train, human, config, table, kind, gradient=True):
    """The objective at every lam of the 1-D ``lams`` and, if ``gradient``, its derivative.

    Returns two (L,) arrays (the second None without ``gradient``).  One
    kernel call covers every lam and the whole training set, and one pass of
    :func:`.metrics._pearson`, the r that ``evaluate`` reports, covers all
    their rows.  ``mean`` correlates each item's row with its human row;
    ``pooled`` correlates the flattened rows.  If the objective is undefined
    at some lam, the error names the first such lam.
    """
    if kind not in _OBJECTIVE_KINDS:
        raise ValueError(f"objective kind must be one of {_OBJECTIVE_KINDS}, got {kind!r}")
    if not train:
        raise ValueError("empty training set")
    lams = np.asarray(lams, dtype=float)
    logp, dp = _interpret_lams(train, config, table, lams, gradient)
    model = np.exp(logp)
    target = np.stack([human.distribution(item.id) for item in train])
    if kind == "pooled":
        model, target = model.reshape(lams.size, 1, -1), target.reshape(1, -1)
    r, grad_m, undefined = _pearson(model, target, gradient)
    values = np.mean(r, axis=-1)
    failed = np.any(undefined, axis=-1) | ~np.isfinite(values)
    if np.any(failed):
        first = int(np.argmax(failed))
        lam = float(lams[first])
        if np.any(undefined[first]):
            raise ZeroVarianceError(f"constant vector in the training objective at lam={lam!r}")
        raise Error(f"objective is not finite at lam={lam!r}")
    if not gradient:
        return values, None
    return values, np.mean(np.sum(grad_m * dp.reshape(grad_m.shape), axis=-1), axis=-1)


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


def _ascent(x0: float, max_iterations: int, tol: float):
    """Projected gradient ascent on ``x >= 0`` with an Armijo backtracking line search.

    A generator: it yields each point to score and is sent back the
    objective and its derivative there, or thrown the :class:`Error` that
    scoring raised.  Each search starts from twice the previously accepted
    step; a trial point below 0 is projected onto 0, and the Armijo test
    takes the projected step.  An undefined or non-finite trial point
    rejects the step and halves it; at the start point it propagates.
    Returns (x, fx, iterations, |projected gradient|, stop_reason, trace).
    """
    armijo_slope = 1e-4
    shrink = 0.5
    max_halvings = 60

    def gradient_norm(x, g):  # of the projected gradient: at 0 only an ascent counts
        return max(g, 0.0) if x == 0.0 else abs(g)

    x = float(x0)
    fx, g = yield x
    if not np.isfinite(fx):
        raise Error(f"objective is not finite at the initial point {x!r}")
    trace = [(0, x, fx)]
    if gradient_norm(x, g) <= tol:
        return x, fx, 0, gradient_norm(x, g), "gradient_tolerance", trace

    step = 1.0
    stop_reason = "max_iterations"
    iterations = 0
    for k in range(1, max_iterations + 1):
        alpha = step
        accepted = False
        for _ in range(max_halvings):
            x_new = max(x + alpha * g, 0.0)
            try:
                f_new, g_new = yield x_new
            except Error:  # undefined trial point: treat like a non-finite value
                f_new = -np.inf
            if np.isfinite(f_new) and f_new >= fx + armijo_slope * g * (x_new - x):
                accepted = True
                break
            alpha *= shrink
        if not accepted:
            stop_reason = "line_search_stalled"
            break
        iterations = k
        x, fx, g = x_new, f_new, g_new
        trace.append((k, x, fx))
        if gradient_norm(x, g) <= tol:
            stop_reason = "gradient_tolerance"
            break
        step = alpha * 2.0  # warm-start the next search from twice the accepted step

    return x, fx, iterations, gradient_norm(x, g), stop_reason, trace


def _lockstep(fg, searches):
    """Run :func:`_ascent` searches side by side; returns their results in order.

    Each round scores the next point of every unfinished search with one
    ``fg(xs)`` call, which returns an (objective, derivative) pair per point.
    If the round's call raises :class:`Error`, its points are scored one at a
    time, so an undefined point fails only its own search.
    """

    def alone(x):
        try:
            return fg([x])[0]
        except Error as error:
            return error

    results = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        xs = list(pending.values())
        try:
            replies = fg(xs)
        except Error as error:
            replies = [error] if len(xs) == 1 else [alone(x) for x in xs]
        for i, reply in zip(list(pending), replies):
            resume = searches[i].throw if isinstance(reply, Error) else searches[i].send
            try:
                pending[i] = resume(reply)
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return results


def _gradient_ascent(fg, x0: float, max_iterations: int, tol: float):
    """One :func:`_ascent` search from ``x0``, with ``fg(x)`` scoring one point."""
    return _lockstep(lambda xs: [fg(x) for x in xs], [_ascent(x0, max_iterations, tol)])[0]


def _fit(train, human, config, table, inits, max_iterations, tol, kind) -> list[FitResult]:
    """One search per init, run in lockstep; every argument is checked before any scoring."""
    if not inits:
        raise ValueError("need at least one initial point")
    for init in inits:
        if not (math.isfinite(init) and init >= 0.0):
            raise ValueError(f"init must be finite and >= 0, got {init!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not (isinstance(max_iterations, numbers.Integral) and max_iterations >= 0):
        raise ValueError(f"max_iterations must be an integer >= 0, got {max_iterations!r}")

    def fg(xs):
        values, grads = _objective_and_gradient(xs, train, human, config, table, kind)
        return list(zip(values.tolist(), grads.tolist()))

    searches = [_ascent(init, max_iterations, tol) for init in inits]
    return [
        FitResult(
            lambda_hat=x,
            objective_value=fx,
            iterations=iterations,
            gradient_norm_at_convergence=gnorm,
            converged=stop_reason == "gradient_tolerance",
            stop_reason=stop_reason,
            trace=tuple(trace),
        )
        for x, fx, iterations, gnorm, stop_reason, trace in _lockstep(fg, searches)
    ]


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
    """Fit the rationality parameter from ``init >= 0`` by line-searched gradient ascent."""
    return _fit(train, human, config, table, (init,), max_iterations, tol, kind)[0]


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
    """Fit from several starts in lockstep and keep the best fit.

    The objective is not provably concave in the rationality parameter, so a
    handful of starts guards against shallow local maxima.  Each start gives
    the fit :func:`learn_lambda` gives from its init; the best one (the
    earliest on a tie) is returned with every start's fit, in ``inits``
    order, as its ``starts``.
    """
    fits = _fit(train, human, config, table, inits, max_iterations, tol, kind)
    best = max(fits, key=lambda fit: fit.objective_value)
    return replace(best, starts=tuple(fits))
