"""Fitting the speaker rationality parameter on the analytic derivative.

The objective is the mean, over training metaphors, of the Pearson
correlation between the model's interpretation and the human one (or one
pooled correlation over all metaphor x feature pairs with ``kind="pooled"``).
A fit maximizes it on ``lambda >= 0`` with its derivative g.  One scan
scores lambda 0, 47 log-spaced points up to 1e5 (:data:`_SCAN`) and the
inits.  From each init a walk follows the sign of g over the scan points to
a bracket g(lo) > 0 >= g(hi), to a gap, to lambda 0 or to the scan top.  A
gap is two adjacent points with a maximum between them and no sign change:
g(lo) > 0 and the objective lower at hi by more than its rounding, or the
mirror case.  Each round bisects a gap, keeping a half that holds a maximum,
until g changes sign across it.  Illinois regula falsi on g then narrows
every distinct bracket, all of them in lockstep, until it is narrower than
``_TOL * hi`` or g across it moves the objective by no more than the
objective's rounding.  All scoring, the grid ablation's too, goes through
:func:`_points`, which returns the curve as arrays (lams, objective, g): one
kernel call per chunk of lams, with the same bits per lam as a call of its
own.  A lam is undefined, with a NaN objective and g, where a model or human
row is constant: the scan passes over it, it ends its bracket, and a walk
down with nothing defined below ends there.  Any other error fails the fit
at once.  The kernel scores only tables that pass the row rule, on which the
objective is finite (``TestRowRule``).

Everything here is deterministic: the only randomness is the split seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# interpret_with_gradient is not called here; bench/spans.py wraps learn.interpret_with_gradient
from .engine import RsaConfig, _check_lams, _interpret_lams, interpret_with_gradient  # noqa: F401
from .errors import DatasetError, ZeroVarianceError
from .lexicon import INHERENT, NON_INHERENT, HumanResponseTable, MetaphorItem, TypicalityTable
from .metrics import _pearson

_OBJECTIVE_KINDS = ("mean", "pooled")

TRAIN_PER_CLASS = 9
TEST_PER_CLASS = 3

DEFAULT_MULTISTART_INITS = (0.5, 1.0, 5.0, 20.0, 50.0)

# The fit's scan: lambda 0 and 47 log-spaced points up to 1e5.
_SCAN = np.concatenate(([0.0], np.geomspace(1e-2, 1e5, 47)))

# A bracket is narrowed until it is narrower than _TOL * hi, or until |g| * (hi - lo) at the
# new point is at most 4 * _EPS * |objective|: g is rounding noise there, and on a plateau
# the bracket would never get narrower than _TOL * hi.  No fit of 120 (seeds 12-15 x splits
# 0-2 x five configs x two kinds) took over 12 rounds; _MAX_ROUNDS is a guard.
_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_MAX_ROUNDS = 200
_CONVERGED = ("lambda_tolerance", "objective_tolerance", "gradient_tolerance")

# Lambdas scored per kernel call: 16 on a 48 x 59 table, which bounds a call's memory.  The
# kernel writes its late results into blocks it has finished with, and each chunk's results
# are released before the next kernel call, so the peak is flat in the chunk count
# (TestChunkedPoints pins both; README gives the sizes).
_GRID_CHUNK_CELLS = 16 * 48 * 59


@dataclass(frozen=True)
class TrainTestSplit:
    """Stratified 18/6 partition of the 24 metaphors, 9+9 train per class."""

    train: tuple[str, ...]
    test: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit.

    ``lambda_hat`` is the best point the fit visited; ``trace`` holds
    (round, lam, objective) for the init and each later point that beat the
    best so far (round 0 is the scan, round k the k-th refinement round).
    ``iterations`` counts refinement rounds.  ``stop_reason`` is
    ``lambda_tolerance``, ``objective_tolerance`` (g across the bracket moves
    the objective by at most 4 eps of it; never while the bracket is a gap, a
    maximum the walk stepped over with g of one sign at both ends, which is
    bisected until g changes sign), ``gradient_tolerance`` (g is
    exactly 0, or lambda is 0 with g <= 0), ``scan_top``, ``max_iterations``
    (``_MAX_ROUNDS`` ran out) or ``undefined_point`` (at a refinement point,
    or below the lowest point a walk down reached above 0); ``converged``
    is True for the first three.  ``gradient_norm_at_convergence`` is |g| at
    ``lambda_hat`` (at 0 only an ascent counts).  ``starts`` holds every
    start's own fit for a multistart fit, and is empty otherwise.

    A ``gradient_tolerance`` stop above lambda 0 lies on a plateau where g underflowed
    to exactly 0 and the objective is flat to the last bit: ``lambda_hat`` is whichever
    plateau point rounding makes best (seed 12, split 1, fast, ``mean``, start 50: 2118.8,
    and 1492.5 to 4270.1 under one-ulp perturbations).  Such a fit pins its objective only.
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
    if by_class.keys() != {INHERENT, NON_INHERENT} or any(
        len(ids) != per_class for ids in by_class.values()
    ):
        counts = {k: len(v) for k, v in by_class.items()}
        raise DatasetError(
            f"split needs {2 * per_class} items, {per_class} per class; got {counts}"
        )
    rng = np.random.default_rng(seed)
    train: list[str] = []
    test: list[str] = []
    for klass in (INHERENT, NON_INHERENT):
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
    return float(_defined(_points((lam,), train, human, config, table, kind, gradient=False))[1][0])


def gradient(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
) -> float:
    """Analytic d(objective)/d(lam), chained through softmax and normalizations."""
    return float(_defined(_points((lam,), train, human, config, table, kind))[2][0])


def _points(lams, train, human, config, table, kind, gradient=True):
    """The curve at the 1-D ``lams``: arrays (lams, objective, g); g is None without ``gradient``.

    The objective and g are NaN where the objective is undefined (a constant model
    or human row), and only there: a defined objective is finite (``TestRowRule``).
    Any other error does not depend on lam and raises.  One kernel call and one
    :func:`.metrics._pearson` pass (the r that ``evaluate`` reports) cover a chunk
    of ``_GRID_CHUNK_CELLS // table.values.size`` lams over the whole train set.
    ``mean`` correlates each item's row with its human row; ``pooled`` correlates
    the flattened rows.
    """
    if kind not in _OBJECTIVE_KINDS:
        raise ValueError(f"objective kind must be one of {_OBJECTIVE_KINDS}, got {kind!r}")
    if not train:
        raise ValueError("empty training set")
    lams = _check_lams(lams)
    if lams.ndim != 1:
        raise ValueError(f"expected a 1-D array of lams, got shape {lams.shape}")
    target = human.rows([item.id for item in train], table.vocab)
    target = target.reshape(1, -1) if kind == "pooled" else target  # pooled: all cells in one row
    chunk = max(1, _GRID_CHUNK_CELLS // table.values.size)
    values, grads = np.empty((2, lams.size))
    for start in range(0, lams.size, chunk):  # bounded temporaries
        part = slice(start, start + chunk)
        logp, dp = _interpret_lams(train, config, table, lams[part], gradient)
        p = np.exp(logp, out=logp)
        rows = (-1, *target.shape)
        r, dr, undefined = _pearson(p.reshape(rows), target, dp if dp is None else dp.reshape(rows))
        r[undefined] = np.nan  # so the mean over the rows is NaN where one is undefined
        values[part] = np.mean(r, axis=-1)
        if gradient:
            dr[undefined] = np.nan
            grads[part] = np.mean(dr, axis=-1)
        del logp, dp, p  # so the next kernel call does not hold this chunk's blocks
    return lams, values, grads if gradient else None


def _defined(curve):
    """``curve`` from :func:`_points`; raise for the first lam where its objective is NaN."""
    undefined = curve[0][np.isnan(curve[1])].tolist()
    if undefined:
        lam = undefined[0]
        raise ZeroVarianceError(f"constant vector in the training objective at lam={lam!r}")
    return curve


def finite_difference_gradient(
    lam: float,
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    kind: str = "mean",
    step: float | None = None,
) -> float:
    """Central-difference cross-check for :func:`gradient`; its stencil needs ``lam >= step``."""
    h = step if step is not None else 1e-4 * max(1.0, lam)
    hi, lo = _defined(
        _points((lam + h, lam - h), train, human, config, table, kind, gradient=False))[1].tolist()
    return (hi - lo) / (2.0 * h)


def _falls(high, low) -> bool:
    """Is the objective at point ``low`` below the one at ``high`` by more than its rounding?"""
    return low[1] < high[1] - 4.0 * _EPS * abs(high[1])


def _walk(init, scan):
    """From ``init``, follow the sign of g over the ascending ``scan`` of (lam, objective, g).

    Returns the points visited, ``init`` first, and the end: a bracket (lo, hi)
    that holds a maximum, ``"scan_top"``, ``"gradient_tolerance"``, or
    ``"undefined_point"`` where a walk down finds no defined point below.  A
    bracket has g(lo) > 0 >= g(hi), or is a gap: g(lo) > 0 with the objective
    lower at hi, or g(hi) < 0 with it lower at lo, so a maximum lies inside.
    """
    (lam, _, g), path = init, [init]
    if g > 0.0:
        for point in (p for p in scan if p[0] > lam):
            path.append(point)
            if point[2] <= 0.0 or _falls(path[-2], point):
                return path, (path[-2], point)
        return path, "scan_top"
    if g < 0.0:
        for point in (p for p in reversed(scan) if p[0] < lam):
            path.append(point)
            if point[2] > 0.0 or (path[-2][2] < 0.0 and _falls(path[-2], point)):
                return path, (point, path[-2])
        if path[-1][0] > 0.0:  # every scan point below is undefined, lambda 0 too
            return path, "undefined_point"
    return path, "gradient_tolerance"


class _Bracket:
    """Narrows a bracket (lo, hi) of :func:`_walk` onto the maximum inside it.

    While (lo, hi) is a gap, each round scores its midpoint m and keeps a half
    that still holds a maximum: the half where g changes sign; else (m, hi) if
    g(m) > 0 and the objective falls from m to hi (mirrored: (lo, m) if g(m) < 0
    and it falls from m to lo); else the other half, across which the objective
    falls as it did across the gap.  Once g(lo) > 0 >= g(hi), Illinois regula
    falsi on g narrows it.
    ``points`` holds (round, lam, objective, g) per point scored; ``stop_reason``
    is None while the bracket still narrows.
    """

    def __init__(self, lo, hi):
        self.ends = [list(lo), list(hi)]  # [lam, objective, g] at lo and at hi
        self.gap = not lo[2] > 0.0 >= hi[2]
        self.last, self.rounds, self.points = None, 0, []
        self.stop_reason = self._stop(hi[1], hi[2])

    def _stop(self, value, g):
        """Why the bracket stops after a point with objective ``value`` and gradient ``g``."""
        (lo, *_), (hi, *_) = self.ends
        # g across the bracket moves the objective by less than its rounding; across a gap,
        # whose ends differ by more than that, it cannot
        flat = not self.gap and abs(g) * (hi - lo) <= 4.0 * _EPS * abs(value)
        return ("gradient_tolerance" if g == 0.0 else
                "lambda_tolerance" if hi - lo < _TOL * hi else
                "objective_tolerance" if flat else None)

    def next_point(self) -> float:
        (lo, _, g_lo), (hi, _, g_hi) = self.ends
        if not self.gap:  # a gap is bisected
            lam = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            if lo < lam < hi:  # rounding can put the secant point on an end; bisect then
                return lam
        return lo + 0.5 * (hi - lo)

    def update(self, round_, lam, value, g) -> None:
        """Take the round's point; a NaN ``value`` is an undefined point, which stops it."""
        self.rounds = round_
        if np.isnan(value):
            self.stop_reason = "undefined_point"
            return
        self.points.append((round_, lam, value, g))
        point = [lam, value, g]
        if self.gap:  # the point replaces lo or hi so that a maximum stays inside
            lo, hi = self.ends
            if lo[2] > 0.0:  # the objective falls from lo to hi
                side = 0 if g > 0.0 and _falls(point, hi) else 1
            else:  # it falls from hi to lo
                side = 1 if g <= 0.0 and _falls(point, lo) else 0
            self.ends[side] = point
            self.gap = not self.ends[0][2] > 0.0 >= self.ends[1][2]
        else:
            side = 0 if g > 0.0 else 1  # the point replaces lo where g > 0, else hi
            if side == self.last:  # Illinois: the same end moved twice running
                self.ends[1 - side][2] *= 0.5
            self.ends[side], self.last = point, side
        self.stop_reason = self._stop(value, g)


def _fit(train, human, config, table, inits, kind) -> list[FitResult]:
    """One fit per init; every argument is checked before any scoring."""
    inits = _check_lams(inits)
    if inits.ndim != 1 or not inits.size:
        raise ValueError(f"need at least one initial point in a 1-D array, got shape {inits.shape}")
    args = (train, human, config, table, kind)
    curve = _points(np.concatenate((_SCAN, inits)), *args)
    _defined([column[_SCAN.size:] for column in curve])  # an undefined init fails the fit
    points = list(zip(*(column.tolist() for column in curve)))
    scan = [point for point in points[:_SCAN.size] if not np.isnan(point[1])]
    walks = [_walk(start, scan) for start in points[_SCAN.size:]]
    brackets = {ends: _Bracket(*ends) for _, ends in walks if not isinstance(ends, str)}
    for round_ in range(1, _MAX_ROUNDS + 1):
        active = [bracket for bracket in brackets.values() if bracket.stop_reason is None]
        if not active:
            break
        curve = _points([bracket.next_point() for bracket in active], *args)
        for bracket, *point in zip(active, *(column.tolist() for column in curve)):
            bracket.update(round_, *point)

    fits = []
    for path, ends in walks:
        bracket = brackets.get(ends)  # None where the walk ended without a bracket
        visited = [(0, *point) for point in path] + (bracket.points if bracket else [])
        trace = visited[:1]  # the init, then each point that beat the best so far
        for point in visited[1:]:
            if point[2] > trace[-1][2]:
                trace.append(point)
        _, lam, value, g = trace[-1]
        stop_reason = (bracket.stop_reason or "max_iterations") if bracket else ends
        fits.append(FitResult(
            lambda_hat=lam,
            objective_value=value,
            iterations=bracket.rounds if bracket else 0,
            gradient_norm_at_convergence=max(g, 0.0) if lam == 0.0 else abs(g),
            converged=stop_reason in _CONVERGED,
            stop_reason=stop_reason,
            trace=tuple(point[:3] for point in trace),
        ))
    return fits


def learn_lambda(
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    init: float = 1.0,
    kind: str = "mean",
) -> FitResult:
    """Fit the rationality parameter from ``init >= 0``.

    The bracket is narrowed to a relative lambda tolerance ``_TOL``, or until g across it is
    rounding noise in the objective (``objective_tolerance``); :class:`FitResult` lists every
    stop reason.
    """
    return _fit(train, human, config, table, (init,), kind)[0]


def learn_lambda_multistart(
    train: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    inits: tuple[float, ...] = DEFAULT_MULTISTART_INITS,
    kind: str = "mean",
) -> FitResult:
    """Fit from several starts and keep the best fit, the earliest on a tie.

    The objective is not concave in lambda, so a handful of starts guards
    against shallow local maxima.  The starts share the scan and the rounds,
    never each other's inits: each gives the fit :func:`learn_lambda` gives
    from its init, and is returned, in ``inits`` order, in ``starts``.
    """
    fits = _fit(train, human, config, table, inits, kind)
    best = max(fits, key=lambda fit: fit.objective_value)
    return replace(best, starts=tuple(fits))
