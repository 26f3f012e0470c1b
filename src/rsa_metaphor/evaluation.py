"""Model-vs-human evaluation: per-metaphor metrics, aggregates, and ablations.

``evaluate`` scores the batch in whole-batch array passes: two listener-kernel
calls (the model's rows and the other mode's, for ``mode_divergence``), one
distribution check of the kernel's rows, one ranking of the model and human
rows in argmax rounds, whose keys give the boundary ties too, and one pass per
metric.  The groups are the rows of a (G, B) membership matrix: its product
with the items' 0/1 flags gives their counts, and masked sums along the items
their means and sds.  The ``ItemEval`` records are built column by column.

The grid ablation scores its grid as the fit scores its scan: one
listener-kernel call per chunk of grid points, not one call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from . import learn
# interpret is not called here; bench/spans.py wraps evaluation.interpret
from .engine import RsaConfig, _check_lams, _interpret_batch, interpret  # noqa: F401
from .lexicon import (INHERENT, NON_INHERENT, HumanResponseTable, MetaphorItem,
                      TypicalityTable)
from .metrics import (_centred, _check_base, _check_distribution, _jsd, _top_k, pearson_rows,
                      top_k_overlap)
# the scalar metrics are not called here; bench/spans.py wraps them by these names
from .metrics import jsd, k_agreement, pearson, top_k_indices  # noqa: F401

DEFAULT_KS = (1, 3)
DEFAULT_GRID = (0.5, 100.0, 200)


@dataclass(frozen=True, eq=False)
class ItemEval:
    """Metrics for one metaphor.

    ``mode_divergence`` is the JSD between the full recursion's output and
    the reduced fast pipeline's at the same rationality.  The two routes are
    related but not equivalent; the divergence is reported, never asserted
    away.
    """

    item_id: str
    topic: str
    vehicle: str
    inherence: str | None
    model: np.ndarray
    human: np.ndarray
    pearson_r: float
    jsd: float
    agreement: Mapping[int, int]
    model_top: tuple[str, ...]
    human_top: tuple[str, ...]
    argmax_in_human_top: bool
    model_boundary_tie: bool
    human_boundary_tie: bool
    mode_divergence: float


@dataclass(frozen=True)
class GroupStats:
    """Aggregates over one group of items (all, per class, train, test)."""

    n_items: int
    mean_pearson: float
    sd_pearson: float
    mean_jsd: float
    sd_jsd: float
    top1_match_count: int  # items whose model and human argmax agree, whatever ks holds
    mean_agreement: Mapping[int, float]
    argmax_in_human_top_rate: float
    top_overlap_rate: float
    model_boundary_ties: int
    human_boundary_ties: int


@dataclass(frozen=True, eq=False)
class EvalReport:
    items: tuple[ItemEval, ...]
    groups: Mapping[str, GroupStats]
    ks: tuple[int, ...]
    jsd_base: float
    config: RsaConfig
    tag: str = ""


def _checked_ks(ks, n: int, jsd_base: float) -> tuple[int, ...]:
    """``ks`` sorted and distinct; raise unless each k is in [1, n] and the log base is valid."""
    ks = tuple(sorted(set(ks)))
    bad = [k for k in ks if not 1 <= k <= n]
    if bad or not ks:
        raise ValueError(f"k must be in [1, {n}], got {bad[0] if bad else 'none'}")
    _check_base(jsd_base)
    return ks


def evaluate(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    ks: tuple[int, ...] = DEFAULT_KS,
    jsd_base: float = 2.0,
    split: learn.TrainTestSplit | None = None,
) -> EvalReport:
    """Score the model against human interpretations, item by item.

    Every per-item metric is computed for the whole batch at once, with the
    row-wise forms in :mod:`.metrics`.  Groups are always computed for all
    items and per metaphor class; when a ``split`` is given, train and test
    groups are added so that aggregates can be read either way; every id the
    split names must be among ``items``.
    """
    if not items:
        raise ValueError("no items to evaluate")
    ks = _checked_ks(ks, table.n, jsd_base)
    ids, topics, vehicles, classes = zip(*map(attrgetter("id", "topic", "vehicle", "inherence"),
                                              items))
    known = set(ids)
    stray = [] if split is None else [i for i in (*split.train, *split.test) if i not in known]
    if stray:
        raise ValueError(f"split names metaphor {stray[0]!r}, which is not among the items")
    k_max = ks[-1]
    other = replace(config, mode="fast" if config.mode == "full" else "full")
    humans = human.rows(ids, table.vocab)
    models = np.exp(_interpret_batch(items, config, table)[0])
    # one block of the other mode's rows, the model's and the human's, so that the pairs
    # the JSDs compare, (others, models) and (models, humans), are its first and last two rows
    block = np.stack((np.exp(_interpret_batch(items, other, table)[0]), models, humans))
    _check_distribution(block[:2], "p")  # the human rows were checked when their table was built
    both = block[1:]
    models, humans = both

    # one ranking per row, one rank past k_max: a boundary tie is between the values
    # ranked k_max and k_max + 1, and there is none when k_max is the whole vocabulary
    ranked, keys = _top_k(both, min(k_max + 1, table.n))
    model_top, human_top = ranked[..., :k_max]
    edge = keys[..., k_max - 1:]
    ties = (edge[..., 0] == edge[..., -1]) & (k_max < table.n)
    r = pearson_rows(models, humans)
    # JSD is symmetric bit for bit: (others, models) gives the models-to-others value
    divergence, js = _jsd(block[:2], both, jsd_base)
    agreement = np.stack([top_k_overlap(model_top[:, :k], human_top[:, :k]) for k in ks], -1)
    top1 = model_top[:, 0] == human_top[:, 0]
    in_top = np.any(human_top == model_top[:, :1], axis=-1)

    # the fields in ItemEval's order, as Python floats, ints and bools, not numpy scalars
    labels = np.array(table.vocab.features, dtype=object)[ranked[..., :k_max]].tolist()
    entries = tuple(map(
        ItemEval, ids, topics, vehicles, classes, models,
        map(human.distribution, ids),  # the table's own read-only rows
        r.tolist(), js.tolist(), [dict(zip(ks, row)) for row in agreement.tolist()],
        *(map(tuple, side) for side in labels), in_top.tolist(), *ties.tolist(),
        divergence.tolist()))

    # one membership row per group: all, each class, then train and test with a split
    kinds, id_column = np.array(classes, dtype=object), np.array(ids, dtype=object)[:, None]
    rows = {"all": np.ones(len(items), dtype=bool), INHERENT: kinds == INHERENT,
            NON_INHERENT: kinds == NON_INHERENT}
    if split is not None:
        for name, part in (("train", split.train), ("test", split.test)):
            rows[name] = np.any(id_column == np.array(part, dtype=object), axis=-1)
    masks = np.array(list(rows.values()))
    # per item: 1 (for the group's size), a top-1 match, the argmax in the human top, a
    # top overlap, the model's and the human's boundary tie, then the agreement at each k
    flags = np.column_stack((np.ones(len(items), dtype=int), top1, in_top, agreement[:, -1] > 0,
                             ties.T, agreement))
    counts = masks @ flags
    # each group's mean and sd (ddof=1) of r and of the JSD, from masked sums along the
    # items in a fixed order (a float matmul's order depends on the BLAS build); a
    # one-item group's sd is 0 / 0, NaN, and an empty group is left out
    inside = masks[:, None]
    values = np.where(inside, np.stack((r, js)), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = values.sum(axis=-1) / counts[:, :1]
        spread = np.where(inside, values - means[..., None], 0.0)
        sds = np.sqrt((spread * spread).sum(axis=-1) / (counts[:, :1] - 1))
    moments = np.stack((means, sds), axis=-1).reshape(len(rows), 4)  # mean, sd of r; of JSD
    groups = {name: GroupStats(n, *stats, matches, {k: total / n for k, total in zip(ks, sums)},
                               in_human_top / n, overlaps / n, model_tied, human_tied)
              for name, (n, matches, in_human_top, overlaps, model_tied, human_tied, *sums), stats
              in zip(rows, counts.tolist(), moments.tolist()) if n}

    return EvalReport(entries, groups, ks, jsd_base, config)


def ablate_relevance(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    ks: tuple[int, ...] = DEFAULT_KS,
    jsd_base: float = 2.0,
) -> EvalReport:
    """Re-evaluate with the goal prior flattened to uniform."""
    report = evaluate(items, human, replace(config, goal_prior="uniform"), table, ks, jsd_base)
    return replace(report, tag="ablation: no-relevance")


def lambda_grid(start: float, stop: float, count: int) -> np.ndarray:
    """Log-spaced candidate grid for the interpolation ablation (see :data:`DEFAULT_GRID`)."""
    if count >= 1 and 0 < start <= stop < math.inf:  # False for a NaN bound
        with np.errstate(over="ignore"):  # near the float maximum a point can round to inf
            try:
                grid = np.geomspace(start, stop, count)
            except (ValueError, IndexError):  # numpy refused the count: an allocation failure
                raise MemoryError(f"{count} grid points do not fit an array") from None
        if np.isfinite(grid).all():
            return grid
    raise ValueError(f"bad grid spec ({start}, {stop}, {count})")


def ablate_lambda_interpolation(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    grid: Sequence[float] | None = None,
    train: Sequence[MetaphorItem] | None = None,
    objective_kind: str = "mean",
    ks: tuple[int, ...] = DEFAULT_KS,
    jsd_base: float = 2.0,
) -> tuple[float, EvalReport]:
    """Pick the rationality parameter by grid search instead of the fit's scan and refinement.

    The train objective is scored at every grid point, a chunk of points per
    kernel call; the best one (the earlier on a tie) is evaluated over
    ``items``.  The points (finite, >= 0), ``ks`` and ``jsd_base`` are checked
    before scoring; the error for an undefined objective names the first such point.
    """
    _checked_ks(ks, table.n, jsd_base)
    candidates = _check_lams(grid if grid is not None else lambda_grid(*DEFAULT_GRID))
    if candidates.size == 0:
        raise ValueError("empty grid")
    selection = tuple(train) if train is not None else tuple(items)
    values = learn._defined(learn._points(candidates, selection, human, config, table,
                                          objective_kind, gradient=False))[1]
    best = float(candidates[np.argmax(values)])  # the earlier on a tie
    report = evaluate(items, human, replace(config, lam=best), table, ks=ks, jsd_base=jsd_base)
    return best, replace(report, tag="ablation: grid-lambda")


def feature_correlation_matrix(
    items: Sequence[MetaphorItem],
    source: str,
    config: RsaConfig,
    table: TypicalityTable,
    human: HumanResponseTable | None = None,
) -> np.ndarray:
    """Feature-by-feature correlation across metaphors, for one source.

    Entry (i, j) correlates feature i's probability with feature j's across
    the items, within model outputs or human responses.  Features with zero
    variance across items yield undefined (NaN) entries; elsewhere the
    diagonal is exactly 1 and the matrix is symmetric.
    """
    if source not in ("model", "human"):
        raise ValueError(f"source must be 'model' or 'human', got {source!r}")
    if len(items) < 3:
        raise ValueError("need at least 3 items for feature correlations")
    if source == "human":
        if human is None:
            raise ValueError("human responses are required for source='human'")
        rows = human.rows([item.id for item in items], table.vocab)
    else:
        rows = np.exp(_interpret_batch(items, config, table)[0])

    centred, squares, undefined = _centred(rows, axis=0)  # each feature along the items
    safe = np.sqrt(np.where(undefined, 1.0, squares))
    corr = (centred.T @ centred) / np.outer(safe, safe)
    corr[undefined, :] = math.nan
    corr[:, undefined] = math.nan
    idx = np.flatnonzero(~undefined)
    corr[idx, idx] = 1.0
    return corr


# report.json's and report.csv's names for ItemEval fields; the others keep their own
_ITEM_KEYS = {"item_id": "id", "inherence": "class"}


def _json(value):
    """``value`` as JSON data: a NaN float becomes None, an array a list, mapping keys strings."""
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _json(v) for k, v in value.items()}
    return value


def _cell(value) -> str:
    """A CSV cell: a float to 12 significant digits, a bool or an int as digits, a label
    tuple joined by ``|``; NaN and None become empty cells."""
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".12g")
    if isinstance(value, int):  # a bool too
        return str(int(value))
    return "|".join(value) if isinstance(value, tuple) else value or ""  # a str, or None


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready payload for an evaluation report: every field of its groups and items."""
    return {
        "tag": report.tag,
        "lambda": report.config.lam,
        "ks": list(report.ks),
        "jsd_base": report.jsd_base,
        "groups": {name: {f.name: _json(getattr(g, f.name)) for f in fields(g)}
                   for name, g in report.groups.items()},
        "items": [{_ITEM_KEYS.get(f.name, f.name): _json(getattr(e, f.name)) for f in fields(e)}
                  for e in report.items],
    }


def report_csv_rows(report: EvalReport) -> list[list[str]]:
    """Flat per-metaphor rows for report.csv (header row first): the report.json item
    keys but the two arrays, with ``agreement`` as one ``agreement_<k>`` column per k."""
    columns = []
    for f in fields(ItemEval):
        if f.name == "agreement":
            columns += [(f"agreement_{k}", lambda e, k=k: e.agreement[k]) for k in report.ks]
        elif f.name not in ("model", "human"):
            columns.append((_ITEM_KEYS.get(f.name, f.name), attrgetter(f.name)))
    return [[name for name, _ in columns]] + [
        [_cell(get(e)) for _, get in columns] for e in report.items]


def matrix_csv_rows(matrix: np.ndarray, features: tuple[str, ...]) -> list[list[str]]:
    """Correlation matrix as CSV rows with feature-name header row and column.

    Undefined (NaN) entries become empty cells.
    """
    return [["feature", *features]] + [
        [name, *map(_cell, row)] for name, row in zip(features, matrix.tolist())]
