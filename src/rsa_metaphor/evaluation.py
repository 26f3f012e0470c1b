"""Model-vs-human evaluation: per-metaphor metrics, aggregates, and ablations.

The grid ablation scores its grid in chunks, one listener-kernel call per
chunk of grid points (:data:`_GRID_CHUNK_CELLS`), not one call per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import learn
# interpret is not called here; bench/spans.py wraps evaluation.interpret
from .engine import RsaConfig, _interpret_batch, interpret  # noqa: F401
from .lexicon import (
    INHERENT,
    NON_INHERENT,
    HumanResponseTable,
    MetaphorItem,
    TypicalityTable,
)
from .metrics import jsd, k_agreement, pearson, top_k_indices

DEFAULT_KS = (1, 3)
DEFAULT_GRID = (0.5, 100.0, 200)

# Grid points scored per kernel call: 16 on a 48 x 59 table.  The kernel's
# largest temporaries hold one table-sized block per point, so this keeps a
# chunk near 2 MB however long the grid is.
_GRID_CHUNK_CELLS = 16 * 48 * 59


@dataclass(frozen=True)
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
    top1_match_count: int
    mean_agreement: Mapping[int, float]
    argmax_in_human_top_rate: float
    top_overlap_rate: float
    model_boundary_ties: int
    human_boundary_ties: int


@dataclass(frozen=True)
class EvalReport:
    items: tuple[ItemEval, ...]
    groups: Mapping[str, GroupStats]
    ks: tuple[int, ...]
    jsd_base: float
    config: RsaConfig
    tag: str = ""


def _sd(values: Sequence[float]) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else math.nan


def _group_stats(entries: Sequence[ItemEval], ks: tuple[int, ...]) -> GroupStats:
    n = len(entries)
    rs = [e.pearson_r for e in entries]
    js = [e.jsd for e in entries]
    k_max = max(ks)
    return GroupStats(
        n_items=n,
        mean_pearson=float(np.mean(rs)),
        sd_pearson=_sd(rs),
        mean_jsd=float(np.mean(js)),
        sd_jsd=_sd(js),
        top1_match_count=sum(1 for e in entries if e.agreement.get(1, 0) >= 1),
        mean_agreement={k: float(np.mean([e.agreement[k] for e in entries])) for k in ks},
        argmax_in_human_top_rate=float(np.mean([e.argmax_in_human_top for e in entries])),
        top_overlap_rate=float(np.mean([e.agreement[k_max] >= 1 for e in entries])),
        model_boundary_ties=sum(e.model_boundary_tie for e in entries),
        human_boundary_ties=sum(e.human_boundary_tie for e in entries),
    )


def _boundary_tie(p: np.ndarray, k: int) -> bool:
    if k >= p.size:
        return False
    ordered = np.sort(p)[::-1]
    return bool(ordered[k - 1] == ordered[k])


def evaluate(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    ks: tuple[int, ...] = DEFAULT_KS,
    jsd_base: float = 2.0,
    tag: str = "",
    split: learn.TrainTestSplit | None = None,
) -> EvalReport:
    """Score the model against human interpretations, item by item.

    Groups are always computed for all items and per metaphor class; when a
    ``split`` is given, train and test groups are added so that aggregates
    can be read either way.
    """
    if not items:
        raise ValueError("no items to evaluate")
    ks = tuple(sorted(set(ks)))
    k_max = max(ks)
    features = table.vocab.features
    other_mode = "fast" if config.mode == "full" else "full"
    models = np.exp(_interpret_batch(items, config, table)[0])
    others = np.exp(_interpret_batch(items, replace(config, mode=other_mode), table)[0])
    entries: list[ItemEval] = []
    for item, model, other in zip(items, models, others):
        target = human.distribution(item.id)
        model_top = tuple(features[i] for i in top_k_indices(model, k_max))
        human_top = tuple(features[i] for i in top_k_indices(target, k_max))
        entries.append(
            ItemEval(
                item_id=item.id,
                topic=item.topic,
                vehicle=item.vehicle,
                inherence=item.inherence,
                model=model,
                human=target,
                pearson_r=pearson(model, target),
                jsd=jsd(model, target, base=jsd_base),
                agreement={k: k_agreement(model, target, k) for k in ks},
                model_top=model_top,
                human_top=human_top,
                argmax_in_human_top=model_top[0] in human_top,
                model_boundary_tie=_boundary_tie(model, k_max),
                human_boundary_tie=_boundary_tie(target, k_max),
                mode_divergence=jsd(model, other, base=jsd_base),
            )
        )

    groups = {"all": _group_stats(entries, ks)}
    for klass in (INHERENT, NON_INHERENT):
        subset = [e for e in entries if e.inherence == klass]
        if subset:
            groups[klass] = _group_stats(subset, ks)
    if split is not None:
        for name, ids in (("train", split.train), ("test", split.test)):
            subset = [e for e in entries if e.item_id in set(ids)]
            if subset:
                groups[name] = _group_stats(subset, ks)

    return EvalReport(
        items=tuple(entries),
        groups=groups,
        ks=ks,
        jsd_base=jsd_base,
        config=config,
        tag=tag,
    )


def ablate_relevance(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    **kwargs,
) -> EvalReport:
    """Re-evaluate with the goal prior flattened to uniform."""
    ablated = replace(config, goal_prior="uniform")
    kwargs.setdefault("tag", "ablation: no-relevance")
    return evaluate(items, human, ablated, table, **kwargs)


def lambda_grid(start: float = 0.5, stop: float = 100.0, count: int = 200) -> np.ndarray:
    """Log-spaced candidate grid for the interpolation ablation."""
    if count < 1 or start <= 0 or stop < start:
        raise ValueError(f"bad grid spec ({start}, {stop}, {count})")
    return np.geomspace(start, stop, count)


def ablate_lambda_interpolation(
    items: Sequence[MetaphorItem],
    human: HumanResponseTable,
    config: RsaConfig,
    table: TypicalityTable,
    grid: Sequence[float] | None = None,
    train: Sequence[MetaphorItem] | None = None,
    objective_kind: str = "mean",
    **kwargs,
) -> tuple[float, EvalReport]:
    """Pick the rationality parameter by grid search instead of gradient ascent.

    The train objective is evaluated at every grid point, a chunk of points
    per kernel call; the best point is then evaluated over ``items``.  Ties
    go to the earlier grid point.  If the objective is undefined at some
    point, the error names the first such point.
    """
    candidates = np.asarray(grid if grid is not None else lambda_grid(*DEFAULT_GRID), float)
    if candidates.size == 0:
        raise ValueError("empty grid")
    selection = tuple(train) if train is not None else tuple(items)
    chunk = max(1, _GRID_CHUNK_CELLS // table.values.size)
    scores = np.concatenate([
        learn._objective_and_gradient(candidates[i:i + chunk], selection, human, config,
                                      table, objective_kind, gradient=False)[0]
        for i in range(0, candidates.size, chunk)
    ])
    best = float(candidates[int(np.argmax(scores))])
    kwargs.setdefault("tag", "ablation: grid-lambda")
    report = evaluate(items, human, replace(config, lam=best), table, **kwargs)
    return best, report


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
        rows = np.stack([human.distribution(item.id) for item in items])
    else:
        rows = np.exp(_interpret_batch(items, config, table)[0])

    # a feature is undefined when literally constant across items; detecting
    # this by range (not by centered norm) avoids mean-roundoff false positives
    defined = np.ptp(rows, axis=0) > 0.0
    centered = rows - rows.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(defined, norms, 1.0)
    corr = (centered.T @ centered) / np.outer(safe, safe)
    corr[~defined, :] = math.nan
    corr[:, ~defined] = math.nan
    idx = np.flatnonzero(defined)
    corr[idx, idx] = 1.0
    return corr


def _json_float(x: float) -> float | None:
    x = float(x)
    return None if math.isnan(x) else x


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready payload for an evaluation report."""
    return {
        "tag": report.tag,
        "lambda": report.config.lam,
        "ks": list(report.ks),
        "jsd_base": report.jsd_base,
        "groups": {
            name: {
                "n_items": g.n_items,
                "mean_pearson": _json_float(g.mean_pearson),
                "sd_pearson": _json_float(g.sd_pearson),
                "mean_jsd": _json_float(g.mean_jsd),
                "sd_jsd": _json_float(g.sd_jsd),
                "top1_match_count": g.top1_match_count,
                "mean_agreement": {str(k): _json_float(v) for k, v in g.mean_agreement.items()},
                "argmax_in_human_top_rate": _json_float(g.argmax_in_human_top_rate),
                "top_overlap_rate": _json_float(g.top_overlap_rate),
                "model_boundary_ties": g.model_boundary_ties,
                "human_boundary_ties": g.human_boundary_ties,
            }
            for name, g in report.groups.items()
        },
        "items": [
            {
                "id": e.item_id,
                "topic": e.topic,
                "vehicle": e.vehicle,
                "class": e.inherence,
                "pearson_r": _json_float(e.pearson_r),
                "jsd": _json_float(e.jsd),
                "agreement": {str(k): v for k, v in e.agreement.items()},
                "model_top": list(e.model_top),
                "human_top": list(e.human_top),
                "argmax_in_human_top": e.argmax_in_human_top,
                "model_boundary_tie": e.model_boundary_tie,
                "human_boundary_tie": e.human_boundary_tie,
                "mode_divergence": _json_float(e.mode_divergence),
                "model": [float(v) for v in e.model],
                "human": [float(v) for v in e.human],
            }
            for e in report.items
        ],
    }


def report_csv_rows(report: EvalReport) -> list[list[str]]:
    """Flat per-metaphor rows for report.csv (header row first)."""
    header = ["id", "topic", "vehicle", "class", "pearson_r", "jsd"]
    header += [f"agreement_{k}" for k in report.ks]
    header += [
        "model_top", "human_top", "argmax_in_human_top",
        "model_boundary_tie", "human_boundary_tie", "mode_divergence",
    ]
    rows = [header]
    for e in report.items:
        row = [
            e.item_id, e.topic, e.vehicle, e.inherence or "",
            format(e.pearson_r, ".12g"), format(e.jsd, ".12g"),
        ]
        row += [str(e.agreement[k]) for k in report.ks]
        row += [
            "|".join(e.model_top), "|".join(e.human_top),
            str(int(e.argmax_in_human_top)),
            str(int(e.model_boundary_tie)), str(int(e.human_boundary_tie)),
            format(e.mode_divergence, ".12g"),
        ]
        rows.append(row)
    return rows


def matrix_csv_rows(matrix: np.ndarray, features: tuple[str, ...]) -> list[list[str]]:
    """Correlation matrix as CSV rows with feature-name header row and column.

    Undefined (NaN) entries become empty cells.
    """
    rows = [["feature", *features]]
    for i, name in enumerate(features):
        cells = [
            "" if math.isnan(matrix[i, j]) else format(matrix[i, j], ".12g")
            for j in range(len(features))
        ]
        rows.append([name, *cells])
    return rows
