"""RSA inference engine for metaphor interpretation.

The model hears "X is Y" (topic X, vehicle Y) and infers which feature the
speaker meant to convey:

* a literal listener takes the utterance at face value: the entity is a
  member of the uttered category, and features follow the category's
  typicality row;
* a speaker picks an utterance by softmax over the informativeness of the
  utterance about a communicative goal (one feature dimension), sharpened by
  a rationality parameter ``lam``;
* a pragmatic listener inverts the speaker with Bayes' rule, weighting goals
  by their relevance to the topic (the topic's typicality row).

Feature vectors range over the one-hot basis ``e_1..e_n``: the entity "has"
exactly one salient feature, and ``P(e_i | c)`` is the typicality of feature
i for category c.  All probability arithmetic runs in log space with
max-subtraction, so large ``|lam|`` never overflows or underflows.

``interpret_fast`` is the reduced two-step pipeline: sharpen the vehicle's
typicality row with ``lam`` (a softmax stretch) and reweight it by the
topic's row.  It approximates the full recursion but is not identical to it;
no equivalence is asserted.  At lam = 0 every path returns the topic row as
stored, with or without the gradient.

One kernel, :func:`_log_joint`, computes every interpretation: a batch of
items at a vector of ``lam`` values in a single numpy pass, with the exact
derivative in ``lam`` on request.  Results carry a leading lam axis, and
each lam's slice has the bits of a call with that lam alone.
``interpret``, ``interpret_with_gradient``, ``interpret_fast`` and
``pragmatic_listener`` are batches of one item at one lam; the objective,
``evaluate`` and the feature correlations pass whole item sets at one lam;
the grid ablation passes its grid in chunks of about 16 lams on a 48 x 59
table (``evaluation._GRID_CHUNK_CELLS``), so its temporaries stay near 2 MB
however long the grid is.

* The table's ``log T``, ``log(1 - T)`` and its 0/1 row scan are cached on
  the immutable :class:`TypicalityTable`, so a call indexes them.
* With ``utterances="all"`` the speaker normalizers
  ``logsumexp_u lam * log T[u, j]`` and ``logsumexp_u lam * log(1 - T[u, j])``
  and their softmax expectations do not depend on the item, so they are
  computed once per lam, as an (L, 1, n) block.  With ``"pair"`` each item's two rows are stacked
  as (B, 2, n).
* The goal mixture ``W_i = sum_j R(g_j) S1(v | g_j, e_i)`` takes the match
  term for goal i and the no-match term for every other goal.  "Every goal
  but i" is an O(n) exclusive logsumexp joined from prefix and suffix
  ``np.logaddexp.accumulate``.  Taking a total and subtracting term i would
  cancel catastrophically whenever term i dominates the total; the prefix
  and suffix never contain it.  The gradient's matching sum is built the
  same way from prefix and suffix sums.

Every operation here is a pure function of immutable inputs; concurrent
calls (one metaphor per worker) are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTypicalityError, Error, ZeroMassError
from .lexicon import MetaphorItem, TypicalityTable
from .metrics import top_k_indices

_UTTERANCE_SETS = ("all", "pair")
_CATEGORY_PRIORS = ("topic", "uniform")
_GOAL_PRIORS = ("relevance", "uniform")
_MODES = ("full", "fast")

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class RsaConfig:
    """Inference settings.

    lam
        Speaker rationality; 0 is an indifferent speaker, large values
        approach a fully rational (argmax) one.
    utterances
        Alternative set the speaker chooses from: ``"all"`` categories in
        the table, or the ``"pair"`` {topic, vehicle}.
    category_prior
        Which category the discussed entity belongs to: ``"topic"`` (the
        topic is given by the utterance frame) or ``"uniform"`` over
        {topic, vehicle}.
    goal_prior
        ``"relevance"`` weights goals by the topic's typicality row;
        ``"uniform"`` removes that weighting (the ablation).
    mode
        ``"full"`` recursion or the ``"fast"`` reduced pipeline.
    """

    lam: float = 1.0
    utterances: str = "all"
    category_prior: str = "topic"
    goal_prior: str = "relevance"
    mode: str = "full"

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")
        for value, allowed, name in (
            (self.utterances, _UTTERANCE_SETS, "utterances"),
            (self.category_prior, _CATEGORY_PRIORS, "category_prior"),
            (self.goal_prior, _GOAL_PRIORS, "goal_prior"),
            (self.mode, _MODES, "mode"),
        ):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over a fixed, ordered label set.

    Stored as log-probabilities; exposed as probabilities via :attr:`p`.
    Labels keep their declared order, and argmax/top-k tie-breaking follows
    that order (lowest index wins).
    """

    labels: tuple
    logp: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.logp, dtype=float)
        if arr.shape != (len(self.labels),):
            raise ValueError("logp length does not match labels")
        if np.any(np.isnan(arr)) or np.any(arr == np.inf):
            raise ValueError("log-probabilities must be in [-inf, 0]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "logp", arr)

    @classmethod
    def from_log_scores(cls, labels, scores) -> "Distribution":
        """Normalize unnormalized log-scores (softmax with max-subtraction)."""
        scores = np.asarray(scores, dtype=float)
        total = _logsumexp(scores)
        if total == -np.inf:
            raise ZeroMassError("all scores have zero mass")
        return cls(tuple(labels), scores - total)

    @classmethod
    def from_probs(cls, labels, probs) -> "Distribution":
        probs = np.asarray(probs, dtype=float)
        if np.any(probs < 0) or not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite and non-negative")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum():.12g}, not 1")
        with np.errstate(divide="ignore"):
            return cls(tuple(labels), np.log(probs))

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    @property
    def p(self) -> np.ndarray:
        """Probabilities, in label order."""
        return np.exp(self.logp)

    def prob(self, label) -> float:
        return float(np.exp(self.logp[self._index[label]]))

    def top_k(self, k: int) -> tuple:
        """The k most probable labels, descending; ties broken by label order."""
        return tuple(self.labels[i] for i in top_k_indices(self.logp, k))

    def argmax(self):
        return self.labels[int(np.argmax(self.logp))]

    def __len__(self) -> int:
        return len(self.labels)


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray | float:
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)  # all -inf: exp sums to 0, log gives -inf
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def utterance_alternatives(
    config: RsaConfig, table: TypicalityTable, item: MetaphorItem | None = None
) -> tuple[str, ...]:
    """The utterance set the speaker chooses from, in deterministic order."""
    if config.utterances == "all":
        return table.categories
    if item is None:
        raise ValueError("the pair utterance set needs a metaphor item")
    return (item.topic, item.vehicle)


def literal_listener(utterance: str, table: TypicalityTable) -> Distribution:
    """Joint distribution over (category, feature) for a literal reading.

    All mass sits on the uttered category; features follow its typicality
    row.  Every other category gets probability 0.
    """
    u = table.category_index(utterance)
    probs = np.zeros_like(table.values)
    probs[u] = table.values[u]
    labels = tuple(
        (c, f) for c in table.categories for f in table.vocab.features
    )
    return Distribution.from_probs(labels, probs.ravel())


def speaker_utility(utterance: str, goal: int, feature: int, table: TypicalityTable) -> float:
    """Log mass the literal listener puts on states sharing the goal's value.

    ``goal`` and ``feature`` are one-hot indices: the speaker wants to
    communicate feature dimension ``goal`` while the true state is basis
    vector ``e_feature``.  Over the one-hot support the projected mass
    closes to T[u][goal] when the state carries the goal feature and
    1 - T[u][goal] otherwise.
    """
    n = table.n
    if not (0 <= goal < n and 0 <= feature < n):
        raise ValueError(f"goal and feature must be in [0, {n})")
    t = float(table.row(utterance)[goal])
    mass = t if feature == goal else 1.0 - t
    if mass <= 0.0:
        raise DegenerateTypicalityError(
            f"utility log-argument is 0 for utterance {utterance!r}, goal {goal}"
        )
    return math.log(mass)


def pragmatic_speaker(
    goal: int,
    feature: int,
    config: RsaConfig,
    table: TypicalityTable,
    item: MetaphorItem | None = None,
) -> Distribution:
    """Softmax speaker: P(u | goal, state) over the utterance alternatives."""
    utts = utterance_alternatives(config, table, item)
    if not utts:
        raise Error("empty utterance set")
    scores = [
        config.lam * speaker_utility(u, goal, feature, table) for u in utts
    ]
    return Distribution.from_log_scores(utts, scores)


def relevance(topic: str, table: TypicalityTable) -> Distribution:
    """Goal prior given the topic: the topic's normalized typicality row."""
    return Distribution.from_probs(table.vocab.features, table.row(topic))


def _goal_log_weights(config: RsaConfig, log_topic: np.ndarray) -> np.ndarray:
    """Log goal prior: the topic's log typicality rows, or uniform (the ablation)."""
    if config.goal_prior == "uniform":
        return np.full(log_topic.shape, -math.log(log_topic.shape[-1]))
    return log_topic


def _reject_rows(bad_rows: np.ndarray, table: TypicalityTable, index, problem: str) -> None:
    """Raise DegenerateTypicalityError naming the flagged categories.

    ``bad_rows`` flags the rows ``table.values[index]``.
    """
    if np.any(bad_rows):
        which = dict.fromkeys(np.asarray(table.categories)[index][bad_rows].tolist())
        listed = ", ".join(repr(c) for c in list(which)[:5])
        raise DegenerateTypicalityError(f"typicality row(s) for {listed} {problem}")


def _exclusive_logsumexp(x: np.ndarray) -> np.ndarray:
    """``log sum_{j != i} exp(x_j)`` for every i along the last axis, in O(n).

    Prefix and suffix running logsumexps, joined; no term is ever subtracted
    from a total, so nothing cancels however much one term dominates.
    """
    pad = np.full(x.shape[:-1] + (1,), -np.inf)
    before = np.logaddexp.accumulate(np.concatenate([pad, x[..., :-1]], axis=-1), axis=-1)
    after = np.logaddexp.accumulate(np.concatenate([pad, x[..., :0:-1]], axis=-1), axis=-1)
    return np.logaddexp(before, after[..., ::-1])


def _exclusive_weighted_sum(log_x: np.ndarray, log_total: np.ndarray, d: np.ndarray):
    """``sum_{j != i} exp(log_x_j - log_total_i) d_j`` for every i along the last axis.

    O(n) prefix and suffix sums of ``exp(log_x_j - peak) d_j``, where peak is
    the row's largest ``log_x``, rescaled to each ``log_total_i``, which must
    be at least ``log sum_{j != i} exp(log_x_j)``.  At the peak's own position
    the sums lack their largest term and the rescaling could overflow, so
    that one entry is summed directly.
    """
    top = np.argmax(log_x, axis=-1)[..., None]
    peak = np.take_along_axis(log_x, top, axis=-1)
    terms = np.exp(log_x - peak) * d
    zero = np.zeros_like(peak)
    before = np.cumsum(np.concatenate([zero, terms[..., :-1]], axis=-1), axis=-1)
    after = np.cumsum(np.concatenate([zero, terms[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    out = (before + after) * np.exp(np.minimum(peak - log_total, 0.0))
    others = log_x.copy()
    np.put_along_axis(others, top, -np.inf, axis=-1)
    at_top = np.sum(np.exp(others - np.take_along_axis(log_total, top, axis=-1)) * d,
                    axis=-1, keepdims=True)
    np.put_along_axis(out, top, at_top, axis=-1)
    return out


def _speaker(lam: np.ndarray, log_u: np.ndarray, log_v: np.ndarray, gradient: bool):
    """log S1(vehicle | goal j) for every lam and goal j, and its derivative in lam.

    ``lam`` is (L, 1, 1).  ``log_u`` holds the utterance alternatives' log
    utilities along axis -2: one (1, K, n) block shared by the batch, or
    (B, 2, n) for the pair set.  ``log_v`` (B, n) holds the vehicle's.
    Both results are (L, B, n).
    """
    scores = lam[..., None] * log_u
    norm = _logsumexp(scores, axis=-2)
    log_s = lam * log_v - norm
    if not gradient:
        return log_s, None
    # d/dlam log softmax: own utility minus the softmax-expected utility
    expected = np.sum(np.exp(scores - norm[..., None, :]) * log_u, axis=-2)
    return log_s, log_v - expected


def _log_joint(items, config: RsaConfig, table: TypicalityTable, lams, gradient: bool):
    """The listener kernel: every item of a batch at every lam, in one numpy pass.

    ``lams`` is a 1-D array of L rationality values; ``config.lam`` is not
    read.  Returns ``(log_joint, dlog)``.  ``log_joint`` (L, B, C, n) is each
    item's normalized log posterior over its category support (C = 1 for the
    topic prior, 2 for the uniform one) x features.  ``dlog`` (L, B, n) is the
    derivative in lam of the one factor lam enters, the goal mixture (the
    stretch in fast mode); it is None unless ``gradient``.  Every operation
    is elementwise or reduces along a trailing axis, so each lam's slice has
    the bits it would have in a call of its own.
    """
    if not items:
        raise ValueError("empty batch of metaphor items")
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError(f"lam must be finite, got {float(lams[~np.isfinite(lams)][0])!r}")
    topic, vehicle = np.array(
        [(table.category_index(i.topic), table.category_index(i.vehicle)) for i in items]
    ).T
    lam = lams[:, None, None]
    log_values = table.log_values
    dlog = None

    if config.mode == "fast":
        log_alpha = log_values[topic]
        if gradient or np.any(lams != 0.0):
            _reject_rows((table.values[vehicle] <= 0.0).any(axis=-1), table, vehicle,
                         "contain zeros; the vehicle stretch is undefined for lam != 0")
            log_beta = log_values[vehicle]
            scores = lam * log_beta
            stretch = scores - _logsumexp(scores, axis=-1)[..., None]
            log_joint = (log_alpha + stretch)[..., None, :]
            if gradient:
                dlog = log_beta - np.sum(np.exp(stretch) * log_beta, axis=-1, keepdims=True)
        else:
            # every stretch is uniform: the vehicle is never read
            log_joint = np.broadcast_to(log_alpha[:, None, :], (lams.size, len(items), 1, table.n))
    else:
        degenerate = "contain values of exactly 0 or 1"
        if config.utterances == "all":
            # the speaker normalizers run over the whole table: one block shared by the batch
            _reject_rows(table.degenerate_rows, table, slice(None), degenerate)
            log_u, not_u = log_values[None], table.log1m_values[None]
            log_t, log_v, not_v = log_values[topic], log_values[vehicle], not_u[0, vehicle]
        else:
            pair = np.stack([topic, vehicle], axis=1)
            _reject_rows(table.degenerate_rows[pair], table, pair, degenerate)
            log_u, not_u = log_values[pair], table.log1m_values[pair]
            log_t, log_v, not_v = log_u[:, 0], log_u[:, 1], not_u[:, 1]
        # the state carries goal j's feature (match) or another one (no match)
        log_s_match, d_match = _speaker(lam, log_u, log_v, gradient)
        log_s_nomatch, d_nomatch = _speaker(lam, not_u, not_v, gradient)

        # W_i = sum_j R(g_j) S1(v | g_j, e_i): goal i matches, every other goal does not
        log_goal = _goal_log_weights(config, log_t)
        log_on = log_goal + log_s_match
        log_off = log_goal + log_s_nomatch
        log_w = np.logaddexp(log_on, _exclusive_logsumexp(log_off))
        if gradient:
            # d log W_i: each component's share of W_i times its own d log S1
            dlog = (np.exp(log_on - log_w) * d_match
                    + _exclusive_weighted_sum(log_off, log_w, d_nomatch))

        if config.category_prior == "topic":
            log_prior = log_t[:, None, :]
        else:
            log_prior = -math.log(2.0) + np.stack([log_t, log_v], axis=1)
        log_joint = log_prior + log_w[..., None, :]

    total = _logsumexp(log_joint, axis=(-2, -1))
    if np.any(total == -np.inf):
        raise ZeroMassError("interpretation has zero total mass")
    log_joint = log_joint - total[..., None, None]
    if config.mode == "fast":
        # a uniform stretch leaves the topic row itself, exactly
        log_joint[lams == 0.0] = log_alpha[:, None, :]
    return log_joint, dlog


def _interpret_lams(items, config: RsaConfig, table: TypicalityTable, lams, gradient: bool):
    """Interpretations of a batch at every lam: ``(log p, dp/dlam)``, each (L, B, n).

    The derivative is exact (the chain rule through the speaker softmax, the
    goal mixture and the final normalization) and None unless ``gradient``.
    """
    log_joint, dlog = _log_joint(items, config, table, lams, gradient)
    logp = _logsumexp(log_joint, axis=-2)
    if not gradient:
        return logp, None
    p = np.exp(logp)
    return logp, p * (dlog - np.sum(p * dlog, axis=-1, keepdims=True))


def _interpret_batch(items, config: RsaConfig, table: TypicalityTable, gradient: bool = False):
    """Interpretations of a batch at ``config.lam``: ``(log p, dp/dlam)``, each (B, n)."""
    logp, dp = _interpret_lams(items, config, table, (config.lam,), gradient)
    return logp[0], None if dp is None else dp[0]


def pragmatic_listener(
    item: MetaphorItem, config: RsaConfig, table: TypicalityTable
) -> Distribution:
    """Joint posterior over (category, feature) after hearing the vehicle."""
    if config.mode != "full":
        raise ValueError("pragmatic_listener requires mode='full'")
    log_joint, _ = _log_joint((item,), config, table, (config.lam,), gradient=False)
    support = (item.topic,) if config.category_prior == "topic" else (item.topic, item.vehicle)
    labels = tuple((c, f) for c in support for f in table.vocab.features)
    return Distribution(labels, log_joint[0, 0].ravel())


def interpret(
    item: MetaphorItem, config: RsaConfig, table: TypicalityTable
) -> Distribution:
    """Marginal posterior over features: the model's metaphor interpretation."""
    logp, _ = _interpret_batch((item,), config, table)
    return Distribution(table.vocab.features, logp[0])


def interpret_fast(
    item: MetaphorItem, lam: float, table: TypicalityTable
) -> Distribution:
    """Reduced pipeline: stretch the vehicle row by lam, reweight by the topic row.

    With topic row a and vehicle row b, the output is proportional to
    ``a_i * softmax(lam * log b)_i``.  At lam = 0 it returns the topic row
    exactly.
    """
    return interpret(item, RsaConfig(lam=lam, mode="fast"), table)


def interpret_with_gradient(
    item: MetaphorItem, config: RsaConfig, table: TypicalityTable
) -> tuple[np.ndarray, np.ndarray]:
    """Interpretation probabilities and their derivative with respect to lam.

    Returns ``(p, dp)`` with both arrays over the feature vocabulary.
    """
    logp, dp = _interpret_batch((item,), config, table, gradient=True)
    return np.exp(logp[0]), dp[0]
