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
i for category c; ``lam`` is finite and >= 0.  One number per scoring call,
:func:`_reach`, is the largest lam times the most negative log utility of the rows the
call reads: a lam for which it overflows is refused, and it gates the flush.  All
probability arithmetic runs in log space with max-subtraction.  Scores far below their
max still underflow, and numpy's ``exp`` leaves its SIMD loop for such results (README
gives the cost).  So once the reach falls below -700, the exps that are summed beside a
term of about 1 flush results below ``exp(-700)`` to 0 (:func:`_exp`).  Log p keeps every
bit; a derivative entry may move only where it is built of such terms alone, and is then
below 1e-280 (``TestUnderflowFlush``).

``interpret_fast`` is the reduced pipeline ``a_i * b_i ** lam`` over the topic's
row a and the vehicle's row b, normalized once.  It approximates the full
recursion but is not identical to it; no equivalence is asserted.  Its log is
shifted by ``lam * max(log b)``, as the speaker scores are, and its derivative
taken as ``log b - max(log b)``, 0 where ``b ** lam`` piles p up.  At lam = 0
it returns the topic row as stored, with or without the gradient.

Before any arithmetic, every scoring path refuses the rows it reads that fail the one
row rule, :attr:`TypicalityTable.degenerate_rows`: the whole table in full mode with
``"all"``, else each item's topic and vehicle rows, at every lam.  So every log read
is finite, and no normalizer meets zero mass: the helpers below take finite arguments.

One kernel, :func:`_interpret_lams`, computes every interpretation: a batch
of items at a vector of ``lam`` values in a single numpy pass, with the
exact derivative in ``lam`` on request.  Results carry a leading lam axis,
and each lam's slice has the bits of a call with that lam alone.
``interpret``, ``interpret_with_gradient``, ``interpret_fast`` and
``pragmatic_listener`` are batches of one item at one lam; ``evaluate``
and the feature correlations pass whole item sets at one lam; the fit and
the grid ablation pass theirs with their lams in chunks of about 16 on a
48 x 59 table (``learn._GRID_CHUNK_CELLS``), which bounds a call's memory
however many lams it scores.  In full mode late results go into (L, B, n)
blocks the kernel has finished with, and a caller releases one chunk's results
before its next kernel call, so the peak does not grow with the chunk count
(``TestChunkedPoints``; README gives the sizes).

* The table's ``log T``, ``log(1 - T)`` and its row rule scan are cached on
  the immutable :class:`TypicalityTable`, so a call indexes them.  These are
  the speaker utilities; :func:`pragmatic_speaker`, the one speaker
  distribution exposed on its own, reads them from the same cache.
* With ``utterances="all"`` the speaker normalizers
  ``logsumexp_u lam * log T[u, j]`` and ``logsumexp_u lam * log(1 - T[u, j])``
  and their softmax expectations do not depend on the item, so they are
  computed once per lam, as an (L, 1, n) block; with ``"pair"`` each item's
  two rows are stacked as (B, 2, n).  In full mode with ``"all"`` the table keeps
  them in one slot, ``TypicalityTable._speaker_memo``, with the flush flag and the
  key ``(lams.tobytes(), gradient)`` (so 0.0 and -0.0 differ), stored once the row
  check and the reach have passed.  The next call with the same key skips all four,
  with the same bits: single-item calls, ``evaluate`` and the correlations at one lam
  hit, and each chunk of the fit or the grid ablation misses.  The shift is ``lam``
  times a column max of the lam-free utilities: rounding is monotone, so for ``lam >= 0``
  that is exactly the scores' max, found without a pass over the scores,
  which are exponentiated once, in one buffer, summed for the normalizer and
  averaged over the utilities for its lam-derivative.
* The goal mixture ``W_i = sum_j R(g_j) S1(v | g_j, e_i)`` takes the match
  term for goal i and the no-match term for every other goal.  "Every goal
  but i" sums ``t_j = exp(x_j - peak)``: off the peak, the peak's 1 plus
  ``Q - t_i`` with Q the sum of every term but the peak's; ``t_i <= 1`` keeps
  Q at most the result, so a direct sum's ``n * eps / 2`` relative error
  holds.  At the peak the rest could underflow, so that entry is summed
  directly, shifted by the runner-up; each row's peak entry is read and
  written by its flat index.  The gradient weights the same terms.  The
  match term joins that sum through :func:`_logaddexp`, vectorized ``exp``
  and ``log1p`` passes in place of numpy's scalar ``logaddexp`` loop.  It is
  taken relative to its largest term: at a large lam every term is near
  ``-lam * c``, and the category prior added to that offset would be lost.
* The category reaches the listener only through its prior row, which never
  touches the goal mixture: the interpretation is ``(sum_c P(c) T[c, i]) W_i``
  normalized once over the features, and :func:`pragmatic_listener` splits
  it over the categories by Bayes' rule.

Every operation here is a pure function of immutable inputs but for the table's speaker
slot, which holds read-only values they determine and is replaced whole, in one assignment:
concurrent calls (one metaphor per worker) are safe and have the bits of serial ones.
"""

from __future__ import annotations

import math
import numbers
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

# exp's results below exp(_FLUSH_FLOOR) are flushed to 0 where they join a term of about 1
_FLUSH_FLOOR = -700.0
_FLUSH_TINY = math.exp(_FLUSH_FLOOR)


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
        if isinstance(self.lam, (bool, np.bool_)):
            raise ValueError(f"lam must be a number, not a bool, got {self.lam!r}")
        if not isinstance(self.lam, numbers.Real):
            raise ValueError(f"lam must be a number, got {self.lam!r}")
        _check_lams(self.lam)
        for value, allowed, name in (
            (self.utterances, _UTTERANCE_SETS, "utterances"),
            (self.category_prior, _CATEGORY_PRIORS, "category_prior"),
            (self.goal_prior, _GOAL_PRIORS, "goal_prior"),
            (self.mode, _MODES, "mode"),
        ):
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True, eq=False)
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
        if not np.all(arr <= 0.0):  # NaN fails the comparison too
            raise ValueError("log-probabilities must be in [-inf, 0]")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "logp", arr)

    @classmethod
    def from_log_scores(cls, labels, scores) -> "Distribution":
        """Normalize log-scores, in [-inf, inf) and not all -inf (softmax with max-subtraction)."""
        scores = np.asarray(scores, dtype=float)
        if not np.all(scores < math.inf):  # NaN fails the comparison too
            raise ValueError("log-scores must be in [-inf, inf)")
        if scores.max() == -math.inf:
            raise ZeroMassError("all scores have zero mass")
        return cls(tuple(labels), scores - _logsumexp(scores, axis=-1)[0])

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


def _check_lams(lams) -> np.ndarray:
    """``lams`` as a float array; raise ValueError unless every value is finite and >= 0."""
    try:
        lams = np.asarray(lams, dtype=float)
    except OverflowError:  # an int that no float holds
        raise ValueError("lam must be finite and >= 0, got an int beyond the float range") from None
    bad = lams[~((lams >= 0.0) & (lams < math.inf))]  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"lam must be finite and >= 0, got {float(bad[0])!r}")
    return lams


def _exp(x: np.ndarray, flush: bool) -> np.ndarray:
    """``exp(x)`` in place; with ``flush``, results below ``exp(-700)`` are 0.

    The arguments are finite, or -inf where :func:`_exclusive_sums` has written a peak
    out, which gives 0.  They are clamped at -700 and ``exp(-700)`` is taken off the
    results, with no mask.  The subtraction moves only results below
    ``2**54 * exp(-700)``, and a sum that holds a term of about 1 beside them keeps its bits.
    """
    if flush:
        np.maximum(x, _FLUSH_FLOOR, out=x)
    np.exp(x, out=x)
    if flush:
        x -= _FLUSH_TINY
        np.maximum(x, 0.0, out=x)
    return x


def _logaddexp(x: np.ndarray, y: np.ndarray, out: np.ndarray, flush: bool = False) -> np.ndarray:
    """``log(exp(x) + exp(y))`` into ``out``, which is not ``x`` or ``y``; ``y`` is overwritten.

    ``max + log1p(exp(min - max))`` in vectorized passes, where ``np.logaddexp`` loops over
    scalar ``exp`` and ``log1p``.  The arguments are finite.  Equal arguments give
    ``np.logaddexp``'s result exactly; others differ from it by rounding only: at most 2 ulp
    of ``max(|x|, |y|, ln 2)`` over 3.6M random pairs at scales 1e-6 to 1e300.  ``flush``
    goes to :func:`_exp`.
    """
    lo = np.minimum(x, y, out=out)
    hi = np.maximum(x, y, out=y)
    lo -= hi
    _exp(lo, flush)
    np.log1p(lo, out=lo)
    lo += hi
    return lo


def _reach(lams: np.ndarray, *logs: np.ndarray) -> float:
    """The largest of ``lams`` times the most negative entry of ``logs``, the finite log
    utilities a call reads; raise, in floats before numpy can warn, where it overflows."""
    top = float(max(lams.tolist(), default=0.0))
    reach = top * min(float(a.min()) for a in logs)
    if reach == -math.inf:
        raise Error(f"lam={top!r} is too large for this table: lam times a log typicality "
                    "overflows the float range")
    return reach


def _logsumexp(a: np.ndarray, axis: int, lam: np.ndarray | None = None, gradient: bool = False,
               out: np.ndarray | None = None, flush: bool = False):
    """``logsumexp(lam * a)`` along ``axis`` (kept), and its lam-derivative if ``gradient``.

    ``lam >= 0`` has length 1 along ``axis``, and None leaves ``a`` unscaled; the shift is
    ``lam * max(a)`` (module docstring).  The derivative is the mean of ``a`` weighted by
    the summed block ``exp(lam * a - shift)``, which is written into ``out`` when given.
    ``a`` is finite (without ``lam``, an entry may be -inf beside a finite max), and
    ``lam * a`` does not overflow (:func:`_reach`).  ``flush`` goes to :func:`_exp`.
    """
    shift = a.max(axis=axis, keepdims=True)
    if lam is None:
        block = np.subtract(a, shift, out=out)
    else:
        shift = lam * shift
        block = np.multiply(lam, a, out=out)
        block -= shift
    _exp(block, flush)
    total = block.sum(axis=axis, keepdims=True)
    norm = np.log(total) + shift
    if not gradient:
        return norm, None
    block *= a
    return norm, block.sum(axis=axis, keepdims=True) / total


def pragmatic_speaker(
    goal: int,
    feature: int,
    config: RsaConfig,
    table: TypicalityTable,
    item: MetaphorItem | None = None,
) -> Distribution:
    """Softmax speaker: P(u | goal, state) over the utterance alternatives.

    ``goal`` and ``feature`` are one-hot indices: the speaker wants to
    communicate feature dimension ``goal`` while the true state is basis
    vector ``e_feature``.  The utility of utterance u is the log mass the
    literal listener puts on states sharing the goal's value; over the
    one-hot support it closes to ``log T[u][goal]`` when the state carries
    the goal feature and ``log(1 - T[u][goal])`` otherwise, read from the
    table's cached logs as in :func:`_interpret_lams`.  The alternatives are
    every category of the table, or the {topic, vehicle} pair of ``item``.
    """
    if not (0 <= goal < table.n and 0 <= feature < table.n):
        raise ValueError(f"goal and feature must be in [0, {table.n})")
    if config.utterances == "all":
        utts = table.categories
    elif item is None:
        raise ValueError("the pair utterance set needs a metaphor item")
    else:
        utts = (item.topic, item.vehicle)
    rows = np.array([table.category_index(u) for u in utts])
    _reject_rows(table, rows)
    utility = (table.log_values if feature == goal else table.log1m_values)[rows, goal]
    lam = np.array([config.lam])
    _reach(lam, utility)
    norm, _ = _logsumexp(utility, -1, lam)
    return Distribution(utts, config.lam * utility - norm)


def _reject_rows(table: TypicalityTable, index) -> None:
    """Raise DegenerateTypicalityError naming the categories ``table.degenerate_rows`` flags
    among the rows ``table.values[index]``, in index order."""
    bad_rows = table.degenerate_rows[index]
    if np.any(bad_rows):
        which = dict.fromkeys(np.asarray(table.categories)[index][bad_rows].tolist())
        listed = ", ".join(repr(c) for c in list(which)[:5])
        raise DegenerateTypicalityError(f"typicality row(s) for {listed} hold a value outside "
                                        "(0, 1) or NaN, or do not sum to 1")


def _exclusive_sums(x: np.ndarray, d: np.ndarray | None = None, flush: bool = False):
    """Sums over every j != i along the last axis, in O(n): ``(peak, second, top, sums, weighted)``.

    ``top`` holds the flat index of each row's peak entry in ``x.reshape(-1)``; ``peak``
    and ``second`` are each row's largest entry and the largest of the others, with the
    last axis kept.  With ``shift_i`` the peak, or ``second`` at the peak itself,
    ``sum_{j != i} exp(x_j) = exp(shift_i) sums_i`` and, given ``d``,
    ``sum_{j != i} exp(x_j) d_j = exp(shift_i) weighted_i``.  How the terms are shifted and
    joined, and why nothing cancels, is set out in the module docstring.  ``x`` and ``d``
    are finite, with rows of 2 or more entries; they are overwritten, and must be C-contiguous
    for the peak entries to be written by flat index.  ``flush`` goes to :func:`_exp`.
    """
    assert x.flags.c_contiguous and (d is None or d.flags.c_contiguous)
    n = x.shape[-1]
    top = np.argmax(x, axis=-1)
    top += np.arange(0, top.size * n, n).reshape(top.shape)
    flat = x.reshape(-1)
    peak = flat[top][..., None]
    flat[top] = -np.inf  # x is not read again once its peak is taken
    second = np.max(x, axis=-1, keepdims=True)
    rest = x - peak
    _exp(rest, flush)  # every term but the peak's own 1
    runner_up = np.subtract(x, second, out=x)
    _exp(runner_up, flush)

    def exclusive(t, direct, own):
        """``t``, in place: the sum of ``direct`` at the peak, else ``own`` + the others' ``t``."""
        at_peak = direct.sum(axis=-1)
        np.subtract(t.sum(axis=-1, keepdims=True), t, out=t)
        np.add(own, t, out=t)
        t.reshape(-1)[top] = at_peak
        return t

    weighted = None
    if d is not None:  # before rest becomes the plain sums
        own = d.reshape(-1)[top][..., None]  # before d takes the runner-up's terms
        weighted = exclusive(rest * d, np.multiply(runner_up, d, out=d), own)
    return peak, second, top, exclusive(rest, runner_up, 1.0), weighted


def _speaker(lam: np.ndarray, log_v: np.ndarray, norm: np.ndarray, expected: np.ndarray | None):
    """log S1(vehicle | goal j) for every lam and goal j, and its derivative in lam.

    ``lam`` is (L, 1, 1) and ``log_v`` (B, n) holds the vehicle's log utilities.
    ``norm, expected`` is :func:`_logsumexp` of the utterance alternatives' log utilities
    along axis -2, scaled by ``lam[..., None]``: (L, 1, 1, n) for one (1, K, n) block shared
    by the batch, or (L, B, 1, n) for the pair set's (B, 2, n); ``expected`` is None for no
    derivative.  Both results are (L, B, n).  The derivative is the vehicle's utility less
    the softmax-expected one.
    """
    log_s = lam * log_v
    log_s -= norm[..., 0, :]
    if expected is None:
        return log_s, None
    return log_s, log_v - expected[..., 0, :]


def _interpret_lams(items, config: RsaConfig, table: TypicalityTable, lams, gradient: bool):
    """The listener kernel: every item of a batch at every lam, in one numpy pass.

    ``lams`` is a 1-D array of L rationality values, each finite and >= 0;
    ``config.lam`` is not read.  Returns the interpretation ``log p`` and its exact
    derivative in lam (None unless ``gradient``), each (L, B, n).  Every operation is
    elementwise or reduces along a trailing axis, so each lam's slice has the bits
    it would have in a call of its own.  Full mode writes the late results (the final
    normalizer, ``p`` and ``p * d log``) into (L, B, n) blocks it has finished with, and
    flushes the exps summed beside a term of about 1 (:func:`_exp`) where the reach of the
    utilities it reads (:func:`_reach`) is below -700, the first lam at which a speaker
    score can fall below ``exp(-700)``; the final normalizer never does.
    """
    if not items:
        raise ValueError("empty batch of metaphor items")
    lams = _check_lams(lams)
    topic, vehicle = np.array(
        [(table.category_index(i.topic), table.category_index(i.vehicle)) for i in items]
    ).T
    lam = lams[:, None, None]
    log_values = table.log_values
    dlog = None  # d log of the one factor lam enters: the goal mixture, or b ** lam
    finished = {}  # blocks the kernel has finished with, which take the late results
    # the rows read: the whole table as one (1, K) block shared by the batch, or (B, 2)
    whole = (config.mode, config.utterances) == ("full", "all")
    rows = np.s_[None, :] if whole else np.stack([topic, vehicle], 1)
    # read whole, the speaker state depends on the table and the lams alone (module docstring)
    key = (lams.tobytes(), gradient)
    entry = table._speaker_memo[0] if whole else None
    hit = entry is not None and entry[0] == key
    if not hit:
        _reject_rows(table, rows)  # before any arithmetic: every log read below is finite

    if config.mode == "fast":
        log_alpha, log_beta = log_values[topic], log_values[vehicle]
        _reach(lams, log_beta)
        # log a + lam log b, shifted by lam max(log b) as the speaker's scores are
        logp = np.multiply(lam, log_beta)
        logp -= lam * log_beta.max(axis=-1, keepdims=True)
        logp += log_alpha
        if gradient:
            dlog = log_beta - log_beta.max(axis=-1, keepdims=True)
    else:
        if hit:
            _, flush, norms = entry
        else:
            # the utterance alternatives are the rows read
            log_u, not_u = log_values[rows], table.log1m_values[rows]
            flush = _reach(lams, log_u, not_u) < _FLUSH_FLOOR
            norms = tuple(_logsumexp(u, -2, lam[..., None], gradient, flush=flush)
                          for u in (log_u, not_u))
            if whole:  # read-only, and set in one assignment: a concurrent call reads either
                for a in [x for pair in norms for x in pair if x is not None]:
                    a.setflags(write=False)
                table._speaker_memo[0] = (key, flush, norms)
        log_t, log_v, not_v = log_values[topic], log_values[vehicle], table.log1m_values[vehicle]
        # the state carries goal j's feature (match) or another one (no match)
        log_on, d_match = _speaker(lam, log_v, *norms[0])
        log_off, d_nomatch = _speaker(lam, not_v, *norms[1])

        # W_i = sum_j R(g_j) S1(v | g_j, e_i): goal i matches, every other goal does not;
        # a uniform R is a constant, which the final normalizer cancels
        if config.goal_prior == "relevance":
            np.add(log_t, log_on, out=log_on)
            np.add(log_t, log_off, out=log_off)
        peak, second, top, rest, d_rest = _exclusive_sums(log_off, d_nomatch, flush)
        # W relative to its largest term, so that the priors added later are not lost
        shift = np.maximum(peak, log_on.max(axis=-1, keepdims=True))
        log_on -= shift
        peak -= shift
        second -= shift
        # the other goals' log sum: shifted by the peak, or by the runner-up at the peak
        log_rest = np.log(rest, out=rest)
        at_peak = log_rest.reshape(-1)[top] + second[..., 0]
        log_rest += peak
        log_rest.reshape(-1)[top] = at_peak
        # log_off is dead once _exclusive_sums has read it, and log_rest once joined
        log_w = _logaddexp(log_on, log_rest, out=log_off, flush=flush)
        if gradient:
            # d log W_i: the match and the no-match shares of W_i times their own d log S1
            on = _exp(np.subtract(log_on, log_w, out=log_on), flush)
            on *= d_match
            off = np.subtract(peak, log_w, out=rest)
            off.reshape(-1)[top] = second[..., 0] - log_w.reshape(-1)[top]
            _exp(off, flush)
            off *= d_rest
            dlog = np.add(on, off, out=on)

        # the category prior's feature marginal sum_c P(c) T[c, i], times W_i; a uniform
        # P(c) is 1/2, which the final normalizer cancels (log_v is not read again)
        if config.category_prior == "uniform":
            prior = _logaddexp(log_t, log_v, out=np.empty_like(log_t))
        else:
            prior = log_t
        logp = np.add(prior, log_w, out=log_w)
        # blocks no longer read take the late results: rest is dead once dlog = on + off,
        # and d match after on *= d_match
        finished = {"normalizer": rest, "p": d_nomatch, "p d log": d_match}

    logp -= _logsumexp(logp, -1, out=finished.get("normalizer"))[0]
    if config.mode == "fast":
        # a uniform stretch leaves the topic row itself, exactly
        logp[lams == 0.0] = log_alpha
    if not gradient:
        return logp, None
    p = np.exp(logp, out=finished.get("p"))
    p_dlog = np.multiply(p, dlog, out=finished.get("p d log"))
    dp = np.subtract(dlog, np.sum(p_dlog, axis=-1, keepdims=True), out=p_dlog)
    return logp, np.multiply(p, dp, out=dp)


def _interpret_batch(items, config: RsaConfig, table: TypicalityTable, gradient: bool = False):
    """Interpretations of a batch at ``config.lam``: ``(log p, dp/dlam)``, each (B, n)."""
    logp, dp = _interpret_lams(items, config, table, (config.lam,), gradient)
    return logp[0], None if dp is None else dp[0]


def pragmatic_listener(
    item: MetaphorItem, config: RsaConfig, table: TypicalityTable
) -> Distribution:
    """Joint posterior over (category, feature) after hearing the vehicle.

    Bayes' rule splits the interpretation over the category support:
    ``log p(c, i) = log p(i) + log T[c, i] - logsumexp_c' log T[c', i]``.
    """
    if config.mode != "full":
        raise ValueError("pragmatic_listener requires mode='full'")
    logp, _ = _interpret_batch((item,), config, table)
    support = (item.topic,) if config.category_prior == "topic" else (item.topic, item.vehicle)
    rows = table.log_values[[table.category_index(c) for c in support]]
    share = rows - _logsumexp(rows, axis=0)[0]  # <= 0: full mode rejects rows holding a 0
    labels = tuple((c, f) for c in support for f in table.vocab.features)
    return Distribution(labels, (logp[0] + share).ravel())


def interpret(
    item: MetaphorItem, config: RsaConfig, table: TypicalityTable
) -> Distribution:
    """Marginal posterior over features: the model's metaphor interpretation."""
    logp, _ = _interpret_batch((item,), config, table)
    return Distribution(table.vocab.features, logp[0])


def interpret_fast(
    item: MetaphorItem, lam: float, table: TypicalityTable
) -> Distribution:
    """Reduced pipeline: the topic row times the vehicle row to the power lam.

    With topic row a and vehicle row b, the output is ``a_i * b_i ** lam``,
    normalized.  At lam = 0 it returns the topic row exactly.
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
