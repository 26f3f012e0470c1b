"""Engine tests: each agent against hand values and the brute-force oracle."""

import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import as_oracle_table, make_synthetic_dataset, random_table, table_from_rows
from rsa_metaphor import (
    Distribution,
    HumanResponseTable,
    MetaphorItem,
    RsaConfig,
    interpret,
    interpret_fast,
    make_split,
    pragmatic_listener,
    pragmatic_speaker,
)
from rsa_metaphor import engine, evaluation, learn
from rsa_metaphor.engine import (
    _exclusive_sums,
    _exp,
    _interpret_batch,
    _interpret_lams,
    _logaddexp,
    _logsumexp,
    _speaker,
    interpret_with_gradient,
)
from rsa_metaphor.errors import (
    DegenerateTypicalityError,
    Error,
    UnknownCategoryError,
    ZeroMassError,
)

# the five configurations every evaluation path is checked in
CONFIGS = (
    {},
    {"utterances": "pair"},
    {"mode": "fast"},
    {"category_prior": "uniform"},
    {"goal_prior": "uniform"},
)


class TestDistribution:
    def test_from_log_scores_normalizes(self):
        d = Distribution.from_log_scores((0, 1), [math.log(0.6), math.log(0.3)])
        np.testing.assert_allclose(d.p, [2 / 3, 1 / 3], atol=1e-15)

    def test_softmax_shift_invariance(self):
        scores = np.array([0.3, -1.2, 4.0, 0.0])
        base = Distribution.from_log_scores(range(4), scores)
        shifted = Distribution.from_log_scores(range(4), scores + 123.456)
        np.testing.assert_allclose(shifted.p, base.p, atol=1e-12)

    def test_top_k_breaks_ties_by_index(self):
        d = Distribution(("a", "b", "c"), np.log([0.25, 0.375, 0.375]))
        assert d.top_k(1) == ("b",)
        assert d.top_k(2) == ("b", "c")
        assert d.argmax() == "b"

    def test_zero_mass_rejected(self):
        from rsa_metaphor.errors import ZeroMassError

        with pytest.raises(ZeroMassError):
            Distribution.from_log_scores(("a", "b"), [-np.inf, -np.inf])

    @pytest.mark.parametrize("logp", [[0.5, 0.5], [1e-300, -np.inf], [math.nan, 0.0],
                                      [math.inf, -np.inf]])
    def test_entries_outside_minus_inf_to_zero_rejected(self, logp):
        with pytest.raises(ValueError, match=r"in \[-inf, 0\]"):
            Distribution(("a", "b"), logp)


    def test_length_must_match_labels(self):
        with pytest.raises(ValueError, match="^logp length does not match labels$"):
            Distribution(("a", "b"), [0.0])


class TestRsaConfig:
    @pytest.mark.parametrize("setting, message", [
        ({"lam": math.inf}, "lam must be finite and >= 0, got inf"),
        ({"lam": math.nan}, "lam must be finite and >= 0, got nan"),
        ({"lam": True}, "lam must be a number, not a bool, got True"),
        ({"lam": np.False_}, "lam must be a number, not a bool, got np.False_"),
        ({"lam": "5"}, "lam must be a number, got '5'"),
        ({"lam": None}, "lam must be a number, got None"),
        ({"mode": "slow"}, "mode must be one of ('full', 'fast'), got 'slow'"),
        ({"utterances": "some"}, "utterances must be one of ('all', 'pair'), got 'some'"),
    ], ids=["inf", "nan", "True", "np.False_", "str", "None", "mode", "utterances"])
    def test_bad_setting_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RsaConfig(**setting)

    @pytest.mark.parametrize("lam", [3, np.int64(4), np.float32(0.5), np.float64(2.5)])
    def test_ints_and_numpy_floats_accepted(self, lam):
        assert RsaConfig(lam=lam).lam == lam


class TestSpeakerUtility:
    """The speaker's utilities, read off its log-odds at lam = 1."""

    @staticmethod
    def utility_gaps(goal, feature, table):
        logp = pragmatic_speaker(goal, feature, RsaConfig(lam=1.0), table).logp
        return logp - logp[0]

    def test_matching_state(self, two_by_two):
        table, _ = two_by_two
        # goal 0 communicated by state e_0: listener mass is the typicality itself
        np.testing.assert_allclose(self.utility_gaps(0, 0, table),
                                   [0.0, math.log(0.25) - math.log(0.6)], atol=1e-12)

    def test_non_matching_state(self, two_by_two):
        table, _ = two_by_two
        np.testing.assert_allclose(self.utility_gaps(0, 1, table),
                                   [0.0, math.log(0.75) - math.log(0.4)], atol=1e-12)

    def test_matches_oracle_everywhere(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, 3, 4)
        ref = as_oracle_table(table)
        for g in range(4):
            for f in range(4):
                want = [oracle.speaker_utility(u, g, f, ref) for u in table.categories]
                np.testing.assert_allclose(self.utility_gaps(g, f, table),
                                           np.subtract(want, want[0]), rtol=0, atol=1e-12)

    def test_zero_log_argument_raises(self):
        table = table_from_rows([[1.0, 0.0], [0.5, 0.5]])
        cfg = RsaConfig(lam=1.0)
        with pytest.raises(DegenerateTypicalityError, match="'c0' give goal 1"):
            pragmatic_speaker(1, 1, cfg, table)  # mass is T=0
        with pytest.raises(DegenerateTypicalityError, match="'c0' give goal 0"):
            pragmatic_speaker(0, 1, cfg, table)  # mass is 1-T=0


class TestPragmaticSpeaker:
    def test_lambda_zero_is_uniform(self, two_by_two):
        table, item = two_by_two
        cfg = RsaConfig(lam=0.0, utterances="all")
        np.testing.assert_allclose(
            pragmatic_speaker(0, 0, cfg, table, item).p, [0.5, 0.5], atol=1e-15
        )

    def test_hand_softmax(self):
        # utilities (log 0.6, log 0.3) at lam=1 give exactly (2/3, 1/3)
        table = table_from_rows([[0.6, 0.4], [0.3, 0.7]])
        cfg = RsaConfig(lam=1.0, utterances="all")
        item = MetaphorItem("m", "c0", "c1")
        np.testing.assert_allclose(
            pragmatic_speaker(0, 0, cfg, table, item).p, [2 / 3, 1 / 3], atol=1e-12
        )

    def test_large_lambda_concentrates_on_argmax(self):
        table = table_from_rows([[0.6, 0.4], [0.3, 0.7]])
        cfg = RsaConfig(lam=1000.0, utterances="all")
        d = pragmatic_speaker(0, 0, cfg, table)
        assert d.argmax() == "c0"
        assert d.prob("c0") >= 1.0 - 1e-9

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, 4, 3)
        ref = as_oracle_table(table)
        cfg = RsaConfig(lam=2.5, utterances="all")
        for g in range(3):
            for f in range(3):
                d = pragmatic_speaker(g, f, cfg, table)
                for u in table.categories:
                    assert d.prob(u) == pytest.approx(
                        oracle.pragmatic_speaker(u, g, f, 2.5, ref, list(ref)), abs=1e-12
                    )

    def test_pair_utterance_set(self, two_by_two):
        table, item = two_by_two
        cfg = RsaConfig(lam=1.0, utterances="pair")
        d = pragmatic_speaker(0, 0, cfg, table, item)
        assert d.labels == ("alpha", "beta")
        assert d.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_whose_utilities_overflow_is_refused_before_scaling(self):
        # lam * log T[0, 0] overflows on the seed-12 table: the kernel's error, with no
        # numpy overflow warning and no ZeroMassError after it
        table, _, _ = make_synthetic_dataset(seed=12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Error) as refused:
                pragmatic_speaker(0, 0, RsaConfig(lam=1e308), table)
        assert refused.type is Error and caught == []
        assert str(refused.value) == ("lam=1e+308 is too large for this table: lam times a log "
                                      "typicality overflows the float range")

    def test_argument_contract(self, two_by_two):
        table, _ = two_by_two
        with pytest.raises(ValueError, match="goal and feature"):
            pragmatic_speaker(2, 0, RsaConfig(), table)
        with pytest.raises(ValueError, match="goal and feature"):
            pragmatic_speaker(0, -1, RsaConfig(), table)
        with pytest.raises(ValueError, match="needs a metaphor item"):
            pragmatic_speaker(0, 0, RsaConfig(utterances="pair"), table)


class TestRelevance:
    LAMS = (0.0, 0.5, 3.0, 44.43)

    @staticmethod
    def tables(two_by_two):
        """two_by_two, and a 3 x 4 table: with two features 1 - T[u, 0] is T[u, 1], so each
        W_i takes the same speaker term from every goal and no goal prior can move it."""
        yield two_by_two
        yield random_table(np.random.default_rng(5), 3, 4), MetaphorItem("m", "c0", "c1")

    def test_relevance_prior_matches_the_oracle(self, two_by_two):
        for table, item in self.tables(two_by_two):
            for lam in self.LAMS:
                got = interpret(item, RsaConfig(lam=lam), table).p
                want = oracle.interpret(item.topic, item.vehicle, lam, as_oracle_table(table))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_uniform_topic_row_gives_uniform_goals(self):
        table = table_from_rows([[0.2, 0.2, 0.2, 0.2, 0.2], [0.3, 0.1, 0.25, 0.05, 0.3],
                                 [0.1, 0.4, 0.1, 0.2, 0.2]])
        item = MetaphorItem("m", "c0", "c1")
        lams = np.array(self.LAMS)
        relevance = _interpret_lams((item,), RsaConfig(), table, lams, gradient=True)
        uniform = _interpret_lams((item,), RsaConfig(goal_prior="uniform"), table, lams,
                                  gradient=True)
        np.testing.assert_allclose(relevance[0], uniform[0], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(relevance[1], uniform[1], rtol=0, atol=1e-15)

    def test_uniform_goal_prior_ablation_matches_the_oracle(self, two_by_two):
        for table, item in self.tables(two_by_two):
            for lam in self.LAMS:
                got = interpret(item, RsaConfig(lam=lam, goal_prior="uniform"), table).p
                want = oracle.interpret(item.topic, item.vehicle, lam, as_oracle_table(table),
                                        goal_prior="uniform")
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_uniform_goal_prior_never_reads_the_topic_row(self):
        # the ablated goal channel is blind to the topic: with every category as an
        # alternative, items that share a vehicle share W, and p / T[topic] is W normalized
        rng = np.random.default_rng(31)
        table = random_table(rng, 5, 6)
        items = tuple(MetaphorItem(f"m{t}", f"c{t}", "c4") for t in range(4))
        topics = table.values[:4]
        for goal_prior, same in (("uniform", True), ("relevance", False)):
            logp, _ = _interpret_lams(items, RsaConfig(goal_prior=goal_prior), table,
                                      np.array(self.LAMS[1:]), gradient=False)
            w = np.exp(logp) / topics
            w /= w.sum(axis=-1, keepdims=True)
            assert np.allclose(w, w[:, :1], rtol=1e-13, atol=0) == same


class TestPragmaticListener:
    def test_two_by_two_matches_oracle(self, two_by_two):
        table, item = two_by_two
        cfg = RsaConfig(lam=1.0, utterances="pair", category_prior="topic")
        d = pragmatic_listener(item, cfg, table)
        ref = oracle.pragmatic_listener(
            "alpha", "beta", 1.0, as_oracle_table(table),
            utterances=["alpha", "beta"], category_prior="topic",
        )
        for (c, i), value in ref.items():
            assert d.prob((c, table.vocab.features[i])) == pytest.approx(value, abs=1e-12)

    def test_uniform_category_prior_support(self, two_by_two):
        table, item = two_by_two
        cfg = RsaConfig(lam=1.0, utterances="pair", category_prior="uniform")
        d = pragmatic_listener(item, cfg, table)
        assert {c for c, _ in d.labels} == {"alpha", "beta"}
        assert d.p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("utterances", ["all", "pair"])
    @pytest.mark.parametrize("category_prior", ["topic", "uniform"])
    @pytest.mark.parametrize("goal_prior", ["relevance", "uniform"])
    def test_joint_matches_oracle_and_interpret(self, utterances, category_prior, goal_prior):
        rng = np.random.default_rng(23)
        config = RsaConfig(utterances=utterances, category_prior=category_prior,
                           goal_prior=goal_prior)
        for lam in (0.0, *rng.uniform(0.0, 60.0, size=4), 60.0):
            table = random_table(rng, 4, 5)
            item = MetaphorItem("m", "c1", "c3")
            rows = as_oracle_table(table)
            utts = list(rows) if utterances == "all" else [item.topic, item.vehicle]
            want = oracle.pragmatic_listener(
                item.topic, item.vehicle, lam, rows, utterances=utts,
                category_prior=category_prior, goal_prior=goal_prior,
            )
            d = pragmatic_listener(item, replace(config, lam=lam), table)
            assert np.all(d.logp <= 0.0)
            got = {(c, int(f[1:])): p for (c, f), p in zip(d.labels, d.p)}
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=0, abs=1e-12)
            marginal = d.p.reshape(-1, table.n).sum(axis=0)
            single = interpret(item, replace(config, lam=lam), table).p
            np.testing.assert_allclose(marginal, single, rtol=0, atol=1e-15)

    def test_requires_full_mode(self, two_by_two):
        table, item = two_by_two
        with pytest.raises(ValueError):
            pragmatic_listener(item, RsaConfig(mode="fast"), table)

    def test_uniform_table_gives_uniform_marginal(self):
        table = table_from_rows(np.full((3, 4), 0.25))
        item = MetaphorItem("m", "c0", "c1")
        d = interpret(item, RsaConfig(lam=3.7), table)
        np.testing.assert_allclose(d.p, 0.25, atol=1e-12)


class TestInterpret:
    def test_marginal_sums_to_one(self, two_by_two):
        table, item = two_by_two
        d = interpret(item, RsaConfig(lam=5.0), table)
        assert d.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_equals_oracle_and_topic_row(self, two_by_two):
        table, item = two_by_two
        cfg = RsaConfig(lam=0.0, category_prior="topic", utterances="pair")
        d = interpret(item, cfg, table)
        ref = oracle.interpret(
            "alpha", "beta", 0.0, as_oracle_table(table),
            utterances=["alpha", "beta"], category_prior="topic",
        )
        np.testing.assert_allclose(d.p, ref, atol=1e-12)
        # indifferent speaker: the goal mixture is flat, leaving the topic prior
        np.testing.assert_allclose(d.p, table.row("alpha"), atol=1e-12)

    @pytest.mark.parametrize("utterances", ["all", "pair"])
    @pytest.mark.parametrize("category_prior", ["topic", "uniform"])
    @pytest.mark.parametrize("goal_prior", ["relevance", "uniform"])
    def test_matches_oracle_across_configs(self, utterances, category_prior, goal_prior):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n_cat = int(rng.integers(2, 5))
            n_feat = int(rng.integers(2, 5))
            table = random_table(rng, n_cat, n_feat)
            item = MetaphorItem("m", "c0", "c1")
            lam = float(rng.uniform(0.0, 60.0))
            cfg = RsaConfig(
                lam=lam, utterances=utterances,
                category_prior=category_prior, goal_prior=goal_prior,
            )
            got = interpret(item, cfg, table).p
            utts = list(table.categories) if utterances == "all" else ["c0", "c1"]
            want = oracle.interpret(
                "c0", "c1", lam, as_oracle_table(table),
                utterances=utts, category_prior=category_prior, goal_prior=goal_prior,
            )
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_fast_mode_dispatch(self, two_by_two):
        table, item = two_by_two
        via_config = interpret(item, RsaConfig(lam=2.0, mode="fast"), table)
        direct = interpret_fast(item, 2.0, table)
        np.testing.assert_allclose(via_config.p, direct.p, atol=1e-15)

    def test_degenerate_typicality_rejected(self):
        table = table_from_rows([[1.0, 0.0], [0.5, 0.5]])
        item = MetaphorItem("m", "c1", "c0")
        with pytest.raises(DegenerateTypicalityError):
            interpret(item, RsaConfig(lam=1.0), table)

    def test_ablated_equals_full_when_topic_row_is_uniform(self):
        # R(g|t) already uniform: removing it must not change anything
        table = table_from_rows([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]])
        item = MetaphorItem("m", "c0", "c1")
        cfg = RsaConfig(lam=7.0)
        full = interpret(item, cfg, table).p
        ablated = interpret(item, replace(cfg, goal_prior="uniform"), table).p
        np.testing.assert_allclose(ablated, full, atol=1e-12)


class TestInterpretFast:
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_topic_row_of_zeros_has_zero_mass(self, lam):
        table = table_from_rows([[0.0, 0.0], [0.25, 0.75]])
        with pytest.raises(ZeroMassError, match="^interpretation has zero total mass$"):
            interpret_fast(MetaphorItem("m", "c0", "c1"), lam, table)

    def test_hand_example(self):
        table = table_from_rows([[0.5, 0.5], [0.8, 0.2]])
        item = MetaphorItem("m", "c0", "c1")
        np.testing.assert_allclose(interpret_fast(item, 1.0, table).p, [0.8, 0.2], atol=1e-12)

    def test_lambda_zero_returns_topic_row_exactly(self, two_by_two):
        table, item = two_by_two
        assert np.array_equal(interpret_fast(item, 0.0, table).p, table.row("alpha"))

    def test_uniform_rows_give_uniform_output(self):
        table = table_from_rows(np.full((2, 3), 1 / 3))
        item = MetaphorItem("m", "c0", "c1")
        np.testing.assert_allclose(interpret_fast(item, 9.0, table).p, 1 / 3, atol=1e-12)

    @pytest.mark.parametrize("value", [0.0, -0.01])
    def test_zero_vehicle_entry_rejected_for_nonzero_lambda(self, value):
        table = table_from_rows([[0.5, 0.5, value], [0.2, 0.3, 0.5]], ("t", "v"))
        item = MetaphorItem("m", "v", "t")  # vehicle row has the value
        message = ("typicality row(s) for 't' contain a value at or below 0, infinite or NaN; "
                   "the vehicle stretch is undefined for lam != 0")
        with pytest.raises(DegenerateTypicalityError, match=f"^{re.escape(message)}$"):
            interpret_fast(item, 2.0, table)
        # lam = 0 never touches the vehicle row
        np.testing.assert_allclose(interpret_fast(item, 0.0, table).p, table.row("v"))

    def test_stretch_sharpens_toward_vehicle_argmax(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, 2, 6)
        item = MetaphorItem("m", "c0", "c1")
        uniform_topic = table_from_rows(
            np.vstack([np.full(6, 1 / 6), table.row("c1")]), ("c0", "c1"),
        )
        beta_argmax = int(np.argmax(table.row("c1")))
        previous = None
        for lam in (0.0, 1.0, 4.0, 16.0, 64.0):
            stretched = interpret_fast(item, lam, uniform_topic).p
            if lam > 0:
                assert int(np.argmax(stretched)) == beta_argmax
            if previous is not None:
                assert stretched[beta_argmax] >= previous[beta_argmax] - 1e-12
            previous = stretched


@st.composite
def fast_problems(draw):
    """A 2-5 x 2-6 random table (entries at least 0.1 / n), 1-3 items and 1-4 lams <= 44.43."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cat = draw(st.integers(2, 5))
    table = random_table(rng, n_cat, draw(st.integers(2, 6)))
    pairs = [rng.choice(n_cat, size=2, replace=False) for _ in range(draw(st.integers(1, 3)))]
    items = tuple(MetaphorItem(f"m{k}", f"c{t}", f"c{v}") for k, (t, v) in enumerate(pairs))
    lam = st.one_of(st.sampled_from((0.0, 0.5, 5.0, 44.43)), st.floats(0.0, 44.43))
    return table, items, np.array(draw(st.lists(lam, min_size=1, max_size=4)))


class TestFastModeAccuracy:
    """Fast mode against the 60-digit ``oracle.interpret_fast_decimal``.

    The unit is ``(1 + lam * max|log b|) * eps``.  p's relative error stays within
    ``P_UNITS``; dp's largest error, over the row's largest |dp|, within ``DP_UNITS`` times
    ``max|log b| / (max log b - min log b)``, as dp is built of log b differences that the
    float logs carry only to about ``eps * max|log b|``.  Over 4,000 such tables, 3 items
    at 8 lams each, the largest were 4.0 and 20 units both before and after the derivative
    was taken as ``log b - max(log b)``; taken as ``log b`` it reaches 1e14 units where
    ``b ** lam`` piles p up.
    """

    P_UNITS, DP_UNITS = 8.0, 50.0

    @settings(max_examples=200, deadline=None)
    @given(fast_problems())
    def test_p_and_dp_match_the_decimal_reference(self, problem):
        table, items, lams = problem
        logp, dp = _interpret_lams(items, RsaConfig(mode="fast"), table, lams, gradient=True)
        for j, item in enumerate(items):
            a, b = table.row(item.topic), table.row(item.vehicle)
            logs = np.log(b)
            kappa = np.max(np.abs(logs)) / (np.max(logs) - np.min(logs))
            for lam, row_logp, row_dp in zip(lams, logp[:, j], dp[:, j]):
                want_p, want_dp = map(np.array, oracle.interpret_fast_decimal(a, b, lam))
                unit = (1.0 + lam * np.max(np.abs(logs))) * np.finfo(float).eps
                p_error = np.abs(np.exp(row_logp) - want_p) / want_p
                assert np.max(p_error) <= self.P_UNITS * unit
                dp_error = np.max(np.abs(row_dp - want_dp)) / np.max(np.abs(want_dp))
                assert dp_error <= self.DP_UNITS * unit * kappa


class TestNumericalStability:
    def test_full_scale_lambda(self):
        # n = 59 near-uniform rows at the learned rationality: naive powers
        # of 1/59 are astronomically small, log space must stay finite
        rng = np.random.default_rng(2)
        jitter = rng.uniform(-0.001, 0.001, size=(4, 59))
        values = 1 / 59 + jitter
        values /= values.sum(axis=1, keepdims=True)
        table = table_from_rows(values)
        item = MetaphorItem("m", "c0", "c1")
        for mode in ("full", "fast"):
            d = interpret(item, RsaConfig(lam=44.43, mode=mode), table)
            assert np.isfinite(d.p).all()
            assert d.p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(d.p >= 0)

    @pytest.mark.parametrize("lam", [-100.0, -13.7, 0.0, 13.7, 100.0])
    def test_extreme_lambda_stays_normalized(self, lam):
        rng = np.random.default_rng(int(abs(lam)) + 3)
        table = random_table(rng, 3, 5, floor=0.05)
        item = MetaphorItem("m", "c0", "c2")
        for mode in ("full", "fast"):
            if lam < 0.0:  # outside lambda's domain
                with pytest.raises(ValueError, match=f"^lam must be finite and >= 0, got {lam}$"):
                    RsaConfig(lam=lam, mode=mode)
                continue
            d = interpret(item, RsaConfig(lam=lam, mode=mode), table)
            assert np.isfinite(d.p).all()
            assert d.p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(d.p >= 0)

    @pytest.mark.parametrize("overrides", CONFIGS)
    @pytest.mark.parametrize("lam", [1e15, 1e50, 1e300])
    def test_large_finite_lambda_gives_distributions(self, lam, overrides):
        # every goal-mixture term sits near -lam * c; on the seed-12 table, before the
        # mixture was taken relative to its largest term, three rows summed to 58 at 1e50
        table, items, _ = make_synthetic_dataset(seed=12)
        config = replace(RsaConfig(), **overrides)
        for gradient in (False, True):
            logp, _ = _interpret_lams(items, config, table, (lam,), gradient)
            np.testing.assert_allclose(np.exp(logp[0]).sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_lambda_whose_scores_overflow_is_a_domain_error(self, mode):
        # the seed-12 table's smallest log typicality is -6.38: lam * log T overflows
        # from about 2.8e307 on, and is refused before any arithmetic warns
        table, items, _ = make_synthetic_dataset(seed=12)
        interpret(items[0], RsaConfig(lam=2.8e307, mode=mode), table)
        with pytest.raises(Error, match=r"^lam=2\.9e\+307 is too large for this table"):
            interpret(items[0], RsaConfig(lam=2.9e307, mode=mode), table)


class TestGradient:
    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(6)
        for _ in range(10):
            table = random_table(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            item = MetaphorItem("m", "c0", "c1")
            lam = float(rng.uniform(0.1, 20.0))
            cfg = RsaConfig(lam=lam, mode=mode)
            p, dp = interpret_with_gradient(item, cfg, table)
            h = 1e-5 * max(1.0, lam)
            hi, _ = interpret_with_gradient(item, replace(cfg, lam=lam + h), table)
            lo, _ = interpret_with_gradient(item, replace(cfg, lam=lam - h), table)
            fd = (hi - lo) / (2 * h)
            np.testing.assert_allclose(dp, fd, atol=1e-7)
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
            assert dp.sum() == pytest.approx(0.0, abs=1e-12)


fast_reference = oracle.interpret_fast


@st.composite
def batch_problems(draw):
    """A 2-5 x 2-5 table with entries in (0, 1), a batch of items, lam and a config."""
    n_cat = draw(st.integers(2, 5))
    n_feat = draw(st.integers(2, 5))
    weights = draw(st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=n_feat, max_size=n_feat),
        min_size=n_cat, max_size=n_cat,
    ))
    values = np.array(weights)
    table = table_from_rows(values / values.sum(axis=1, keepdims=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_cat - 1), st.integers(0, n_cat - 1)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        min_size=1, max_size=5,
    ))
    items = tuple(MetaphorItem(f"m{k}", f"c{t}", f"c{v}") for k, (t, v) in enumerate(pairs))
    lam = draw(st.floats(0.0, 60.0))
    config = replace(RsaConfig(lam=lam), **draw(st.sampled_from(CONFIGS)))
    return table, items, config


class TestBatchedKernel:
    @settings(max_examples=120, deadline=None)
    @given(batch_problems())
    def test_rows_match_oracle_single_calls_and_finite_differences(self, problem):
        table, items, config = problem
        lam = config.lam
        logp, dp = _interpret_batch(items, config, table, gradient=True)
        forward, _ = _interpret_batch(items, config, table)
        rows = as_oracle_table(table)
        for item, row_logp, row_dp in zip(items, forward, dp):
            if config.mode == "fast":
                want = fast_reference(rows[item.topic], rows[item.vehicle], lam)
            else:
                utts = list(rows) if config.utterances == "all" else [item.topic, item.vehicle]
                want = oracle.interpret(
                    item.topic, item.vehicle, lam, rows, utterances=utts,
                    category_prior=config.category_prior, goal_prior=config.goal_prior,
                )
            np.testing.assert_allclose(np.exp(row_logp), want, rtol=0, atol=1e-9)
            single = interpret(item, config, table).p
            np.testing.assert_allclose(np.exp(row_logp), single, rtol=0, atol=1e-12)
            p_one, dp_one = interpret_with_gradient(item, config, table)
            np.testing.assert_allclose(p_one, single, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row_dp, dp_one, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.exp(logp), np.exp(forward), rtol=0, atol=1e-12)
        assert np.all(logp <= 0.0) and np.all(forward <= 0.0)

        h = 1e-6 * max(1.0, lam)

        def p_at(x):
            return np.exp(_interpret_batch(items, replace(config, lam=x), table)[0])

        if lam >= h:
            numeric = (p_at(lam + h) - p_at(lam - h)) / (2 * h)
        else:  # second-order one-sided, so the stencil stays on lam >= 0
            numeric = (4 * p_at(lam + h) - 3 * p_at(lam) - p_at(lam + 2 * h)) / (2 * h)
        np.testing.assert_allclose(dp, numeric, rtol=0, atol=1e-6)

    def test_uniform_category_marginal_never_rounds_above_log_one(self):
        # one feature takes nearly all the mass: the two categories' normalized shares
        # of it can round to a log sum above 0 unless the marginal is renormalized
        rows = np.array([[0.61, 0.37], [0.42, 0.9], [0.27, 0.64]])
        table = table_from_rows(rows / rows.sum(axis=1, keepdims=True))
        item = MetaphorItem("m", "c0", "c1")
        config = RsaConfig(category_prior="uniform")
        logp, _ = _interpret_lams((item,), config, table, np.arange(61.0), gradient=True)
        assert np.all(logp <= 0.0)
        interpret(item, replace(config, lam=59.0), table)  # a valid Distribution

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_unknown_noun_raises_as_in_a_single_call(self, two_by_two, overrides):
        table, item = two_by_two
        stray = MetaphorItem("m2", "alpha", "gamma")
        config = replace(RsaConfig(lam=2.0), **overrides)
        with pytest.raises(UnknownCategoryError) as single:
            interpret(stray, config, table)
        with pytest.raises(UnknownCategoryError) as batched:
            _interpret_batch((item, stray, item), config, table)
        assert batched.value.category == single.value.category == "gamma"

    def test_degenerate_pair_row_raises_as_in_a_single_call(self):
        table = table_from_rows([[0.6, 0.4], [0.3, 0.7], [1.0, 0.0]])
        config = RsaConfig(lam=2.0, utterances="pair")
        clean = MetaphorItem("m1", "c0", "c1")
        degenerate = MetaphorItem("m2", "c0", "c2")
        with pytest.raises(DegenerateTypicalityError) as single:
            interpret(degenerate, config, table)
        with pytest.raises(DegenerateTypicalityError) as batched:
            _interpret_batch((clean, degenerate, clean), config, table)
        assert str(batched.value) == str(single.value)
        assert "'c2'" in str(batched.value) and "'c0'" not in str(batched.value)
        # the clean items alone are fine
        _interpret_batch((clean, clean), config, table)

    def test_all_set_rejects_degenerate_bystander_rows_in_table_order(self):
        rows = [[0.6, 0.4], [0.3, 0.7], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]
        table = table_from_rows(rows)
        item = MetaphorItem("m", "c0", "c1")
        with pytest.raises(DegenerateTypicalityError,
                           match=r"row\(s\) for 'c2', 'c4' contain a value at or below 0, "
                                 r"at or above 1, or NaN$"):
            interpret(item, RsaConfig(lam=2.0), table)
        # the pair set never reads the bystanders
        assert np.isfinite(interpret(item, RsaConfig(lam=2.0, utterances="pair"), table).logp).all()

    @pytest.mark.parametrize("value", [-0.01, 1.5])
    def test_values_outside_0_1_are_named_as_found(self, value):
        rows = [[0.6, 0.4], [0.3, 0.7], [value, 0.5]]
        table = table_from_rows(rows)
        with pytest.raises(DegenerateTypicalityError,
                           match=r"^typicality row\(s\) for 'c2' contain a value at or below 0, "
                                 r"at or above 1, or NaN$"):
            interpret(MetaphorItem("m", "c0", "c1"), RsaConfig(lam=2.0), table)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.01], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("role", ["topic", "vehicle"])
    def test_non_finite_or_negative_cell_is_named_before_any_arithmetic(self, role, value, mode):
        # a NaN once passed every row check, as did fast mode's topic rows and an infinite
        # vehicle cell; the kernel then warned, or Distribution raised a bare ValueError
        table, items, _ = make_synthetic_dataset(seed=12)
        category = getattr(items[0], role)
        values = table.values.copy()
        values[table.category_index(category), 7] = value
        broken = table_from_rows(values, table.categories, table.vocab.features)
        found = {
            "full": "contain a value at or below 0, at or above 1, or NaN",
            "topic": "contain a value below 0, infinite or NaN",
            "vehicle": "contain a value at or below 0, infinite or NaN; "
                       "the vehicle stretch is undefined for lam != 0",
        }["full" if mode == "full" else role]
        message = f"typicality row(s) for {category!r} {found}"
        with pytest.raises(DegenerateTypicalityError, match=f"^{re.escape(message)}$"):
            interpret(items[0], RsaConfig(lam=2.0, mode=mode), broken)

    @pytest.mark.parametrize("call", [
        lambda items, human, table: evaluation.evaluate(items, human, RsaConfig(lam=2.0), table),
        lambda items, human, table: learn.learn_lambda_multistart(items, human, RsaConfig(),
                                                                  table),
        lambda items, human, table: evaluation.feature_correlation_matrix(
            items, "model", RsaConfig(lam=2.0), table),
    ], ids=["evaluate", "fit", "correlations"])
    def test_nan_cell_is_named_on_every_scoring_path(self, call):
        # evaluate raised "p is not a distribution", the fit "objective is not finite" and
        # the model correlations came back all NaN
        table, items, human = make_synthetic_dataset(seed=12)
        values = table.values.copy()
        values[table.category_index(items[0].topic), 7] = math.nan
        broken = table_from_rows(values, table.categories, table.vocab.features)
        with pytest.raises(DegenerateTypicalityError, match=f"^typicality row\\(s\\) for "
                                                            f"{re.escape(repr(items[0].topic))} "):
            call(items, human, broken)

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_empty_batch_rejected(self, two_by_two, overrides):
        table, _ = two_by_two
        with pytest.raises(ValueError):
            _interpret_batch((), replace(RsaConfig(), **overrides), table)


# grid points that tie (0.0 and -0.0 give the same objective) or repeat
GRID_POINTS = (0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 30.0)
CHUNK = 3  # grid points per kernel call in the ablation tests below


@st.composite
def lambda_problems(draw):
    """A batch problem with a vector of lams (one chunk, +1, or a single lam) and human rows."""
    table, items, config = draw(batch_problems())
    size = draw(st.sampled_from((1, CHUNK, CHUNK + 1)))
    lams = draw(st.lists(st.one_of(st.sampled_from(GRID_POINTS), st.floats(0.0, 60.0)),
                         min_size=size, max_size=size))
    rows = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=table.n, max_size=table.n).filter(
            lambda row: sum(row) > 0.1
        ),
        min_size=len(items), max_size=len(items),
    ))
    human = HumanResponseTable(
        table.vocab, {item.id: np.array(row) / sum(row) for item, row in zip(items, rows)}
    )
    kind = draw(st.sampled_from(("mean", "pooled")))
    return table, items, config, np.array(lams), human, kind


def per_point_pick(grid, items, human, config, table, kind):
    """The grid ablation as a loop over learn.objective: its pick, or the error it raises."""
    try:
        scores = [learn.objective(lam, items, human, config, table, kind) for lam in grid]
        best = float(grid[int(np.argmax(scores))])
        evaluation.evaluate(items, human, replace(config, lam=best), table, ks=(1,))
    except Error as exc:
        return exc
    return best


def chunked_pick(grid, items, human, config, table, kind):
    """The grid ablation's pick, CHUNK points per kernel call, or the error it raises."""
    with mock.patch.object(learn, "_GRID_CHUNK_CELLS", CHUNK * table.values.size):
        try:
            best, _ = evaluation.ablate_lambda_interpolation(
                items, human, config, table, grid=grid, train=items, objective_kind=kind,
                ks=(1,),
            )
        except Error as exc:
            return exc
    return best


def assert_same_pick(got, want):
    if isinstance(want, Error):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert repr(got) == repr(want)  # tells -0.0 from 0.0: ties go to the earlier point


class TestLambdaAxis:
    @settings(max_examples=80, deadline=None)
    @given(lambda_problems())
    def test_every_lambda_slice_equals_its_own_call(self, problem):
        table, items, config, lams, _, _ = problem
        logp, dp = _interpret_lams(items, config, table, lams, gradient=True)
        forward, none = _interpret_lams(items, config, table, lams, gradient=False)
        assert none is None and logp.shape == dp.shape == (lams.size, len(items), table.n)
        rows = as_oracle_table(table)
        for lam, lam_logp, lam_dp, lam_forward in zip(lams, logp, dp, forward):
            single = replace(config, lam=float(lam))
            one_logp, one_dp = _interpret_batch(items, single, table, gradient=True)
            np.testing.assert_array_equal(lam_logp, one_logp)
            np.testing.assert_array_equal(lam_dp, one_dp)
            np.testing.assert_array_equal(lam_forward, _interpret_batch(items, single, table)[0])
            for item, row in zip(items, lam_forward):
                if config.mode == "fast":
                    want = fast_reference(rows[item.topic], rows[item.vehicle], lam)
                else:
                    utts = list(rows) if config.utterances == "all" else [item.topic, item.vehicle]
                    want = oracle.interpret(
                        item.topic, item.vehicle, lam, rows, utterances=utts,
                        category_prior=config.category_prior, goal_prior=config.goal_prior,
                    )
                np.testing.assert_allclose(np.exp(row), want, rtol=0, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(lambda_problems())
    def test_chunked_grid_picks_as_a_per_point_loop(self, problem):
        table, items, config, grid, human, kind = problem
        assert_same_pick(chunked_pick(grid, items, human, config, table, kind),
                         per_point_pick(grid, items, human, config, table, kind))

    @pytest.mark.parametrize("grid, error, lam", [
        ([1.0, 2.0, 3.0, 0.0, 5.0], "ZeroVarianceError", "0.0"),  # in the second chunk
        ([1.0, 0.0, 0.0, 4.0], "ZeroVarianceError", "0.0"),
        ([0.0, 0.0, 0.0, 2.0], "Error", "2.0"),
        ([0.0, 1.5, 3.0], "Error", "1.5"),
    ])
    def test_undefined_objective_names_the_first_point(self, monkeypatch, grid, error, lam):
        # fast mode: at lam 0 the output is the topic row (uniform, so constant); for
        # "Error" the topic rows vary, and a NaN in the output off lam 0 makes the objective
        # NaN there (a NaN typicality is refused before scoring)
        table = table_from_rows([[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1],
                                 [0.1, 0.6, 0.2, 0.1]])
        items = (MetaphorItem("m0", "c0", "c1"), MetaphorItem("m1", "c0", "c3"))
        if error == "Error":
            items = (MetaphorItem("m0", "c1", "c3"), MetaphorItem("m1", "c2", "c3"))
            kernel = learn._interpret_lams

            def nan_off_zero(batch, config, table, lams, *args, **kwargs):
                logp, dp = kernel(batch, config, table, lams, *args, **kwargs)
                logp[np.asarray(lams) != 0.0] = np.nan
                return logp, dp

            monkeypatch.setattr(learn, "_interpret_lams", nan_off_zero)
        human = HumanResponseTable(table.vocab, {
            "m0": np.array([0.1, 0.2, 0.3, 0.4]), "m1": np.array([0.5, 0.1, 0.1, 0.3]),
        })
        config = RsaConfig(mode="fast")
        want = per_point_pick(np.array(grid), items, human, config, table, "mean")
        assert type(want).__name__ == error and str(want).endswith(f"at lam={lam}")
        assert_same_pick(chunked_pick(np.array(grid), items, human, config, table, "mean"), want)

    @pytest.mark.parametrize("grid, want", [
        ([5.0, -0.0, 0.0, 2.0], "-0.0"),  # both in the first chunk
        ([5.0, 3.0, 0.0, -0.0], "0.0"),  # one chunk each
    ])
    def test_ties_go_to_the_earlier_point(self, grid, want):
        # fast mode at lam = +-0 returns the topic rows, which are the human rows: r = 1
        table = table_from_rows([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1],
                                 [0.1, 0.6, 0.2, 0.1]])
        items = (MetaphorItem("m0", "c0", "c1"), MetaphorItem("m1", "c2", "c1"))
        human = HumanResponseTable(table.vocab, {"m0": table.row("c0"), "m1": table.row("c2")})
        config = RsaConfig(mode="fast")
        got = chunked_pick(np.array(grid), items, human, config, table, "mean")
        assert_same_pick(got, per_point_pick(np.array(grid), items, human, config, table, "mean"))
        assert repr(got) == want

    def test_fast_mode_at_lambda_zero_is_the_topic_row_on_every_path(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = random_table(rng, 3, int(rng.integers(2, 9)))
            item = MetaphorItem("m", "c0", "c2")
            fast = interpret_fast(item, 0.0, table).p
            p, dp = interpret_with_gradient(item, RsaConfig(lam=0.0, mode="fast"), table)
            np.testing.assert_array_equal(p, fast)
            np.testing.assert_array_equal(fast, np.exp(np.log(table.row("c0"))))
            assert dp.sum() == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_lambda_rejected(self, two_by_two):
        table, item = two_by_two
        with pytest.raises(ValueError, match="finite"):
            _interpret_lams((item,), RsaConfig(), table, [1.0, math.inf], gradient=False)


class TestLambdaAxisFullScale:
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_a_grid_chunk_equals_its_per_lambda_calls(self, full_scale, overrides):
        # a 48-row speaker block: its column extremes shift every lam of the chunk
        table, items, _ = full_scale
        config = replace(RsaConfig(), **overrides)
        lams = evaluation.lambda_grid(*evaluation.DEFAULT_GRID)[:16]
        forward, _ = _interpret_lams(items, config, table, lams, gradient=False)
        logp, dp = _interpret_lams(items, config, table, lams, gradient=True)
        for lam, lam_forward, lam_logp, lam_dp in zip(lams, forward, logp, dp):
            single = replace(config, lam=float(lam))
            np.testing.assert_array_equal(lam_forward, _interpret_batch(items, single, table)[0])
            one_logp, one_dp = _interpret_batch(items, single, table, gradient=True)
            np.testing.assert_array_equal(lam_logp, one_logp)
            np.testing.assert_array_equal(lam_dp, one_dp)


def five_pass_norm(lam, x, axis):
    """logsumexp of lam * x as five passes over the score block: max, subtract, exp, sum, log."""
    scores = lam * x
    m = np.max(scores, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(scores - m), axis=axis, keepdims=True)) + m


@st.composite
def speaker_blocks(draw):
    """Log utilities as one (1, K, n) table block or a (B, 2, n) pair block, vehicle rows, lams."""
    n_cat = draw(st.integers(2, 6))
    n_feat = draw(st.integers(2, 6))
    weights = draw(st.lists(
        st.lists(st.floats(1e-6, 1.0), min_size=n_feat, max_size=n_feat),
        min_size=n_cat, max_size=n_cat,
    ))
    values = np.array(weights)
    table = table_from_rows(values / values.sum(axis=1, keepdims=True))
    logs = draw(st.sampled_from((table.log_values, table.log1m_values)))
    rows = st.lists(st.integers(0, n_cat - 1), min_size=1, max_size=4)
    vehicles = np.array(draw(rows))
    if draw(st.booleans()):
        log_u = logs[None]
    else:
        topics = np.array(draw(st.lists(st.integers(0, n_cat - 1),
                                        min_size=vehicles.size, max_size=vehicles.size)))
        log_u = logs[np.stack([topics, vehicles], axis=1)]
    lams = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
    return log_u, logs[vehicles], np.array([*lams, 0.0, -0.0])


class TestSpeakerNormalizer:
    @settings(max_examples=200, deadline=None)
    @given(speaker_blocks())
    def test_bits_equal_the_five_pass_formula(self, block):
        log_u, log_v, lams = block
        lam = lams[:, None, None]
        want = five_pass_norm(lam[..., None], log_u, -2)
        norm, _ = _logsumexp(log_u, -2, lam[..., None])
        np.testing.assert_array_equal(norm, want)
        log_s, dlog = _speaker(lam, log_u, log_v, gradient=True)
        np.testing.assert_array_equal(log_s, lam * log_v - want[..., 0, :])
        # the derivative: the utilities' mean under the softmax weights, one exp pass
        scores = lam[..., None] * log_u
        weights = np.exp(scores - np.max(scores, axis=-2, keepdims=True))
        weights = weights / np.sum(weights, axis=-2, keepdims=True)
        np.testing.assert_array_equal(dlog, log_v - np.sum(weights * log_u, axis=-2))
        np.testing.assert_array_equal(_speaker(lam, log_u, log_v, gradient=False)[0], log_s)
        # pragmatic_speaker normalizes lam * log T along a 1-D row of utilities the same way
        np.testing.assert_array_equal(_logsumexp(log_v, -1, lam)[0], five_pass_norm(lam, log_v, -1))


@st.composite
def exclusive_rows(draw):
    """A row of log terms spread over up to 1,500 nats, with ties and -inf, and weights."""
    n = draw(st.integers(1, 12))
    spread = draw(st.sampled_from((1.0, 40.0, 800.0, 1500.0)))
    entry = st.one_of(st.floats(-spread, 0.0), st.just(0.0), st.just(-math.inf))
    x = draw(st.lists(entry, min_size=n, max_size=n).filter(
        lambda row: any(math.isfinite(v) for v in row)
    ))
    offset = draw(st.floats(-700.0, 700.0))
    d = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return np.array(x) + offset, np.array(d)


class TestLogaddexp:
    def test_special_values_match_numpy_exactly(self):
        # equal infinities make min - max NaN; the helper takes it as 0, with no warning
        values = np.array([math.inf, -math.inf, math.nan, 0.0, -1.0, 5.0])
        x, y = np.meshgrid(values, values)
        with np.errstate(all="raise"):
            got = _logaddexp(x, y.copy(), out=np.empty_like(x))
        with np.errstate(invalid="ignore"):  # numpy's own flags its NaN arguments
            want = np.logaddexp(x, y)
        np.testing.assert_array_equal(got, want)

    def test_within_two_ulp_of_numpy(self):
        # the vectorized exp and log1p round differently from numpy's scalar loop: over
        # 3.6M pairs at scales 1e-6 to 1e300 the largest gap was 2.0 ulp of
        # max(|x|, |y|, ln 2), at scales near 500, and most pairs agree exactly
        rng = np.random.default_rng(7)
        for scale in 10.0 ** np.concatenate((np.arange(-6.0, 4.0), np.linspace(4.0, 300.0, 8))):
            x = rng.uniform(-1.0, 1.0, 20_000) * scale
            y = x + rng.uniform(-1.0, 1.0, x.size) * scale * rng.choice([1e-12, 1e-2, 1.0, 10.0],
                                                                         x.size)
            got = _logaddexp(x, y.copy(), out=np.empty_like(x))
            ulp = np.spacing(np.maximum(np.maximum(abs(x), abs(y)), math.log(2.0)))
            assert np.all(abs(got - np.logaddexp(x, y)) <= 2.0 * ulp)


class TestExclusiveSums:
    @settings(max_examples=300, deadline=None)
    @given(exclusive_rows())
    # a near-tie with the peak: summing the off-peak terms as the row total less t_i is
    # 1.68 eps off at i = 0, against the 1.5 eps bound; the sum as built is 0.84 eps off
    @example(row=(np.array([-0.7366568017295327, -2.305550996688763, -0.6350242278225315]),
                  np.zeros(3)))
    def test_sums_match_fsum(self, row):
        x, d = row
        n = x.size
        first, second, top, sums, weighted = _exclusive_sums(x[None].copy(), d[None].copy())
        *_, forward_sums, none = _exclusive_sums(x[None].copy())
        assert none is None
        np.testing.assert_array_equal(forward_sums, sums)
        assert top.tolist() == [np.argmax(x)]
        shift = np.where(np.arange(n) == top[0], second, first)
        # recursive summation of n positive terms: at most n - 2 roundings of half an ulp
        rtol = n * np.finfo(float).eps / 2
        for i in range(n):
            others = [j for j in range(n) if j != i and math.isfinite(x[j])]
            if not others:
                assert sums[0, i] == 0.0 and weighted[0, i] == 0.0
                continue
            peak = max(x[j] for j in others)
            terms = [math.exp(x[j] - peak) for j in others]
            assert shift[0, i] == peak
            assert abs(sums[0, i] - math.fsum(terms)) <= rtol * math.fsum(terms)
            scale = math.fsum(t * abs(d[j]) for t, j in zip(terms, others))
            want = math.fsum(t * d[j] for t, j in zip(terms, others))
            assert abs(weighted[0, i] - want) <= 1e-12 * max(scale, 1.0)

    def test_peaks_are_found_and_written_by_flat_index(self):
        # rows along both leading axes, a tied peak (the first is the peak), a row whose
        # other entries are all -inf, and a row whose peak is its last entry
        inf = math.inf
        x = np.array([[[0.0, 0.0, -1.0, -inf], [-inf, -inf, 3.0, -inf], [-1.0, 5.0, 5.0, 5.0]],
                      [[2.0, -inf, 1.0, 0.0], [-3.0, -2.0, -1.0, 0.0], [7.0, 7.0, 7.0, 7.0]]])
        d = np.arange(24.0).reshape(x.shape) / 7.0 - 1.0
        peak, second, top, sums, weighted = _exclusive_sums(x.copy(), d.copy())
        assert top.tolist() == [[0, 6, 9], [12, 19, 20]]
        assert peak[..., 0].tolist() == [[0.0, 3.0, 5.0], [2.0, 0.0, 7.0]]
        assert second[..., 0].tolist() == [[0.0, -inf, 5.0], [1.0, -1.0, 7.0]]
        e = math.exp(-1.0)
        assert sums[0, 0].tolist() == [1.0 + e, 1.0 + e, 2.0, 2.0 + e]
        assert sums[0, 1].tolist() == [1.0, 1.0, 0.0, 1.0]
        # each row as it comes out of a call on that row alone
        for row in np.ndindex(x.shape[:-1]):
            alone = _exclusive_sums(x[row][None].copy(), d[row][None].copy())
            assert alone[2].tolist() == [top[row] % x.shape[-1]]
            for got, want in zip((peak, second, sums, weighted), alone[:2] + alone[3:]):
                np.testing.assert_array_equal(got[row], want[0])


class TestGoalMixtureAccuracy:
    @pytest.mark.parametrize("overrides", [{}, {"utterances": "pair"},
                                           {"category_prior": "uniform"}])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.88, 44.43])
    def test_terms_spanning_e700_match_the_oracle(self, lam, overrides):
        # the topic row, the goal prior, spans e^-700 to 1, and with it the goal
        # mixture's no-match terms R(g_j) S1(v | g_j, e_i).  At the peak goal the
        # vehicle's match term is small, so the sum over the other goals (e^-20
        # of the peak's term and below) carries that feature.
        topic = [math.exp(-700.0), math.exp(-350.0), math.exp(-40.0), math.exp(-20.0)]
        rows = [topic + [1.0 - sum(topic)],
                [0.3, 0.3, 0.2, 0.15, 0.05], [0.3, 0.1, 0.2, 0.1, 0.3], [0.2, 0.2, 0.2, 0.3, 0.1]]
        table = table_from_rows(rows)
        config = replace(RsaConfig(lam=lam), **overrides)
        ref = as_oracle_table(table)
        utts = list(ref) if config.utterances == "all" else ["c0", "c1"]
        terms = [math.log(r * oracle.pragmatic_speaker("c1", g, (g + 1) % 5, lam, ref, utts))
                 for g, r in enumerate(rows[0])]
        assert max(terms) - min(terms) > 650.0
        want = oracle.interpret("c0", "c1", lam, ref, utterances=utts,
                                category_prior=config.category_prior)
        got = interpret(MetaphorItem("m", "c0", "c1"), config, table).p
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def forced_flush(on):
    """Every exp the kernel may flush flushes (``on``) or none does, whatever its gate says."""
    return mock.patch.object(engine, "_exp", lambda x, flush: _exp(x, on))


def bits(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


# The flush moves a term only below 2**54 * exp(-700) = 1.8e-288; a result made of such terms
# alone (a derivative whose terms of about 1 carry an exact 0) stays far below this.
UNDERFLOW = 1e-280


def assert_same_above_underflow(got, want):
    """``got`` has ``want``'s bits wherever either is at least :data:`UNDERFLOW` in size."""
    assert got.shape == want.shape
    moved = got.view(np.int64) != want.view(np.int64)
    assert np.all(np.maximum(np.abs(got), np.abs(want))[moved] < UNDERFLOW)


FLUSH_LAMS = (0.5, 5.0, 44.43, 1e3, 1e4, 1e5)


@st.composite
def flush_problems(draw):
    """A 2-5 x 2-5 table with entries spanning 1e-6 to 1, a batch, a config and 1-4 lams <= 1e5."""
    n_cat = draw(st.integers(2, 5))
    n_feat = draw(st.integers(2, 5))
    weights = np.array(draw(st.lists(
        st.lists(st.floats(1e-6, 1.0), min_size=n_feat, max_size=n_feat),
        min_size=n_cat, max_size=n_cat,
    )))
    table = table_from_rows(weights / weights.sum(axis=1, keepdims=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_cat - 1), st.integers(0, n_cat - 1)).filter(
            lambda pair: pair[0] != pair[1]
        ),
        min_size=1, max_size=4,
    ))
    items = tuple(MetaphorItem(f"m{k}", f"c{t}", f"c{v}") for k, (t, v) in enumerate(pairs))
    lams = draw(st.lists(st.one_of(st.sampled_from(FLUSH_LAMS), st.floats(0.0, 1e5)),
                         min_size=1, max_size=4))
    config = replace(RsaConfig(), **draw(st.sampled_from(CONFIGS)))
    return table, items, config, np.array(lams)


@pytest.fixture(scope="module")
def seed12_train():
    table, items, human = make_synthetic_dataset(seed=12)
    by_id = {item.id: item for item in items}
    return table, human, tuple(by_id[i] for i in make_split(items, 0).train)


class TestUnderflowFlush:
    """Flushing exps below exp(-700) to 0 keeps the bits the kernel and the fit return.

    Exactly so for log p everywhere and for the full-scale data; a derivative entry built
    only of terms the flush may move can differ, and is then below :data:`UNDERFLOW`.
    """

    def test_special_values(self):
        # exp(-650) is above 2**54 * exp(-700), so the subtraction leaves it as it is
        x = np.array([-np.inf, -800.0, -745.0, -700.5, -650.0, -1.0, 0.0, 2.0, np.inf, np.nan])
        got = _exp(x.copy(), True)
        np.testing.assert_array_equal(got[:4], 0.0)
        assert not np.signbit(got[:4]).any()
        np.testing.assert_array_equal(got[4:9], np.exp(x[4:9]))
        assert np.isnan(got[9])
        np.testing.assert_array_equal(_exp(x.copy(), False), np.exp(x))

    @pytest.mark.parametrize("overrides", CONFIGS)
    @pytest.mark.parametrize("gradient", [True, False], ids=["gradient", "forward"])
    def test_full_scale_bits(self, seed12_train, overrides, gradient):
        table, human, train = seed12_train
        config = replace(RsaConfig(), **overrides)

        def run(on):
            with forced_flush(on):
                together = _interpret_lams(train, config, table, FLUSH_LAMS, gradient)
                alone = [_interpret_lams(train, config, table, [lam], gradient)
                         for lam in FLUSH_LAMS]
                points = learn._points(FLUSH_LAMS, train, human, config, table, "mean", gradient)
            return bits(together) + [bits(pair) for pair in alone], repr(points)

        assert run(True) == run(False)

    @settings(max_examples=150, deadline=None)
    @given(flush_problems())
    def test_small_table_bits(self, problem):
        table, items, config, lams = problem

        def run(on):
            with forced_flush(on):
                try:
                    return _interpret_lams(items, config, table, lams, gradient=True)
                except Error as exc:
                    return repr(exc)

        got, want = run(True), run(False)
        if isinstance(want, str):
            assert got == want
            return
        logp, dp = got
        assert logp.tobytes() == want[0].tobytes()
        assert_same_above_underflow(dp, want[1])

    @settings(max_examples=300, deadline=None)
    @given(exclusive_rows())
    def test_exclusive_sums_bits(self, row):
        x, d = row
        got, want = (_exclusive_sums(x.copy(), d.copy(), flush) for flush in (True, False))
        assert bits(got[:4]) == bits(want[:4])
        assert_same_above_underflow(got[4], want[4])  # a weighted sum may have 0 beside its 1

    def test_gate(self, monkeypatch, seed12_train):
        # the seed-12 table's largest |log T| or |log(1 - T)| is 6.38, so a call flushes once
        # its largest lam passes about 110: never in the grid ablation (lam <= 100), and in
        # the scan's top chunk at every exp but the final normalizer's
        table, _, train = seed12_train
        flags = []
        monkeypatch.setattr(engine, "_exp", lambda x, flush: flags.append(flush) or _exp(x, flush))
        _interpret_lams(train, RsaConfig(), table, evaluation.lambda_grid(0.5, 100.0, 16), True)
        assert flags == [False] * 8
        flags.clear()
        _interpret_lams(train, RsaConfig(), table, learn._SCAN[-16:], True)
        assert flags == [True] * 7 + [False]
