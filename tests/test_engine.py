"""Engine tests: each agent against hand values and the brute-force oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import as_oracle_table, random_table, table_from_rows
from rsa_metaphor import (
    Distribution,
    MetaphorItem,
    RsaConfig,
    interpret,
    interpret_fast,
    literal_listener,
    pragmatic_listener,
    pragmatic_speaker,
    relevance,
    speaker_utility,
)
from rsa_metaphor.engine import _goal_log_weights, _interpret_batch, interpret_with_gradient
from rsa_metaphor.errors import DegenerateTypicalityError, UnknownCategoryError

# the five configurations every evaluation path is checked in
CONFIGS = (
    {},
    {"utterances": "pair"},
    {"mode": "fast"},
    {"category_prior": "uniform"},
    {"goal_prior": "uniform"},
)


class TestDistribution:
    def test_from_probs_roundtrip(self):
        d = Distribution.from_probs(("a", "b", "c"), [0.5, 0.3, 0.2])
        np.testing.assert_allclose(d.p, [0.5, 0.3, 0.2])
        assert d.prob("b") == pytest.approx(0.3)

    def test_from_probs_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Distribution.from_probs(("a", "b"), [0.7, 0.7])
        with pytest.raises(ValueError):
            Distribution.from_probs(("a", "b"), [-0.1, 1.1])

    def test_from_log_scores_normalizes(self):
        d = Distribution.from_log_scores((0, 1), [math.log(0.6), math.log(0.3)])
        np.testing.assert_allclose(d.p, [2 / 3, 1 / 3], atol=1e-15)

    def test_softmax_shift_invariance(self):
        scores = np.array([0.3, -1.2, 4.0, 0.0])
        base = Distribution.from_log_scores(range(4), scores)
        shifted = Distribution.from_log_scores(range(4), scores + 123.456)
        np.testing.assert_allclose(shifted.p, base.p, atol=1e-12)

    def test_top_k_breaks_ties_by_index(self):
        d = Distribution.from_probs(("a", "b", "c"), [0.25, 0.375, 0.375])
        assert d.top_k(1) == ("b",)
        assert d.top_k(2) == ("b", "c")
        assert d.argmax() == "b"

    def test_zero_mass_rejected(self):
        from rsa_metaphor.errors import ZeroMassError

        with pytest.raises(ZeroMassError):
            Distribution.from_log_scores(("a", "b"), [-np.inf, -np.inf])


class TestLiteralListener:
    def test_off_category_mass_is_zero(self, two_by_two):
        table, _ = two_by_two
        d = literal_listener("alpha", table)
        assert d.prob(("beta", "f1")) == 0.0
        assert d.prob(("beta", "f2")) == 0.0

    def test_on_category_mass_is_the_typicality_row(self, two_by_two):
        table, _ = two_by_two
        d = literal_listener("alpha", table)
        assert d.prob(("alpha", "f1")) == pytest.approx(0.6)
        assert d.prob(("alpha", "f2")) == pytest.approx(0.4)

    def test_total_mass_is_one(self, two_by_two):
        table, _ = two_by_two
        assert literal_listener("beta", table).p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle(self, two_by_two):
        table, _ = two_by_two
        d = literal_listener("beta", table)
        ref = oracle.literal_listener("beta", as_oracle_table(table))
        for (c, i), value in ref.items():
            assert d.prob((c, table.vocab.features[i])) == pytest.approx(value, abs=1e-12)


class TestSpeakerUtility:
    def test_matching_state(self, two_by_two):
        table, _ = two_by_two
        # goal 0 communicated by state e_0: listener mass is the typicality itself
        assert speaker_utility("alpha", 0, 0, table) == pytest.approx(math.log(0.6), abs=1e-12)

    def test_non_matching_state(self, two_by_two):
        table, _ = two_by_two
        assert speaker_utility("alpha", 0, 1, table) == pytest.approx(math.log(0.4), abs=1e-12)

    def test_matches_oracle_everywhere(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, 3, 4)
        ref = as_oracle_table(table)
        for u in table.categories:
            for g in range(4):
                for f in range(4):
                    assert speaker_utility(u, g, f, table) == pytest.approx(
                        oracle.speaker_utility(u, g, f, ref), abs=1e-12
                    )

    def test_zero_log_argument_raises(self):
        table = table_from_rows([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(DegenerateTypicalityError):
            speaker_utility("c0", 1, 1, table)  # mass is T=0
        with pytest.raises(DegenerateTypicalityError):
            speaker_utility("c0", 0, 1, table)  # mass is 1-T=0


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


class TestRelevance:
    def test_topic_row_is_the_goal_prior(self, two_by_two):
        table, _ = two_by_two
        np.testing.assert_allclose(relevance("alpha", table).p, [0.6, 0.4], atol=1e-15)

    def test_uniform_topic_row_gives_uniform_goals(self):
        table = table_from_rows([[0.5, 0.5], [0.3, 0.7]])
        np.testing.assert_allclose(relevance("c0", table).p, [0.5, 0.5], atol=1e-15)

    def test_uniform_goal_prior_ablation(self, two_by_two):
        table, _ = two_by_two
        cfg = RsaConfig(goal_prior="uniform")
        weights = np.exp(_goal_log_weights(cfg, np.log(table.row("alpha"))))
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_uniform_goal_prior_never_reads_the_topic_row(self):
        # the ablated goal channel must be blind to the topic: a topic row
        # of NaNs cannot leak into the weights
        cfg = RsaConfig(goal_prior="uniform")
        weights = np.exp(_goal_log_weights(cfg, np.full(2, np.nan)))
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)


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

    def test_requires_full_mode(self, two_by_two):
        table, item = two_by_two
        with pytest.raises(ValueError):
            pragmatic_listener(item, RsaConfig(mode="fast"), table)

    def test_feature_space_size_must_match(self, two_by_two):
        from rsa_metaphor import OneHotSpace

        table, item = two_by_two
        with pytest.raises(ValueError):
            pragmatic_listener(item, RsaConfig(), table, space=OneHotSpace(5))
        with pytest.raises(ValueError):
            literal_listener("alpha", table, space=OneHotSpace(5))

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

    def test_zero_vehicle_entry_rejected_for_nonzero_lambda(self):
        table = table_from_rows([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], ("t", "v"))
        item = MetaphorItem("m", "v", "t")  # vehicle row has the zero
        with pytest.raises(DegenerateTypicalityError):
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
            d = interpret(item, RsaConfig(lam=lam, mode=mode), table)
            assert np.isfinite(d.p).all()
            assert d.p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(d.p >= 0)


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


def fast_reference(topic_row, vehicle_row, lam):
    """a_i * b_i**lam, normalized, with math.*: the oracle has no fast mode."""
    logs = [math.log(a) + lam * math.log(b) for a, b in zip(topic_row, vehicle_row)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return [w / sum(weights) for w in weights]


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

        h = 1e-6 * max(1.0, lam)
        hi, _ = _interpret_batch(items, replace(config, lam=lam + h), table)
        lo, _ = _interpret_batch(items, replace(config, lam=lam - h), table)
        central = (np.exp(hi) - np.exp(lo)) / (2 * h)
        np.testing.assert_allclose(dp, central, rtol=0, atol=1e-6)

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

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_empty_batch_rejected(self, two_by_two, overrides):
        table, _ = two_by_two
        with pytest.raises(ValueError):
            _interpret_batch((), replace(RsaConfig(), **overrides), table)
