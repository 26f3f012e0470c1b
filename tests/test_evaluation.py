"""Report assembly, aggregates, ablations, and correlation-matrix tests."""

import json
import math
import re
import statistics
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import random_table, table_from_rows
from rsa_metaphor import (
    FeatureVocab,
    HumanResponseTable,
    MetaphorItem,
    RsaConfig,
    ablate_lambda_interpolation,
    ablate_relevance,
    evaluate,
    feature_correlation_matrix,
    interpret,
    learn_lambda,
    learn_lambda_multistart,
    make_split,
)
from rsa_metaphor import engine, evaluation, learn
from rsa_metaphor.errors import DatasetError, ZeroVarianceError
from rsa_metaphor.evaluation import lambda_grid, matrix_csv_rows, report_csv_rows, report_to_dict
from rsa_metaphor.learn import TrainTestSplit
from rsa_metaphor.metrics import pearson


def perfect_fixture(seed=0, n_items=2):
    """Items whose human distribution is exactly the model output."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, 2 * n_items, 6)
    items = tuple(
        MetaphorItem(f"m{i}", f"c{i}", f"c{i + n_items}",
                     "inherent" if i % 2 == 0 else "non_inherent")
        for i in range(n_items)
    )
    cfg = RsaConfig(lam=3.0)
    human = HumanResponseTable(
        table.vocab, {it.id: interpret(it, cfg, table).p for it in items}
    )
    return table, items, human, cfg


def count_kernel_calls(monkeypatch):
    """Record every kernel call, through the engine's name or the fit's."""
    calls = []
    for module in (engine, learn):
        def spy(*args, kernel=module._interpret_lams, name=module.__name__, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, "_interpret_lams", spy)
    return calls


class TestEvaluate:
    def test_no_items_rejected(self, full_scale):
        table, _, human = full_scale
        with pytest.raises(ValueError, match="^no items to evaluate$"):
            evaluate((), human, RsaConfig(), table)

    def test_perfect_model_metrics(self):
        table, items, human, cfg = perfect_fixture()
        report = evaluate(items, human, cfg, table)
        for entry in report.items:
            assert entry.pearson_r == pytest.approx(1.0, abs=1e-9)
            assert entry.jsd == pytest.approx(0.0, abs=1e-9)
            assert entry.agreement[1] == 1
            assert entry.agreement[3] == 3
        stats = report.groups["all"]
        assert stats.mean_pearson == pytest.approx(1.0, abs=1e-9)
        assert stats.top1_match_count == len(items)
        assert stats.argmax_in_human_top_rate == 1.0

    @pytest.mark.parametrize("ks, bad", [((-2, 3), "-2"), ((0, 3), "0"), ((3, 60), "60"),
                                         ((), "none")], ids=["-2,3", "0,3", "3,60", "empty"])
    def test_every_k_is_checked_before_scoring(self, full_scale, monkeypatch, ks, bad):
        def no_model_work(*args, **kwargs):
            raise AssertionError("model work before the k check")

        monkeypatch.setattr(evaluation, "_interpret_batch", no_model_work)
        table, items, human = full_scale
        with pytest.raises(ValueError, match=rf"^k must be in \[1, {table.n}\], got {bad}$"):
            evaluate(items, human, RsaConfig(lam=5.0), table, ks=ks)

    def test_aggregates_recompute_from_items(self, full_scale):
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table)
        for name, group in report.groups.items():
            if name == "all":
                subset = report.items
            else:
                subset = [e for e in report.items if e.inherence == name]
            rs = [e.pearson_r for e in subset]
            js = [e.jsd for e in subset]
            assert group.n_items == len(subset)
            assert group.mean_pearson == pytest.approx(float(np.mean(rs)), abs=1e-12)
            assert group.sd_pearson == pytest.approx(float(np.std(rs, ddof=1)), abs=1e-12)
            assert group.mean_jsd == pytest.approx(float(np.mean(js)), abs=1e-12)
            assert group.top1_match_count == sum(e.agreement[1] >= 1 for e in subset)
            assert group.mean_agreement[3] == pytest.approx(
                float(np.mean([e.agreement[3] for e in subset])), abs=1e-12
            )

    def test_split_adds_train_test_groups(self, full_scale):
        table, items, human = full_scale
        split = make_split(items, 7)
        report = evaluate(items, human, RsaConfig(lam=10.0), table, split=split)
        assert report.groups["train"].n_items == 18
        assert report.groups["test"].n_items == 6

    def test_custom_ks(self, full_scale):
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table, ks=(2, 5))
        assert set(report.items[0].agreement) == {2, 5}
        assert len(report.items[0].model_top) == 5
        default = evaluate(items, human, RsaConfig(lam=10.0), table)
        assert report.groups["all"].top1_match_count == default.groups["all"].top1_match_count

    def test_mode_divergence_reported_not_asserted(self, full_scale):
        from rsa_metaphor import interpret_fast
        from rsa_metaphor.metrics import jsd as jsd_fn

        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table)
        entry = report.items[0]
        item = items[0]
        expected = jsd_fn(entry.model, interpret_fast(item, 10.0, table).p)
        assert entry.mode_divergence == pytest.approx(expected, abs=1e-12)
        assert all(0.0 <= e.mode_divergence <= 1.0 for e in report.items)


CONFIGS = (
    {},
    {"utterances": "pair"},
    {"mode": "fast"},
    {"category_prior": "uniform"},
    {"goal_prior": "uniform"},
)


def _reference_group(entries, ks):
    """GroupStats fields from plain per-item values."""
    n = len(entries)
    rs = [e["pearson_r"] for e in entries]
    js = [e["jsd"] for e in entries]
    return {
        "n_items": n,
        "mean_pearson": statistics.fmean(rs),
        "sd_pearson": statistics.stdev(rs) if n > 1 else math.nan,
        "mean_jsd": statistics.fmean(js),
        "sd_jsd": statistics.stdev(js) if n > 1 else math.nan,
        "top1_match_count": sum(e["model_top"][0] == e["human_top"][0] for e in entries),
        "mean_agreement": {k: sum(e["agreement"][k] for e in entries) / n for k in ks},
        "argmax_in_human_top_rate": sum(e["argmax_in_human_top"] for e in entries) / n,
        "top_overlap_rate": sum(e["agreement"][max(ks)] >= 1 for e in entries) / n,
        "model_boundary_ties": sum(e["model_boundary_tie"] for e in entries),
        "human_boundary_ties": sum(e["human_boundary_tie"] for e in entries),
    }


@st.composite
def eval_cases(draw):
    """Small tables and batches of 1-6 items whose rows repeat values."""
    n_features = draw(st.integers(2, 6))
    n_items = draw(st.integers(1, 6))
    n_categories = n_items + 1
    weights = draw(st.lists(st.lists(st.integers(1, 3), min_size=n_features,
                                     max_size=n_features),
                            min_size=n_categories, max_size=n_categories))
    rows = np.array(weights, dtype=float)
    table = table_from_rows(rows / rows.sum(axis=1, keepdims=True))
    items, responses = [], {}
    for i in range(n_items):
        vehicle = draw(st.integers(0, n_categories - 1).filter(lambda c, i=i: c != i))
        inherence = draw(st.sampled_from(("inherent", "non_inherent", None)))
        items.append(MetaphorItem(f"m{i}", f"c{i}", f"c{vehicle}", inherence))
        counts = np.array(draw(st.lists(st.integers(0, 3), min_size=n_features,
                                        max_size=n_features)), dtype=float)
        counts[draw(st.integers(0, n_features - 1))] += 1.0
        responses[f"m{i}"] = counts / counts.sum()
    human = HumanResponseTable(table.vocab, responses)
    lam = draw(st.sampled_from((0.0, 0.5, 1.0, 3.0, 12.0)))
    config = RsaConfig(lam=lam, **draw(st.sampled_from(CONFIGS)))
    ks = draw(st.sampled_from(((1,), (1, min(3, n_features)), (n_features,))))
    split = None
    if draw(st.booleans()):
        train = draw(st.sets(st.sampled_from([item.id for item in items])))
        split = TrainTestSplit(tuple(sorted(train)),
                               tuple(item.id for item in items if item.id not in train), 0)
    base = draw(st.sampled_from((2.0, math.e)))
    return table, tuple(items), human, config, ks, split, base


class TestBatchedEvaluate:
    """evaluate scores the batch as arrays; a plain per-item loop must agree."""

    @settings(max_examples=150, deadline=None)
    @given(eval_cases())
    def test_matches_a_per_item_reference(self, case):
        table, items, human, config, ks, split, base = case
        other = replace(config, mode="fast" if config.mode == "full" else "full")
        rows = [interpret(item, config, table).p for item in items]
        if any(np.ptp(row) == 0.0 or np.ptp(human.distribution(item.id)) == 0.0
               for item, row in zip(items, rows)):
            with pytest.raises(ZeroVarianceError,
                               match="constant vector has no defined correlation"):
                evaluate(items, human, config, table, ks=ks, split=split, jsd_base=base)
            return
        report = evaluate(items, human, config, table, ks=ks, split=split, jsd_base=base)
        features = table.vocab.features
        k_max = max(ks)
        expected = []
        for item, entry, row in zip(items, report.items, rows):
            model, target = entry.model, human.distribution(item.id)
            np.testing.assert_allclose(model, row, rtol=0, atol=1e-12)
            assert entry.human is target
            assert (entry.item_id, entry.topic, entry.vehicle, entry.inherence) == (
                item.id, item.topic, item.vehicle, item.inherence)
            model_top = oracle.top_k(model, k_max)
            human_top = oracle.top_k(target, k_max)
            want = {
                "model_top": model_top,
                "human_top": human_top,
                "pearson_r": oracle.pearson(model, target),
                "jsd": oracle.jsd(model, target, base),
                "agreement": {k: len(set(oracle.top_k(model, k))
                                     & set(oracle.top_k(target, k))) for k in ks},
                "argmax_in_human_top": model_top[0] in human_top,
                "model_boundary_tie": oracle.boundary_tie(model, k_max),
                "human_boundary_tie": oracle.boundary_tie(target, k_max),
                "mode_divergence": oracle.jsd(
                    model, interpret(item, other, table).p, base),
            }
            for name in ("pearson_r", "jsd", "mode_divergence"):
                assert getattr(entry, name) == pytest.approx(want[name], rel=0, abs=1e-12)
            for name in ("agreement", "argmax_in_human_top",
                         "model_boundary_tie", "human_boundary_tie"):
                assert getattr(entry, name) == want[name], name
            assert entry.model_top == tuple(features[i] for i in model_top)
            assert entry.human_top == tuple(features[i] for i in human_top)
            expected.append(want)

        members = {"all": [True] * len(items)}
        for klass in ("inherent", "non_inherent"):
            members[klass] = [item.inherence == klass for item in items]
        if split is not None:
            members["train"] = [item.id in split.train for item in items]
            members["test"] = [item.id in split.test for item in items]
        want_groups = {
            name: _reference_group([e for e, m in zip(expected, mask) if m], ks)
            for name, mask in members.items()
            if any(mask)
        }
        assert list(report.groups) == list(want_groups)
        for name, want in want_groups.items():
            got = asdict(report.groups[name])
            for field, value in want.items():
                if isinstance(value, float):
                    assert got[field] == pytest.approx(value, rel=0, abs=1e-12, nan_ok=True)
                elif isinstance(value, dict):
                    assert got[field].keys() == value.keys()
                    for k in value:
                        assert got[field][k] == pytest.approx(value[k], rel=0, abs=1e-12)
                else:
                    assert got[field] == value, (name, field)

    @settings(max_examples=150, deadline=None)
    @given(eval_cases())
    def test_tops_and_ties_are_the_stable_sort(self, case):
        table, items, human, config, ks, split, base = case
        try:
            report = evaluate(items, human, config, table, ks=ks, split=split, jsd_base=base)
        except ZeroVarianceError:
            return
        features, k_max, n = table.vocab.features, max(ks), table.n
        for entry in report.items:
            for row, top, tie in ((entry.model, entry.model_top, entry.model_boundary_tie),
                                  (entry.human, entry.human_top, entry.human_boundary_tie)):
                order = np.argsort(-row, kind="stable")
                assert top == tuple(features[j] for j in order[:k_max])
                assert tie == (k_max < n and row[order[k_max - 1]] == row[order[k_max]])

    def test_constant_model_row_raises_like_pearson(self):
        # a uniform typicality row gives a uniform model row at lam 0 in fast mode
        table = table_from_rows([[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
        items = (MetaphorItem("m0", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m0": np.array([0.4, 0.3, 0.2, 0.1])})
        config = RsaConfig(lam=0.0, mode="fast")
        model = interpret(items[0], config, table).p
        with pytest.raises(ZeroVarianceError) as scalar:
            pearson(model, human.distribution("m0"))
        with pytest.raises(ZeroVarianceError) as batched:
            evaluate(items, human, config, table)
        assert str(batched.value) == str(scalar.value)

    def test_constant_row_whose_mean_rounds_off_raises(self):
        # a uniform 6-feature row at lam 0 centres to entries of about -2.8e-17, not 0
        table = table_from_rows(np.full((2, 6), 1 / 6))
        items = (MetaphorItem("m0", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m0": np.eye(6)[0]})
        config = RsaConfig(lam=0.0)
        model = interpret(items[0], config, table).p
        assert np.ptp(model) == 0.0 and np.any(model - model.mean() != 0.0)
        with pytest.raises(ZeroVarianceError, match="constant vector"):
            pearson(model, human.distribution("m0"))
        with pytest.raises(ZeroVarianceError, match="constant vector"):
            evaluate(items, human, config, table)


def without_first_human_row(full_scale):
    table, items, human = full_scale
    rest = {k: v for k, v in human.responses.items() if k != items[0].id}
    return HumanResponseTable(table.vocab, rest)


class TestChecksBeforeScoring:
    """A bad ``ks``, log base or keyword, a missing human row or a human vocabulary that is not
    the table's fails before any kernel call."""

    @pytest.mark.parametrize("score, setting, message", [
        (evaluate, {"jsd_base": 1.0}, "log base must be finite and > 1, got 1.0"),
        (ablate_lambda_interpolation, {"jsd_base": 1.0},
         "log base must be finite and > 1, got 1.0"),
        (ablate_lambda_interpolation, {"jsd_base": math.inf},
         "log base must be finite and > 1, got inf"),
        (ablate_lambda_interpolation, {"ks": (0,)}, "k must be in [1, 59], got 0"),
        (ablate_lambda_interpolation, {"ks": (3, 60)}, "k must be in [1, 59], got 60"),
    ], ids=["evaluate-base", "grid-base", "grid-base-inf", "grid-k0", "grid-k60"])
    def test_bad_argument(self, full_scale, monkeypatch, score, setting, message):
        table, items, human = full_scale
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            score(items, human, RsaConfig(lam=5.0), table, **setting)
        assert calls == []

    @pytest.mark.parametrize("score", [evaluate, ablate_lambda_interpolation],
                             ids=["evaluate", "grid"])
    def test_missing_human_row(self, full_scale, monkeypatch, score):
        table, items, _ = full_scale
        human = without_first_human_row(full_scale)
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(DatasetError, match="^no human responses for metaphor 'm00'$"):
            score(items, human, RsaConfig(lam=5.0), table)
        assert calls == []

    @pytest.mark.parametrize("score", [
        lambda items, train, human, table: evaluate(items, human, RsaConfig(lam=5.0), table),
        lambda items, train, human, table: learn_lambda_multistart(train, human, RsaConfig(),
                                                                   table),
        lambda items, train, human, table: ablate_lambda_interpolation(
            items, human, RsaConfig(), table, train=train),
        lambda items, train, human, table: feature_correlation_matrix(
            items, "human", RsaConfig(), table, human=human),
    ], ids=["evaluate", "multistart", "grid", "human-correlations"])
    def test_human_vocabulary_differs(self, full_scale, monkeypatch, score):
        # with the vocabulary reversed, evaluate at lambda 5 gave the correct table's mean r
        table, items, human = full_scale
        by_id = {item.id: item for item in items}
        train = tuple(by_id[i] for i in make_split(items, 0).train)
        reversed_vocab = FeatureVocab(tuple(reversed(table.vocab.features)))
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(DatasetError, match="^human responses: feature vocabulary differs "
                                               "from the typicality table's$"):
            score(items, train, HumanResponseTable(reversed_vocab, human.responses), table)
        assert calls == []

    def test_split_id_not_among_items(self, full_scale, monkeypatch):
        table, items, human = full_scale
        calls = count_kernel_calls(monkeypatch)
        split = TrainTestSplit(("nope",), ("x",), 0)
        with pytest.raises(ValueError,
                           match="^split names metaphor 'nope', which is not among the items$"):
            evaluate(items, human, RsaConfig(lam=5.0), table, split=split)
        assert calls == []

    @pytest.mark.parametrize("ablate", [ablate_relevance, ablate_lambda_interpolation],
                             ids=["no-relevance", "grid"])
    def test_unknown_keyword(self, full_scale, monkeypatch, ablate):
        table, items, human = full_scale
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(TypeError, match="'tag'"):
            ablate(items, human, RsaConfig(lam=5.0), table, tag="x")
        assert calls == []


class TestAblateRelevance:
    def test_uniform_topic_row_changes_nothing(self):
        rows = np.vstack([np.full(4, 0.25), [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        table = table_from_rows(rows)
        items = (MetaphorItem("m", "c0", "c1", "inherent"),)
        rng = np.random.default_rng(0)
        human = HumanResponseTable(table.vocab, {"m": rng.dirichlet(np.ones(4))})
        cfg = RsaConfig(lam=6.0)
        full = evaluate(items, human, cfg, table)
        ablated = ablate_relevance(items, human, cfg, table)
        assert ablated.tag == "ablation: no-relevance"
        np.testing.assert_allclose(
            ablated.items[0].model, full.items[0].model, atol=1e-12
        )

    def test_informative_topic_row_hurts_when_removed(self):
        # topic typicality concentrates on the feature humans prefer; dropping
        # that goal prior must strictly lower the correlation
        table = table_from_rows(
            [[0.85, 0.05, 0.05, 0.05], [0.3, 0.4, 0.2, 0.1], [0.25, 0.3, 0.25, 0.2]]
        )
        items = (MetaphorItem("m", "c0", "c1", "inherent"),)
        human = HumanResponseTable(table.vocab, {"m": np.array([0.7, 0.1, 0.1, 0.1])})
        cfg = RsaConfig(lam=2.0)
        full = evaluate(items, human, cfg, table)
        ablated = ablate_relevance(items, human, cfg, table)
        assert ablated.groups["all"].mean_pearson < full.groups["all"].mean_pearson


class TestAblateLambdaInterpolation:
    def test_single_point_grid_reproduces_learned_model(self, full_scale):
        table, items, human = full_scale
        split = make_split(items, 0)
        by_id = {item.id: item for item in items}
        train = tuple(by_id[i] for i in split.train)
        fit = learn_lambda(train, human, RsaConfig(), table, init=1.0)
        learned_report = evaluate(items, human, RsaConfig(lam=fit.lambda_hat), table)
        best, grid_report = ablate_lambda_interpolation(
            items, human, RsaConfig(), table, grid=[fit.lambda_hat], train=train
        )
        assert best == fit.lambda_hat
        assert grid_report.tag == "ablation: grid-lambda"
        np.testing.assert_allclose(
            [e.pearson_r for e in grid_report.items],
            [e.pearson_r for e in learned_report.items],
            atol=1e-12,
        )

    def test_finer_grid_never_scores_worse(self, full_scale):
        import rsa_metaphor.learn as learn_mod

        table, items, human = full_scale
        split = make_split(items, 0)
        by_id = {item.id: item for item in items}
        train = tuple(by_id[i] for i in split.train)
        coarse = np.geomspace(0.5, 100.0, 5)
        fine = np.geomspace(0.5, 100.0, 5).tolist() + [2.0, 7.0, 23.0]
        best_coarse, _ = ablate_lambda_interpolation(
            items, human, RsaConfig(), table, grid=coarse, train=train
        )
        best_fine, _ = ablate_lambda_interpolation(
            items, human, RsaConfig(), table, grid=fine, train=train
        )
        score = lambda lam: learn_mod.objective(lam, train, human, RsaConfig(), table)
        assert score(best_fine) >= score(best_coarse)

    def test_empty_grid_rejected(self, full_scale):
        table, items, human = full_scale
        with pytest.raises(ValueError):
            ablate_lambda_interpolation(items, human, RsaConfig(), table, grid=[])

    @pytest.mark.parametrize("grid, bad", [
        ([-20.0, -5.0, -1.0], "-20.0"),
        ([0.5, -1e-300], "-1e-300"),
        ([1.0, math.nan, 2.0], "nan"),
        ([2.0, math.inf], "inf"),
    ])
    def test_point_below_zero_or_not_finite_rejected_before_scoring(
        self, full_scale, monkeypatch, grid, bad
    ):
        def no_model_work(*args, **kwargs):
            raise AssertionError("model work before the grid check")

        monkeypatch.setattr(learn, "_interpret_lams", no_model_work)
        monkeypatch.setattr(evaluation, "_interpret_batch", no_model_work)
        table, items, human = full_scale
        with pytest.raises(ValueError, match=f"must be finite and >= 0, got {bad}$"):
            ablate_lambda_interpolation(items, human, RsaConfig(), table, grid=grid)


class TestLambdaGrid:
    @pytest.mark.parametrize("spec", [
        (0.5, math.nan, 5), (math.nan, 5.0, 5), (0.5, math.inf, 3), (math.inf, math.inf, 2),
        (0.0, 1.0, 3), (2.0, 1.0, 3), (0.5, 1.0, 0),
        # every bound is finite, but the interior points round past the float maximum
        (1.7976931348623157e308, 1.7976931348623157e308, 5),
    ])
    def test_bad_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="bad grid spec"):
            lambda_grid(*spec)


class TestFeatureCorrelationMatrix:
    def test_diagonal_and_symmetry(self, full_scale):
        table, items, human = full_scale
        matrix = feature_correlation_matrix(items, "model", RsaConfig(lam=5.0), table)
        assert matrix.shape == (59, 59)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-12)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_perfect_linear_dependence(self):
        # feature 1 is twice feature 0 in every response: correlation 1
        vocab_rows = [
            [0.10, 0.20, 0.30, 0.40],
            [0.15, 0.30, 0.25, 0.30],
            [0.05, 0.10, 0.45, 0.40],
        ]
        table = table_from_rows(np.full((6, 4), 0.25))
        items = tuple(MetaphorItem(f"m{i}", f"c{i}", f"c{i + 3}") for i in range(3))
        human = HumanResponseTable(
            table.vocab, {f"m{i}": np.array(vocab_rows[i]) for i in range(3)}
        )
        matrix = feature_correlation_matrix(items, "human", RsaConfig(), table, human=human)
        assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert matrix[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_feature_is_undefined(self):
        rows = [
            [0.2, 0.3, 0.1, 0.4],
            [0.2, 0.5, 0.1, 0.2],
            [0.2, 0.1, 0.1, 0.6],
        ]
        table = table_from_rows(np.full((6, 4), 0.25))
        items = tuple(MetaphorItem(f"m{i}", f"c{i}", f"c{i + 3}") for i in range(3))
        human = HumanResponseTable(
            table.vocab, {f"m{i}": np.array(rows[i]) for i in range(3)}
        )
        matrix = feature_correlation_matrix(items, "human", RsaConfig(), table, human=human)
        assert math.isnan(matrix[0, 1]) and math.isnan(matrix[1, 0])
        assert math.isnan(matrix[2, 2]) and math.isnan(matrix[0, 0])
        assert matrix[1, 3] == pytest.approx(matrix[3, 1], abs=1e-15)
        assert not math.isnan(matrix[1, 3])

    def test_feature_whose_spread_underflows_is_undefined(self):
        # feature 0 is not constant, but its centred sum of squares underflows to 0
        rows = [
            [0.0, 0.3, 0.7],
            [5e-324, 0.5, 0.5],
            [0.0, 0.1, 0.9],
        ]
        table = table_from_rows(np.full((6, 3), 1 / 3))
        items = tuple(MetaphorItem(f"m{i}", f"c{i}", f"c{i + 3}") for i in range(3))
        human = HumanResponseTable(
            table.vocab, {f"m{i}": np.array(rows[i]) for i in range(3)}
        )
        matrix = feature_correlation_matrix(items, "human", RsaConfig(), table, human=human)
        assert np.isnan(matrix[0]).all() and np.isnan(matrix[:, 0]).all()
        assert matrix[1, 1] == matrix[2, 2] == 1.0
        assert matrix[1, 2] == matrix[2, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_unknown_source_rejected(self, full_scale):
        table, items, human = full_scale
        with pytest.raises(ValueError, match="^source must be 'model' or 'human', got 'both'$"):
            feature_correlation_matrix(items, "both", RsaConfig(), table, human=human)

    def test_needs_three_items(self, full_scale):
        table, items, human = full_scale
        with pytest.raises(ValueError):
            feature_correlation_matrix(items[:2], "model", RsaConfig(), table)
        with pytest.raises(ValueError):
            feature_correlation_matrix(items, "human", RsaConfig(), table)


class TestSerialization:
    def test_report_json_round_trip(self, full_scale):
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table)
        payload = report_to_dict(report)
        text = json.dumps(payload, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["lambda"] == 10.0
        assert len(parsed["items"]) == 24
        assert parsed["groups"]["all"]["n_items"] == 24

    def test_report_json_keys_are_pinned(self, full_scale):
        """Every ItemEval and GroupStats field reaches report.json; a new one must be added here."""
        table, items, human = full_scale
        payload = report_to_dict(evaluate(items, human, RsaConfig(lam=10.0), table))
        assert set(payload) == {"tag", "lambda", "ks", "jsd_base", "groups", "items"}
        item_keys = {
            "id", "topic", "vehicle", "class", "model", "human", "pearson_r", "jsd",
            "agreement", "model_top", "human_top", "argmax_in_human_top",
            "model_boundary_tie", "human_boundary_tie", "mode_divergence",
        }
        group_keys = {
            "n_items", "mean_pearson", "sd_pearson", "mean_jsd", "sd_jsd", "top1_match_count",
            "mean_agreement", "argmax_in_human_top_rate", "top_overlap_rate",
            "model_boundary_ties", "human_boundary_ties",
        }
        assert (len(item_keys), len(group_keys)) == (15, 11)
        assert all(set(item) == item_keys for item in payload["items"])
        assert all(set(group) == group_keys for group in payload["groups"].values())
        assert set(payload["items"][0]["agreement"]) == {"1", "3"}

    def test_report_json_writes_an_undefined_sd_as_null(self, full_scale):
        table, items, human = full_scale
        payload = report_to_dict(evaluate(items[:1], human, RsaConfig(lam=10.0), table))
        assert payload["groups"]["all"]["sd_pearson"] is None

    def test_report_csv_shape(self, full_scale):
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table)
        rows = report_csv_rows(report)
        assert rows[0][:4] == ["id", "topic", "vehicle", "class"]
        assert len(rows) == 25
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_report_csv_header_is_pinned(self, full_scale):
        """The report.json item keys but the two arrays, with agreement spread per k."""
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table, ks=(5, 1, 3))
        header = report_csv_rows(report)[0]
        assert header == [
            "id", "topic", "vehicle", "class", "pearson_r", "jsd",
            "agreement_1", "agreement_3", "agreement_5",
            "model_top", "human_top", "argmax_in_human_top",
            "model_boundary_tie", "human_boundary_tie", "mode_divergence",
        ]
        spread = []
        for key in report_to_dict(report)["items"][0]:
            if key == "agreement":
                spread += [f"agreement_{k}" for k in report.ks]
            elif key not in ("model", "human"):
                spread.append(key)
        assert header == spread

    @pytest.mark.parametrize("value, cell", [
        (0.1 + 0.2, "0.3"), (1 / 3, "0.333333333333"), (np.float64(-2.5e-20), "-2.5e-20"),
        (math.nan, ""), (None, ""), (True, "1"), (False, "0"), (3, "3"),
        (("f1", "f2"), "f1|f2"), ("m00", "m00"),
    ])
    def test_cell(self, value, cell):
        assert evaluation._cell(value) == cell

    def test_matrix_csv_empty_cells_for_nan(self):
        matrix = np.array([[1.0, math.nan], [math.nan, 1.0]])
        rows = matrix_csv_rows(matrix, ("a", "b"))
        assert rows[0] == ["feature", "a", "b"]
        assert rows[1] == ["a", "1", ""]
        assert rows[2] == ["b", "", "1"]
