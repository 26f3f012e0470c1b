"""Report assembly, aggregates, ablations, and correlation-matrix tests."""

import json
import math
import statistics
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_table, table_from_rows
from rsa_metaphor import (
    HumanResponseTable,
    MetaphorItem,
    RsaConfig,
    ablate_lambda_interpolation,
    ablate_relevance,
    evaluate,
    feature_correlation_matrix,
    interpret,
    learn_lambda,
    make_split,
)
from rsa_metaphor.errors import ZeroVarianceError
from rsa_metaphor.evaluation import matrix_csv_rows, report_csv_rows, report_to_dict
from rsa_metaphor.learn import TrainTestSplit
from rsa_metaphor.metrics import jsd, pearson


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


class TestEvaluate:
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


def _reference_pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return min(1.0, max(-1.0, float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))))


def _reference_jsd(p, q, base):
    m = 0.5 * (p + q)

    def kl(x):
        return sum(float(xi * np.log(xi / mi)) for xi, mi in zip(x, m) if xi > 0)

    return max(0.0, 0.5 * (kl(p) + kl(q)) / math.log(base))


def _reference_top(p, k):
    return sorted(range(p.size), key=lambda i: (-p[i], i))[:k]


def _reference_tie(p, k):
    ordered = sorted(p.tolist(), reverse=True)
    return k < len(ordered) and ordered[k - 1] == ordered[k]


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
        "top1_match_count": sum(e["agreement"].get(1, 0) >= 1 for e in entries),
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
            model_top = _reference_top(model, k_max)
            human_top = _reference_top(target, k_max)
            want = {
                "pearson_r": _reference_pearson(model, target),
                "jsd": _reference_jsd(model, target, base),
                "agreement": {k: len(set(_reference_top(model, k))
                                     & set(_reference_top(target, k))) for k in ks},
                "argmax_in_human_top": model_top[0] in human_top,
                "model_boundary_tie": _reference_tie(model, k_max),
                "human_boundary_tie": _reference_tie(target, k_max),
                "mode_divergence": _reference_jsd(
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

    @pytest.mark.parametrize("row", [[0.5, 0.3, 0.3, 0.1], [0.6, 0.5, -0.2, 0.1],
                                     [0.5, np.nan, 0.3, 0.2]])
    def test_non_distribution_human_row_raises_like_jsd(self, row):
        table, items, human, config = perfect_fixture(n_items=3)
        responses = dict(human.responses)
        responses[items[1].id] = np.array(row + [0.0, 0.0])
        human = HumanResponseTable(table.vocab, responses)
        model = interpret(items[1], config, table).p
        with pytest.raises(ValueError) as scalar:
            jsd(model, responses[items[1].id])
        with pytest.raises(ValueError) as batched:
            evaluate(items, human, config, table)
        assert str(batched.value) == str(scalar.value)


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

    def test_report_csv_shape(self, full_scale):
        table, items, human = full_scale
        report = evaluate(items, human, RsaConfig(lam=10.0), table)
        rows = report_csv_rows(report)
        assert rows[0][:4] == ["id", "topic", "vehicle", "class"]
        assert len(rows) == 25
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_matrix_csv_empty_cells_for_nan(self):
        matrix = np.array([[1.0, math.nan], [math.nan, 1.0]])
        rows = matrix_csv_rows(matrix, ("a", "b"))
        assert rows[0] == ["feature", "a", "b"]
        assert rows[1] == ["a", "1", ""]
        assert rows[2] == ["b", "", "1"]
