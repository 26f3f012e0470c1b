"""Split, objective, gradient, and optimizer tests."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import as_oracle_table, make_synthetic_dataset, random_table, table_from_rows
from rsa_metaphor import (
    HumanResponseTable,
    MetaphorItem,
    RsaConfig,
    ablate_lambda_interpolation,
    interpret,
    learn_lambda,
    learn_lambda_multistart,
    make_split,
)
from rsa_metaphor import engine, learn
from rsa_metaphor.engine import _interpret_batch, _interpret_lams
from rsa_metaphor.errors import (
    DatasetError,
    DegenerateTypicalityError,
    ZeroVarianceError,
)
from rsa_metaphor.metrics import pearson, pearson_rows


def recovery_problem(lam_star, seed=0, n_categories=10, n_features=12, n_items=5):
    """Synthetic target: human responses are the model's own output at lam_star."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_categories, n_features)
    items = tuple(
        MetaphorItem(f"m{i}", f"c{i}", f"c{i + n_items}") for i in range(n_items)
    )
    human = HumanResponseTable(
        table.vocab,
        {it.id: interpret(it, RsaConfig(lam=lam_star), table).p for it in items},
    )
    return table, items, human


class TestMakeSplit:
    def test_same_seed_same_split(self, full_scale):
        _, items, _ = full_scale
        assert make_split(items, 7) == make_split(items, 7)

    def test_counts_and_stratification(self, full_scale):
        _, items, _ = full_scale
        by_id = {item.id: item for item in items}
        for seed in range(10):
            split = make_split(items, seed)
            assert len(split.train) == 18 and len(split.test) == 6
            assert set(split.train) | set(split.test) == set(by_id)
            assert not set(split.train) & set(split.test)
            train_classes = [by_id[i].inherence for i in split.train]
            assert train_classes.count("inherent") == 9
            assert train_classes.count("non_inherent") == 9
            test_classes = [by_id[i].inherence for i in split.test]
            assert test_classes.count("inherent") == 3
            assert test_classes.count("non_inherent") == 3

    def test_different_seeds_can_differ(self, full_scale):
        _, items, _ = full_scale
        splits = {make_split(items, seed).train for seed in range(5)}
        assert len(splits) > 1

    def test_wrong_counts_rejected(self, full_scale):
        _, items, _ = full_scale
        with pytest.raises(DatasetError):
            make_split(items[:20], 0)

    def test_unlabelled_item_rejected(self, full_scale):
        # the classes were sorted before the counts were checked: str < None, a TypeError
        _, items, _ = full_scale
        unlabelled = (dataclasses.replace(items[0], inherence=None), *items[1:])
        with pytest.raises(DatasetError, match=re.escape(
                "split needs 24 items, 12 per class; got "
                "{None: 1, 'non_inherent': 12, 'inherent': 11}")):
            make_split(unlabelled, 0)
        # the right counts, but one class is no class
        half = (*(dataclasses.replace(item, inherence=None) for item in items[::2]),
                *items[1::2])
        with pytest.raises(DatasetError, match=re.escape(
                "got {None: 12, 'non_inherent': 12}")):
            make_split(half, 0)


class TestObjective:
    def test_perfect_model_scores_one(self):
        table, items, human = recovery_problem(lam_star=3.0)
        cfg = RsaConfig()
        value = learn.objective(3.0, items, human, cfg, table)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_single_item_equals_its_pearson(self):
        table, items, human = recovery_problem(lam_star=8.0, seed=1)
        cfg = RsaConfig()
        one = items[:1]
        model = interpret(one[0], RsaConfig(lam=2.0), table).p
        expected = pearson(model, human.distribution(one[0].id))
        assert learn.objective(2.0, one, human, cfg, table) == pytest.approx(expected, abs=1e-12)

    def test_pooled_objective_differs_from_mean(self):
        table, items, human = recovery_problem(lam_star=8.0, seed=2)
        cfg = RsaConfig()
        mean = learn.objective(2.0, items, human, cfg, table, kind="mean")
        pooled = learn.objective(2.0, items, human, cfg, table, kind="pooled")
        assert mean != pytest.approx(pooled, abs=1e-6)

    def test_zero_variance_propagates(self):
        table = table_from_rows(np.full((4, 3), 1 / 3))
        items = (MetaphorItem("m", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m": np.array([0.5, 0.3, 0.2])})
        with pytest.raises(ZeroVarianceError):
            learn.objective(1.0, items, human, RsaConfig(), table)

    def test_constant_row_whose_mean_rounds_off_is_zero_variance(self):
        # a uniform 6-feature row centres to entries of about -2.8e-17, not 0
        table = table_from_rows(np.full((2, 6), 1 / 6))
        items = (MetaphorItem("m", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m": np.eye(6)[0]})
        model = interpret(items[0], RsaConfig(lam=0.0), table).p
        assert np.ptp(model) == 0.0 and np.any(model - model.mean() != 0.0)
        for lam in (0.0, 1.0):
            for kind in ("mean", "pooled"):
                with pytest.raises(ZeroVarianceError, match=f"at lam={lam!r}"):
                    learn.objective(lam, items, human, RsaConfig(), table, kind=kind)

    def test_empty_train_set_rejected(self):
        table, _, human = recovery_problem(lam_star=3.0)
        with pytest.raises(ValueError):
            learn.objective(1.0, (), human, RsaConfig(), table)


class TestGradient:
    def test_flat_objective_has_zero_gradient(self):
        # identical category rows: every utterance is equally informative,
        # so the model output cannot depend on the rationality parameter
        row = [0.4, 0.35, 0.25]
        table = table_from_rows([row, row, row])
        items = (MetaphorItem("m", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m": np.array([0.2, 0.3, 0.5])})
        for lam in (0.5, 3.0, 17.0):
            assert learn.gradient(lam, items, human, RsaConfig(), table) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("kind", ["mean", "pooled"])
    def test_matches_central_difference(self, kind):
        rng = np.random.default_rng(13)
        for trial in range(10):
            table, items, human = recovery_problem(
                lam_star=float(rng.uniform(2, 40)),
                seed=100 + trial,
                n_categories=int(rng.integers(6, 10)),
                n_features=int(rng.integers(3, 7)),
                n_items=3,
            )
            cfg = RsaConfig()
            lam = float(rng.uniform(0.1, 30.0))
            analytic = learn.gradient(lam, items, human, cfg, table, kind=kind)
            numeric = learn.finite_difference_gradient(
                lam, items, human, cfg, table, kind=kind
            )
            assert abs(analytic - numeric) <= 1e-5 * max(abs(analytic), abs(numeric), 1e-7)

    def test_zero_gradient_at_grid_search_maximum(self):
        table, items, human = recovery_problem(lam_star=20.0, seed=5)
        cfg = RsaConfig()

        lo, hi = 10.0, 30.0
        best = None
        for _ in range(6):  # successive grid refinement around the best point
            grid = np.linspace(lo, hi, 41)
            scores = [learn.objective(g, items, human, cfg, table) for g in grid]
            best = float(grid[int(np.argmax(scores))])
            width = grid[1] - grid[0]
            lo, hi = best - width, best + width
        assert abs(learn.gradient(best, items, human, cfg, table)) <= 1e-6


class TestLearnLambda:
    @pytest.mark.parametrize("lam_star", [5.0, 44.43])
    def test_recovers_planted_rationality(self, lam_star):
        table, items, human = recovery_problem(lam_star=lam_star)
        fit = learn_lambda(items, human, RsaConfig(), table, init=1.0)
        assert abs(fit.lambda_hat - lam_star) / lam_star <= 0.05
        assert fit.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_trace_is_non_decreasing(self):
        table, items, human = recovery_problem(lam_star=20.0, seed=3)
        fit = learn_lambda(items, human, RsaConfig(), table, init=0.5)
        values = [value for _, _, value in fit.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert fit.trace[0][1] == 0.5  # the start point is recorded

    def test_constant_objective_returns_init(self):
        row = [0.4, 0.35, 0.25]
        table = table_from_rows([row, row, row])
        items = (MetaphorItem("m", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m": np.array([0.2, 0.3, 0.5])})
        fit = learn_lambda(items, human, RsaConfig(), table, init=1.0)
        assert fit.lambda_hat == 1.0
        assert fit.iterations <= 1
        assert fit.converged

    def test_bit_exact_determinism(self):
        table, items, human = recovery_problem(lam_star=20.0, seed=4)
        first = learn_lambda(items, human, RsaConfig(), table, init=1.0)
        second = learn_lambda(items, human, RsaConfig(), table, init=1.0)
        assert first == second  # includes the full trace, element by element

    def test_convergence_flag_consistency(self, monkeypatch):
        table, items, human = recovery_problem(lam_star=20.0, seed=6)
        # with eps 0 the rounding-level stop never fires, so the lambda tolerance ends the fit
        for max_rounds, eps, want in ((0, learn._EPS, "max_iterations"),
                                      (3, learn._EPS, "max_iterations"),
                                      (200, learn._EPS, "objective_tolerance"),
                                      (200, 0.0, "lambda_tolerance")):
            monkeypatch.setattr(learn, "_MAX_ROUNDS", max_rounds)
            monkeypatch.setattr(learn, "_EPS", eps)
            fit = learn_lambda(items, human, RsaConfig(), table, init=1.0)
            assert fit.stop_reason == want
            assert fit.iterations <= max_rounds
            assert fit.converged == (want != "max_iterations")

    def test_multistart_picks_best(self):
        table, items, human = recovery_problem(lam_star=44.43, seed=7)
        best = learn_lambda_multistart(items, human, RsaConfig(), table)
        singles = [
            learn_lambda(items, human, RsaConfig(), table, init=i)
            for i in learn.DEFAULT_MULTISTART_INITS
        ]
        assert best.objective_value == max(s.objective_value for s in singles)

    def test_invalid_arguments(self):
        table, items, human = recovery_problem(lam_star=5.0)
        with pytest.raises(ValueError):
            learn_lambda(items, human, RsaConfig(), table, init=float("inf"))
        with pytest.raises(ValueError, match=">= 0"):
            learn_lambda(items, human, RsaConfig(), table, init=-1.0)

    @pytest.mark.parametrize("bad", [
        {"kind": "median"},
        {"train": ()},
        {"inits": (0.5, 1.0, 5.0, 20.0, float("inf"))},
        {"inits": ()},
        {"inits": (0.5, 1.0, 5.0, 20.0, float("nan"))},
        {"inits": (0.5, 1.0, 5.0, 20.0, -50.0)},
    ])
    def test_multistart_checks_every_argument_before_scoring(self, monkeypatch, bad):
        table, items, human = recovery_problem(lam_star=5.0)
        args = {"train": items, "human": human, "config": RsaConfig(), "table": table}

        def kernel(*args):
            raise AssertionError("the kernel ran before the arguments were checked")

        monkeypatch.setattr(learn, "_interpret_lams", kernel)
        with pytest.raises(ValueError):
            learn_lambda_multistart(**{**args, **bad})
        single = dict(bad)
        inits = single.pop("inits", (1.0,))
        if inits:  # learn_lambda takes one init; an empty tuple has no counterpart there
            with pytest.raises(ValueError):
                learn_lambda(**{**args, **single}, init=inits[-1])

    def test_missing_human_row_fails_before_scoring(self, monkeypatch, seed12_split0):
        table, human, train = seed12_split0
        rest = HumanResponseTable(human.vocab, {k: v for k, v in human.responses.items()
                                                if k != train[0].id})
        calls = spy_kernel(monkeypatch)
        message = f"^no human responses for metaphor {train[0].id!r}$"
        with pytest.raises(DatasetError, match=message):
            learn_lambda_multistart(train, rest, RsaConfig(), table)
        assert calls == []

    def test_fit_stays_at_nonnegative_lambda(self):
        # human rows equal the topic rows, which the model returns exactly at lambda 0;
        # the unconstrained ascent ended just below 0
        rows = [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3]]
        table = table_from_rows(rows)
        items = (MetaphorItem("m0", "c0", "c1"), MetaphorItem("m1", "c2", "c1"))
        human = HumanResponseTable(table.vocab, {i.id: table.row(i.topic) for i in items})
        fit = learn_lambda(items, human, RsaConfig(), table)
        assert fit.lambda_hat >= 0.0
        assert fit.converged

    def test_multistart_never_tries_negative_lambda(self, monkeypatch):
        # on this split an unconstrained start tried lambda = -28.34 once
        table, items, human = make_synthetic_dataset(seed=12)
        by_id = {item.id: item for item in items}
        train = tuple(by_id[i] for i in make_split(items, 7).train)
        calls = spy_kernel(monkeypatch)
        fit = learn_lambda_multistart(train, human, RsaConfig(), table, kind="mean")
        tried = [lam for lams in calls for lam in lams]
        assert tried and min(tried) >= 0.0
        assert fit.lambda_hat == pytest.approx(11.16, abs=0.01)


def spy_both_kernels(monkeypatch):
    """Record every call of the kernel, through the engine's name or the fit's."""
    calls = []
    for module in (engine, learn):
        def spy(*args, kernel=module._interpret_lams, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, "_interpret_lams", spy)
    return calls


# an int that no float holds once raised a bare OverflowError
BEYOND_FLOATS = "an int beyond the float range"


class TestLambdaDomain:
    """Every entry point takes lambda finite and >= 0, and rejects any other before scoring."""

    @pytest.mark.parametrize("call, bad", [
        (lambda p: RsaConfig(lam=-1.0), "-1.0"),
        (lambda p: RsaConfig(lam=math.inf), "inf"),
        (lambda p: RsaConfig(lam=math.nan), "nan"),
        (lambda p: learn.objective(-1.0, *p), "-1.0"),
        (lambda p: learn.gradient(-1e-9, *p), "-1e-09"),
        (lambda p: learn_lambda(*p, init=-1.0), "-1.0"),
        (lambda p: learn_lambda_multistart(*p, inits=(1.0, -2.0)), "-2.0"),
        (lambda p: ablate_lambda_interpolation(p[0], p[1], p[2], p[3], grid=[1.0, -1.0]),
         "-1.0"),
        (lambda p: _interpret_lams(p[0], p[2], p[3], [1.0, -1.0], gradient=True), "-1.0"),
        (lambda p: RsaConfig(lam=10**400), BEYOND_FLOATS),
        (lambda p: learn.objective(10**400, *p), BEYOND_FLOATS),
        (lambda p: learn_lambda_multistart(*p, inits=(1.0, -10**400)), BEYOND_FLOATS),
        (lambda p: ablate_lambda_interpolation(p[0], p[1], p[2], p[3], grid=[1.0, 10**400]),
         BEYOND_FLOATS),
    ], ids=["config-negative", "config-inf", "config-nan", "objective", "gradient",
            "learn_lambda", "multistart", "grid", "kernel", "config-int-overflow",
            "objective-int-overflow", "multistart-int-overflow", "grid-int-overflow"])
    def test_rejected_before_scoring(self, monkeypatch, call, bad):
        table, items, human = recovery_problem(lam_star=3.0)
        calls = spy_both_kernels(monkeypatch)
        message = f"^lam must be finite and >= 0, got {re.escape(bad)}$"
        with pytest.raises(ValueError, match=message):
            call((items, human, RsaConfig(), table))
        assert calls == []

    @pytest.mark.parametrize("call, message", [
        (lambda p: learn_lambda_multistart(*p, inits=5.0),
         "need at least one initial point in a 1-D array, got shape ()"),
        (lambda p: learn_lambda_multistart(*p, inits=[[1.0], [5.0]]),
         "need at least one initial point in a 1-D array, got shape (2, 1)"),
        (lambda p: learn_lambda_multistart(*p, inits=np.array([])),
         "need at least one initial point in a 1-D array, got shape (0,)"),
        (lambda p: ablate_lambda_interpolation(p[0], p[1], p[2], p[3], grid=5.0),
         "expected a 1-D array of lams, got shape ()"),
        (lambda p: ablate_lambda_interpolation(p[0], p[1], p[2], p[3],
                                               grid=[[1.0, 2.0], [3.0, 4.0]]),
         "expected a 1-D array of lams, got shape (2, 2)"),
        (lambda p: learn.objective(np.array([1.0, 2.0]), *p),
         "expected a 1-D array of lams, got shape (1, 2)"),
    ], ids=["multistart-scalar", "multistart-column", "multistart-empty-array", "grid-scalar",
            "grid-matrix", "objective-array"])
    def test_not_one_dimensional_rejected_before_scoring(self, monkeypatch, call, message):
        table, items, human = recovery_problem(lam_star=3.0)
        calls = spy_both_kernels(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call((items, human, RsaConfig(), table))
        assert calls == []

    def test_an_array_of_inits_fits_as_the_tuple(self):
        table, items, human = recovery_problem(lam_star=3.0)
        args = (items, human, RsaConfig(), table)
        inits = np.array(learn.DEFAULT_MULTISTART_INITS)
        assert learn_lambda_multistart(*args, inits=inits) == learn_lambda_multistart(*args)

    def test_negative_zero_accepted(self):
        table, items, _ = recovery_problem(lam_star=3.0)
        config = RsaConfig(lam=-0.0)
        np.testing.assert_array_equal(interpret(items[0], config, table).p,
                                      interpret(items[0], RsaConfig(lam=0.0), table).p)


@pytest.fixture(scope="module")
def seed12_split0():
    table, items, human = make_synthetic_dataset(seed=12)
    by_id = {item.id: item for item in items}
    return table, human, tuple(by_id[i] for i in make_split(items, 0).train)


def spy_kernel(monkeypatch, fail_at=None):
    """Record the lams of every kernel call; at ``fail_at`` every model row is made constant."""
    calls = []
    kernel = learn._interpret_lams

    def spy(batch, config, table, lams, *args, **kwargs):
        calls.append(np.asarray(lams).tolist())
        logp, dp = kernel(batch, config, table, lams, *args, **kwargs)
        if fail_at in calls[-1]:  # so the objective is undefined there, and only there
            logp[calls[-1].index(fail_at)] = -np.log(table.n)
        return logp, dp

    monkeypatch.setattr(learn, "_interpret_lams", spy)
    return calls


FIVE_CONFIGS = (
    RsaConfig(),
    RsaConfig(utterances="pair"),
    RsaConfig(mode="fast"),
    RsaConfig(category_prior="uniform"),
    RsaConfig(goal_prior="uniform"),
)
five_configs = pytest.mark.parametrize(
    "config", FIVE_CONFIGS, ids=["default", "pair", "fast", "uniform-category", "uniform-goal"])


def oracle_objective(lam, items, human, config, table, kind):
    """The training objective from tests/oracle.py alone: its interpretations, its r.

    Skips the example (hypothesis ``assume``) where a model row is nearly
    constant, so that r is well conditioned.
    """
    rows = as_oracle_table(table)
    model = []
    for item in items:
        if config.mode == "fast":
            model.append(oracle.interpret_fast(rows[item.topic], rows[item.vehicle], lam))
        else:
            utts = list(rows) if config.utterances == "all" else [item.topic, item.vehicle]
            model.append(oracle.interpret(
                item.topic, item.vehicle, lam, rows, utterances=utts,
                category_prior=config.category_prior, goal_prior=config.goal_prior))
    assume(all(max(row) - min(row) > 1e-4 for row in model))
    humans = [human.distribution(item.id).tolist() for item in items]
    return oracle.objective(model, humans, kind)


@st.composite
def objective_problems(draw):
    """A 2-5 x 2-6 table, 1-4 items with human rows, one of the five configs, lam and kind."""
    n_cat = draw(st.integers(2, 5))
    n_feat = draw(st.integers(2, 6))
    rows = np.array(draw(st.lists(
        st.lists(st.floats(0.05, 1.0), min_size=n_feat, max_size=n_feat),
        min_size=n_cat, max_size=n_cat,
    )))
    table = table_from_rows(rows / rows.sum(axis=1, keepdims=True))
    pairs = draw(st.lists(
        st.lists(st.sampled_from(table.categories), min_size=2, max_size=2, unique=True),
        min_size=1, max_size=4,
    ))
    items = tuple(MetaphorItem(f"m{k}", *pair) for k, pair in enumerate(pairs))
    responses = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=n_feat, max_size=n_feat).filter(
            lambda row: max(row) - min(row) > 0.01),
        min_size=len(items), max_size=len(items),
    ))
    human = HumanResponseTable(
        table.vocab, {item.id: np.array(row) / sum(row) for item, row in zip(items, responses)})
    lam = draw(st.floats(0.0, 30.0))
    config = draw(st.sampled_from(FIVE_CONFIGS))
    kind = draw(st.sampled_from(("mean", "pooled")))
    return lam, items, human, config, table, kind


# g > 0 at the scan points 3.863 and 5.484, yet the objective falls from 0.619 to 0.533
# between them: a maximum near 4.43 (0.65516) and a minimum near 5.2 lie inside
OVER_A_MAXIMUM = table_from_rows([[2 / 11, 1 / 11, 8 / 11], [9 / 33, 11 / 33, 13 / 33],
                                  [22 / 63, 28 / 63, 13 / 63]])
STEPS_OVER_A_MAXIMUM = (
    0.0,
    tuple(MetaphorItem(f"m{k}", topic, "c1") for k, topic in enumerate(("c0", "c0", "c2"))),
    HumanResponseTable(OVER_A_MAXIMUM.vocab, {f"m{k}": np.array([1.0, 0.0, 0.0])
                                              for k in range(3)}),
    RsaConfig(utterances="pair"),
    OVER_A_MAXIMUM,
    "mean",
)

TWO_BY_THREE = table_from_rows(np.array([[8.0, 7.0, 8.0], [2.0, 1.0, 4.0]])
                               / np.array([[23.0], [7.0]]))


class TestAgainstTheOracle:
    """The objective and its gradient against tests/oracle.py, not against the package."""

    @settings(max_examples=100, deadline=None)
    @given(objective_problems())
    def test_objective_matches_the_oracle(self, problem):
        want = oracle_objective(*problem)
        assert learn.objective(*problem) == pytest.approx(want, rel=0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(objective_problems())
    @example(problem=(  # r = -1 + 11.5 lam^2 - 170 lam^3 near 0: a 2-point difference is 2e-8 off
        0.0,
        (MetaphorItem("m0", "c0", "c1"),),
        HumanResponseTable(TWO_BY_THREE.vocab, {"m0": np.array([0.0, 1.0, 0.0])}),
        RsaConfig(mode="fast"),
        TWO_BY_THREE,
        "mean",
    ))
    def test_gradient_matches_central_differences_of_the_oracle(self, problem):
        lam, *rest = problem
        h = 1e-5 * max(1.0, lam)
        # the 4-point central difference, so the h^2 f''' error of the 2-point one is gone
        near, far = ((oracle_objective(lam + k * h, *rest) - oracle_objective(lam - k * h, *rest))
                     for k in (1.0, 2.0))
        numeric = (8.0 * near - far) / (12.0 * h)
        assert abs(learn.gradient(*problem) - numeric) <= 1e-5 * max(abs(numeric), 1e-3)

    @settings(max_examples=25, deadline=None)
    @given(objective_problems())
    @example(problem=STEPS_OVER_A_MAXIMUM)
    def test_every_start_ends_where_the_oracle_says_it_may(self, problem):
        _, *args = problem
        items, human, config, table, kind = args
        try:
            fit = learn_lambda_multistart(items, human, config, table, kind=kind)
        except ZeroVarianceError:  # a model row is constant at an init
            assume(False)

        def at(lam):
            """The oracle objective; skips the example where its plain exp underflows to 0."""
            try:
                return oracle_objective(lam, *args)
            except ValueError:  # "oracle: zero total mass", at a large lam
                assume(False)

        def higher(lam, value):
            """Is the oracle objective at ``lam`` above ``value`` by more than 1e-12?"""
            return at(lam) > value + 1e-12

        top = float(learn._SCAN[-1])
        for init, start in zip(learn.DEFAULT_MULTISTART_INITS, fit.starts):
            lam, value = start.lambda_hat, start.objective_value
            assert at(lam) == pytest.approx(value, rel=0, abs=1e-9)
            end = top if start.stop_reason == "scan_top" else lam
            if start.stop_reason == "scan_top":  # still rising: the point below the top is lower
                assert not higher(top * (1 - 1e-4), at(top))
            elif lam == 0.0:  # falling: the point above is lower
                assert not higher(1e-7, value)
            elif start.stop_reason != "undefined_point":  # a maximum: neither neighbour is higher
                assert not higher(lam * (1 - 1e-4), value)
                assert not higher(lam * (1 + 1e-4), value)
            # the walk from init passed over these scan points
            walked = learn._SCAN[(learn._SCAN >= min(init, end)) & (learn._SCAN <= max(init, end))]
            assert not any(higher(point, value) for point in walked.tolist())


class TestObjectiveIsTheReportedPearson:
    """The fit maximizes the correlation that ``metrics``, and so ``evaluate``, reports."""

    @five_configs
    def test_bit_identical_to_metrics(self, seed12_split0, config):
        table, human, train = seed12_split0
        target = np.stack([human.distribution(item.id) for item in train])
        for lam in (0.0, 0.5, 5.0, 11.2, 44.43):
            model = np.exp(_interpret_batch(train, dataclasses.replace(config, lam=lam), table)[0])
            mean = learn.objective(lam, train, human, config, table, kind="mean")
            pooled = learn.objective(lam, train, human, config, table, kind="pooled")
            assert repr(mean) == repr(float(np.mean(pearson_rows(model, target))))
            assert repr(pooled) == repr(pearson(model.ravel(), target.ravel()))


def traced_peak(table, call, *args):
    """The most memory ``call(*args)`` holds at once above what was held before it (tracemalloc).

    A first, untraced call fills the ``table``'s caches, which are not the call's own.  Its
    speaker memo is emptied again, so that the traced call computes the speaker normalizers,
    as each chunk of a fit does, and holds the entry it leaves.
    """
    call(*args)
    table._speaker_memo[0] = None
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestChunkedPoints:
    """Chunks of one ``_points`` call keep each lam's bits, and bound its memory."""

    @five_configs
    @pytest.mark.parametrize("kind", ["mean", "pooled"])
    def test_gradient_points_match_single_lambda_calls(self, monkeypatch, seed12_split0,
                                                      config, kind):
        table, human, train = seed12_split0
        lams = [0.0, 0.3, 1.0, 2.5, 7.0, 30.0, 100.0]  # chunks of 3, 3 and a shorter 1
        monkeypatch.setattr(learn, "_GRID_CHUNK_CELLS", 3 * table.values.size)
        calls = spy_kernel(monkeypatch)
        curve = learn._points(lams, train, human, config, table, kind, gradient=True)
        assert [len(call) for call in calls] == [3, 3, 1]
        args = (train, human, config, table, kind)
        for lam, point in zip(lams, zip(*(column.tolist() for column in curve))):
            alone = (lam, learn.objective(lam, *args), learn.gradient(lam, *args))
            assert repr(point) == repr(alone)

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("gradient", [True, False], ids=["gradient", "forward"])
    def test_peak_is_flat_in_the_chunk_count(self, seed12_split0, mode, gradient):
        # a chunk's results are released before the next kernel call; held over, they
        # added 2.05 (full) and 1.69 (fast) blocks with the gradient, 1.03 and 0.51 without
        table, human, train = seed12_split0
        chunk = learn._GRID_CHUNK_CELLS // table.values.size
        block = 8 * chunk * len(train) * table.n  # one (L, B, n) float block

        def score(count):
            learn._points(np.linspace(0.0, 30.0, count), train, human, RsaConfig(mode=mode),
                          table, "mean", gradient)

        peaks = [traced_peak(table, score, count) for count in (3 * chunk + 3, chunk)]
        assert abs(peaks[0] - peaks[1]) < block

    @pytest.mark.parametrize("mode, limit", [("full", 7.5), ("fast", 4.7)])
    def test_late_results_reuse_finished_blocks(self, seed12_split0, mode, limit):
        # one gradient call over 16 lams and 18 items peaks at 7.03 (L, B, n) blocks in full
        # mode, where the speaker's (L, 1, 48, n) score block counts 48 / 18 and the speaker
        # memo's entry 4 / 18; a fresh block for each late result made it 9.03.  Fast mode,
        # which has no finished block to reuse, peaks at 4.10 (README gives these figures)
        table, _, train = seed12_split0
        lams = np.linspace(0.0, 30.0, 16)
        block = 8 * lams.size * len(train) * table.n
        peak = traced_peak(table, _interpret_lams, train, RsaConfig(mode=mode), table, lams, True)
        assert peak < limit * block


class TestLockstepMultistart:
    """One scan serves every start; the brackets narrow together, one scoring call per round."""

    @five_configs
    @pytest.mark.parametrize("kind", ["mean", "pooled"])
    def test_bit_identical_to_separate_starts(self, seed12_split0, config, kind):
        table, human, train = seed12_split0
        best = learn_lambda_multistart(train, human, config, table, kind=kind)
        singles = [
            learn_lambda(train, human, config, table, init=init, kind=kind)
            for init in learn.DEFAULT_MULTISTART_INITS
        ]
        assert best.starts == tuple(singles)  # field for field, traces included
        first_best = max(singles, key=lambda fit: fit.objective_value)  # earliest on a tie
        assert dataclasses.replace(best, starts=()) == first_best

    def test_one_kernel_call_per_round(self, monkeypatch, seed12_split0):
        # with utterances="pair" the starts end in two brackets, near lambda 3.4 and 92
        table, human, train = seed12_split0
        config = RsaConfig(utterances="pair")
        inits = learn.DEFAULT_MULTISTART_INITS
        calls = spy_kernel(monkeypatch)
        alone, brackets = [], set()
        for init in inits:
            calls.clear()
            start = learn_lambda(train, human, config, table, init=init)
            alone.append(len(calls))
            # a bracket is the lams of its refinement rounds, one per call
            brackets.add(tuple(lams[0] for lams in calls[len(calls) - start.iterations:]))
        calls.clear()
        fit = learn_lambda_multistart(train, human, config, table, inits=inits)
        rounds = max(start.iterations for start in fit.starts)
        chunk = learn._GRID_CHUNK_CELLS // table.values.size
        scan = learn._SCAN.size + len(inits)
        # the scan in chunks, then one call per round scoring the brackets still open
        assert len(brackets) == 2
        assert [len(lams) for lams in calls] == (
            [chunk] * (scan // chunk) + [scan % chunk]
            + [sum(len(b) >= round_ for b in brackets) for round_ in range(1, rounds + 1)])
        assert len(calls) == max(alone) < sum(alone)

    def test_undefined_trial_point_fails_only_its_own_start(self, monkeypatch, seed12_split0):
        # the starts from 20 and 50 share the bracket near lambda 92; its first
        # refinement point is made undefined
        table, human, train = seed12_split0
        config = RsaConfig(utterances="pair")
        inits = learn.DEFAULT_MULTISTART_INITS
        clean = learn_lambda_multistart(train, human, config, table)
        calls = spy_kernel(monkeypatch)
        visited = {}
        for init in inits:
            calls.clear()
            learn_lambda(train, human, config, table, init=init)
            visited[init] = {lam for lams in calls for lam in lams}
        calls.clear()
        learn_lambda(train, human, config, table, init=50.0)
        fail_at = calls[4][0]  # after the scan's 49 points, 16 per call
        assert [init for init in inits if fail_at in visited[init]] == [20.0, 50.0]

        spy_kernel(monkeypatch, fail_at=fail_at)
        faulted = learn_lambda_multistart(train, human, config, table)
        for init, start, reference in zip(inits, faulted.starts, clean.starts):
            if fail_at in visited[init]:
                assert start == learn_lambda(train, human, config, table, init=init)
                assert start.stop_reason == "undefined_point" and not start.converged
                assert start.iterations == 1 and start.lambda_hat != fail_at
            else:
                assert start == reference

    def test_undefined_scan_point_is_skipped(self, monkeypatch, seed12_split0):
        # the scan point just above the optimum is undefined: the walk passes over it
        table, human, train = seed12_split0
        clean = learn_lambda_multistart(train, human, RsaConfig(), table)
        fail_at = float(learn._SCAN[np.searchsorted(learn._SCAN, clean.lambda_hat)])
        spy_kernel(monkeypatch, fail_at=fail_at)
        fit = learn_lambda_multistart(train, human, RsaConfig(), table)
        assert fit.converged and fit.lambda_hat != fail_at
        # a wider bracket, so a different last few rounds on a flat maximum
        assert fit.lambda_hat == pytest.approx(clean.lambda_hat, rel=1e-7)
        assert fit.objective_value == pytest.approx(clean.objective_value, abs=1e-15)

    def test_undefined_start_point_propagates(self, monkeypatch, seed12_split0):
        table, human, train = seed12_split0
        spy_kernel(monkeypatch, fail_at=20.0)
        with pytest.raises(ZeroVarianceError, match="at lam=20.0$"):
            learn_lambda_multistart(train, human, RsaConfig(), table)

    @pytest.mark.parametrize("config, noun, row, error", [
        (RsaConfig(), "vehicle", [1.0] + [0.5] * 58, DegenerateTypicalityError),
        (RsaConfig(mode="fast"), "topic", [0.0] * 59, DegenerateTypicalityError),
    ], ids=["degenerate-vehicle-row", "fast-zero-topic-row"])
    def test_error_free_of_lambda_fails_after_one_kernel_call(
            self, monkeypatch, seed12_split0, config, noun, row, error):
        # the error does not depend on lambda, so the first chunk's call raises it
        table, human, train = seed12_split0
        values = table.values.copy()
        values[table.category_index(getattr(train[0], noun))] = row
        broken = table_from_rows(values, table.categories, table.vocab.features)
        calls = spy_kernel(monkeypatch)
        with pytest.raises(error):
            learn_lambda_multistart(train, human, config, broken)
        assert len(calls) == 1


def seed_split0_train(seed):
    table, items, human = make_synthetic_dataset(seed=seed)
    by_id = {item.id: item for item in items}
    return table, human, tuple(by_id[i] for i in make_split(items, 0).train)


class TestFitEnds:
    """Where the scan, walk and refinement end on the full-scale synthetic data."""

    def test_every_start_reaches_the_same_maximum(self, seed12_split0):
        table, human, train = seed12_split0
        fit = learn_lambda_multistart(train, human, RsaConfig(), table)
        lams = [start.lambda_hat for start in fit.starts]
        assert max(lams) - min(lams) <= 1e-9 * fit.lambda_hat
        assert all(start.stop_reason == "objective_tolerance" for start in fit.starts)

    def test_each_converged_start_ends_where_g_changes_sign(self):
        # Illinois regula falsi narrows this bracket slowly (19 rounds, to where g is rounding
        # noise); with a lambda tolerance of 1e-6 instead of 1e-10 every start stops 18 rounds
        # in, further than a relative 1e-9 from the sign change of g
        rows = np.array([[1.0, 5.0, 1.0], [6.0, 4.0, 8.0], [7.0, 7.0, 1.0]])
        table = table_from_rows(rows / rows.sum(axis=1, keepdims=True))
        items = (MetaphorItem("m0", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m0": np.array([3.0, 4.0, 5.0]) / 12.0})
        config = RsaConfig(utterances="pair")
        fit = learn_lambda_multistart(items, human, config, table)
        assert [start.stop_reason for start in fit.starts] == ["objective_tolerance"] * 5
        for start in fit.starts:
            below, above = (learn.gradient(start.lambda_hat * (1.0 + side * 1e-9), items, human,
                                           config, table) for side in (-1.0, 1.0))
            assert below > 0.0 >= above, (start.lambda_hat, below, above)

    def test_a_plateau_of_rounding_noise_ends_its_bracket(self, monkeypatch):
        # beyond lambda 300 the objective is 0.5 to the last bit and |g| < 1e-16, so the
        # bracket from the start at 50 never got under the lambda tolerance and regula falsi
        # spent all 200 rounds there: 201 kernel calls in all, where the other starts need 6
        table = table_from_rows([[2 / 11, 1 / 11, 8 / 11], [1 / 13, 4 / 13, 8 / 13],
                                 [1 / 3, 1 / 3, 1 / 3]])
        items = (MetaphorItem("m", "c0", "c1"),)
        human = HumanResponseTable(table.vocab, {"m": np.array([0.0, 0.0, 1.0])})
        calls = spy_kernel(monkeypatch)
        fit = learn_lambda_multistart(items, human, RsaConfig(utterances="pair"), table)
        assert len(calls) <= 10
        assert fit.lambda_hat == pytest.approx(0.826, abs=5e-4) and fit.converged
        plateau = fit.starts[-1]
        assert plateau.stop_reason == "objective_tolerance" and plateau.converged
        assert plateau.lambda_hat > 300.0 and plateau.objective_value == 0.5

    def test_a_walk_that_steps_over_a_maximum_ends_at_it(self):
        # the starts from 0.5 and 1 walked over the maximum near 4.43 to the bracket
        # (5.484, 7.786), and reported the scan point 3.863, where g is +0.13, as converged
        _, items, human, config, table, kind = STEPS_OVER_A_MAXIMUM
        fit = learn_lambda_multistart(items, human, config, table, kind=kind)
        assert [start.stop_reason for start in fit.starts] == ["objective_tolerance"] * 5
        for start, (lam, value) in zip(fit.starts, [(4.431626, 0.6551615182523559)] * 3
                                       + [(6.660459, 0.5944012889890659)] * 2):
            assert start.lambda_hat == pytest.approx(lam, rel=1e-6)
            assert start.objective_value == pytest.approx(value, rel=0, abs=1e-12)
            assert abs(learn.gradient(start.lambda_hat, items, human, config, table)) < 1e-6
        assert fit.lambda_hat == pytest.approx(4.431626, rel=1e-6)

    def test_a_gap_does_not_stop_where_g_is_rounding_noise(self):
        # g at hi moves the objective by less than its rounding across (1, 2), yet the
        # objective falls by 0.1 from lo to hi: a maximum lies inside, so the gap is bisected
        gap = learn._Bracket((1.0, 0.5, 0.1), (2.0, 0.4, 1e-18))
        assert gap.stop_reason is None and gap.next_point() == 1.5
        bracket = learn._Bracket((1.0, 0.5, 0.1), (2.0, 0.5, -1e-18))
        assert bracket.stop_reason == "objective_tolerance"

    def test_still_rising_at_the_scan_top(self):
        # the objective rises up to lambda 1e5
        table, human, train = seed_split0_train(15)
        fit = learn_lambda_multistart(train, human, RsaConfig(utterances="pair"), table,
                                      kind="pooled")
        assert fit.stop_reason == "scan_top" and not fit.converged
        assert fit.lambda_hat == learn._SCAN[-1]
        assert fit.objective_value >= 0.3801

    def test_walk_down_onto_undefined_points_is_not_converged(self):
        # the topic row is uniform, so the model row is constant at lambda 0; the starts
        # from 0.5 and 1 walk down to 0.01, where g < 0, and were reported converged there
        table = table_from_rows([[0.35, 0.35, 0.3], [0.4, 0.2, 0.4], [1 / 3, 1 / 3, 1 / 3]])
        items = (MetaphorItem("m0", "c2", "c0"),)
        human = HumanResponseTable(table.vocab, {"m0": np.array([0.0, 0.0, 1.0])})
        fit = learn_lambda_multistart(items, human, RsaConfig(), table)
        for start in fit.starts[:2]:
            assert (start.lambda_hat, start.stop_reason) == (0.01, "undefined_point")
            assert not start.converged and start.gradient_norm_at_convergence > 9e-4
        assert fit.stop_reason == "objective_tolerance" and 18.0 < fit.lambda_hat < 18.5

    def test_maximum_at_lambda_zero(self):
        # the starts from 20 and 50 walk down into a lower maximum near 15.3 and stay there
        table, human, train = seed_split0_train(13)
        fit = learn_lambda_multistart(train, human, RsaConfig(category_prior="uniform"), table)
        assert (fit.lambda_hat, fit.stop_reason) == (0.0, "gradient_tolerance")
        assert fit.converged and fit.gradient_norm_at_convergence == 0.0
        low, high = fit.starts[:3], fit.starts[3:]
        assert all((start.lambda_hat, start.stop_reason) == (0.0, "gradient_tolerance")
                   for start in low)
        assert [start.stop_reason for start in high] == ["objective_tolerance"] * 2
        assert high[0].lambda_hat == pytest.approx(high[1].lambda_hat, rel=1e-9)
        assert 15.0 < high[0].lambda_hat < 16.0
        assert high[0].objective_value < fit.objective_value
