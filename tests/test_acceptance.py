"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-6 and 12 are self-contained (randomized property suites and a
full-scale synthetic dataset).  Criteria 7-11 reproduce published numbers
and need the behavioral dataset converted to the documented CSV formats;
point the RSA_METAPHOR_DATA environment variable at that directory to
enable them (see README).
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracle
from conftest import as_oracle_table, make_synthetic_dataset, random_table
from rsa_metaphor import (
    Distribution,
    HumanResponseTable,
    MetaphorItem,
    RsaConfig,
    ablate_lambda_interpolation,
    ablate_relevance,
    evaluate,
    interpret,
    jsd,
    k_agreement,
    learn_lambda_multistart,
    load_dataset,
    make_split,
    pearson,
    pragmatic_speaker,
)
from rsa_metaphor import learn

DATA_ENV = "RSA_METAPHOR_DATA"

needs_data = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"reproduction data not available; set {DATA_ENV} to the converted dataset",
)


def announce(number, message):
    print(f"\n[criterion {number:2d}] PASS: {message}")


def random_config(rng, lam):
    return RsaConfig(
        lam=lam,
        utterances=str(rng.choice(["all", "pair"])),
        category_prior=str(rng.choice(["topic", "uniform"])),
        goal_prior=str(rng.choice(["relevance", "uniform"])),
    )


def test_criterion_01_oracle_equivalence():
    """Full-mode interpret vs independent enumeration: 200 random instances."""
    rng = np.random.default_rng(20240901)
    started = time.perf_counter()
    for _ in range(200):
        n_cat = int(rng.integers(2, 5))
        n_feat = int(rng.integers(2, 5))
        table = random_table(rng, n_cat, n_feat)
        item = MetaphorItem("m", "c0", "c1")
        lam = float(rng.uniform(0.0, 60.0))
        config = random_config(rng, lam)
        got = interpret(item, config, table).p
        utts = (
            list(table.categories) if config.utterances == "all" else ["c0", "c1"]
        )
        want = oracle.interpret(
            "c0", "c1", lam, as_oracle_table(table),
            utterances=utts,
            category_prior=config.category_prior,
            goal_prior=config.goal_prior,
        )
        np.testing.assert_allclose(got, want, atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    announce(1, f"200 instances match the enumeration oracle within 1e-9 ({elapsed:.1f}s)")


def test_criterion_02_gradient_check():
    """Analytic objective gradient vs central finite differences: 100 instances."""
    rng = np.random.default_rng(20240902)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_items = int(rng.integers(1, 4))
        n_cat = int(rng.integers(2 * n_items, 2 * n_items + 4))
        n_feat = int(rng.integers(3, 7))
        table = random_table(rng, n_cat, n_feat)
        items = tuple(
            MetaphorItem(f"m{i}", f"c{i}", f"c{i + n_items}") for i in range(n_items)
        )
        human = HumanResponseTable(
            table.vocab,
            {it.id: rng.dirichlet(np.ones(n_feat)) for it in items},
        )
        lam = float(np.exp(rng.uniform(np.log(0.1), np.log(60.0))))
        config = RsaConfig(mode=str(rng.choice(["full", "fast"])))
        analytic = learn.gradient(lam, items, human, config, table)
        # near the optimal central-difference step: small enough that h^2
        # truncation sits well under the 1e-5 bar, large enough that roundoff
        # in the objective difference stays negligible
        numeric = learn.finite_difference_gradient(
            lam, items, human, config, table, step=1e-5 * max(1.0, lam)
        )
        # the floor keeps the check meaningful where the speaker saturates and
        # the true derivative drops below finite-difference resolution
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-7)
        worst = max(worst, rel)
        assert rel < 1e-5, f"relative error {rel:.2e} at lam={lam:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    announce(2, f"100 gradient checks within 1e-5 (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_lambda_recovery():
    """Fits on self-generated targets recover the planted rationality within 5%.

    The train correlation is not concave in the rationality parameter (a
    shallow local maximum can appear well below the planted value), so this
    uses the shipped multi-start fit, the same procedure the train command
    runs.
    """
    started = time.perf_counter()
    recovered = {}
    for lam_star in (5.0, 20.0, 44.43):
        rng = np.random.default_rng(int(lam_star * 100))
        table = random_table(rng, 10, 12)
        items = tuple(MetaphorItem(f"m{i}", f"c{i}", f"c{i + 5}") for i in range(5))
        human = HumanResponseTable(
            table.vocab,
            {it.id: interpret(it, RsaConfig(lam=lam_star), table).p for it in items},
        )
        fit = learn_lambda_multistart(items, human, RsaConfig(), table)
        rel = abs(fit.lambda_hat - lam_star) / lam_star
        assert rel <= 0.05, f"lam*={lam_star}: recovered {fit.lambda_hat} ({rel:.1%} off)"
        recovered[lam_star] = round(fit.lambda_hat, 3)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"recovery suite took {elapsed:.1f}s"
    announce(3, f"recovered {recovered} within 5% ({elapsed:.1f}s)")


def test_criterion_04_numerical_stability_at_learned_lambda():
    """n=59 near-uniform typicalities at lam=44.43: log space must stay finite."""
    rng = np.random.default_rng(20240904)
    values = 1 / 59 + rng.uniform(-5e-4, 5e-4, size=(6, 59))
    values /= values.sum(axis=1, keepdims=True)
    from conftest import table_from_rows

    table = table_from_rows(values)
    item = MetaphorItem("m", "c0", "c1")
    # the naive route breaks: beta**lam underflows toward 0 mass
    naive = np.power(table.row("c1"), 44.43)
    assert naive.max() < 1e-78
    for mode in ("full", "fast"):
        dist = interpret(item, RsaConfig(lam=44.43, mode=mode), table)
        assert np.isfinite(dist.p).all()
        assert np.all(dist.p >= 0)
        assert dist.p.sum() == pytest.approx(1.0, abs=1e-9)
    announce(4, "interpret and interpret_fast finite and normalized at lam=44.43, n=59")


# Appendix interpretation tables: (metaphor, human top-3, model top-3, 1-agr, 3-agr).
# The journalists/vultures row prints 3-agreement 2, but its listed sets share
# only one feature, and the published mean (1.37) is only consistent with the
# set-derived value: sum 33/24 = 1.375 vs 34/24 = 1.417.  The set-derived value
# is asserted here; the printed cell is treated as a typo.
APPENDIX_ROWS = [
    # vehicle-inherent items
    ("dancers-swans", ("Elegance", "Lightness", "Beauty"),
     ("Elegance", "Harmony", "Lightness"), 1, 2),
    ("elderly-snails", ("Slowness", "Tenderness", "Power"),
     ("Slowness", "Fragility", "Stickiness"), 1, 1),
    ("cyclists-rockets", ("Speed", "Athleticism", "Opportunism"),
     ("Speed", "Power", "Resistance"), 1, 1),
    ("masons-rocks", ("Power", "Robustness", "Hardness"),
     ("Hardness", "Robustness", "Heaviness"), 0, 2),
    ("runners-hares", ("Speed", "Agility", "Athleticism"),
     ("Athleticism", "Agility", "Speed"), 0, 3),
    ("rugby-players-bulls", ("Power", "Robustness", "Strength"),
     ("Strength", "Aggressivness", "Competitivity"), 0, 1),
    ("singers-nightingales", ("Musicality", "Harmony", "Sweetness"),
     ("Musicality", "Harmony", "Lightness"), 1, 2),
    ("dads-umbrellas", ("Protection", "Love", "Concern"),
     ("Protection", "Usefulness", "Resistance"), 1, 1),
    ("parents-shields", ("Protection", "Resistance", "Robustness"),
     ("Protection", "Braveness", "Hardness"), 1, 1),
    ("players-elephants", ("Heaviness", "Robustness", "Size"),
     ("Height", "Strength", "Size"), 0, 1),
    ("models-dolls", ("Beauty", "Elegance", "Submissiveness"),
     ("Youth", "Beauty", "Elegance"), 0, 2),
    ("climbers-squirrels", ("Agility", "Athleticism", "Harmony"),
     ("Agility", "Athleticism", "Speed"), 1, 2),
    # non-vehicle-inherent items
    ("believers-flocks", ("Submissiveness", "Devotion", "Numerosity"),
     ("Numerosity", "Fidelity", "Devotion"), 0, 2),
    ("bouncers-closets", ("Robustness", "Size", "Height"),
     ("Height", "Size", "Robustness"), 0, 3),
    ("children-lambs", ("Innocence", "Tenderness", "Candor"),
     ("Innocence", "Tenderness", "Fragility"), 1, 2),
    ("office-managers-hyenas", ("Aggressiveness", "Authority", "Opportunism"),
     ("Aggressiveness", "Opportunism", "Intelligence"), 1, 2),
    ("journalists-vultures", ("Opportunism", "Intrusiveness", "Competitiveness"),
     ("Aggressiveness", "Opportunism", "Voracity"), 0, 1),
    ("teachers-books", ("Wisdom", "Competence", "Intelligence"),
     ("Wisdom", "Interest", "Creativity"), 1, 1),
    ("wives-hammers", ("Heaviness", "Intrusiveness", "Noiseness"),
     ("Strength", "Power", "Resistance"), 0, 0),
    ("philosophers-airplanes", ("Creativity", "Flight", "Wisdom"),
     ("Size", "Power", "Competence"), 0, 0),
    ("daughters-in-law-drills", ("Intrusiveness", "Heaviness", "Penetrating power"),
     ("Noisiness", "Strength", "Hardness"), 0, 0),
    ("workers-ants", ("Diligence", "Numerosity", "Slowness"),
     ("Diligence", "Numerosity", "Competence"), 1, 2),
    ("cooks-hot-air-balloons", ("Creativity", "Robustness", "Size"),
     ("Competence", "Height", "Curiosity"), 0, 0),
    ("office-workers-doormats", ("Submissiveness", "Opportunism", "Smallness"),
     ("Usefulness", "Submissiveness", "Availability"), 0, 1),
]


def rank_distribution(top3, vocabulary):
    """Encode an ordered top-3 list as a distribution over the vocabulary."""
    probs = np.zeros(len(vocabulary))
    for weight, feature in zip((0.5, 0.3, 0.2), top3):
        probs[vocabulary.index(feature)] = weight
    return probs


def test_criterion_05_metric_unit_fixtures():
    """Frozen metric values plus every row of the published agreement tables."""
    assert jsd([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.311278, abs=1e-6)
    assert pearson([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]) == pytest.approx(-0.928571, abs=1e-6)

    ones = 0
    threes = 0
    for name, human_top, model_top, expect_1, expect_3 in APPENDIX_ROWS:
        vocabulary = sorted(set(human_top) | set(model_top))
        human_dist = rank_distribution(human_top, vocabulary)
        model_dist = rank_distribution(model_top, vocabulary)
        got_1 = k_agreement(model_dist, human_dist, 1)
        got_3 = k_agreement(model_dist, human_dist, 3)
        assert got_1 == expect_1, f"{name}: 1-agreement {got_1} != {expect_1}"
        assert got_3 == expect_3, f"{name}: 3-agreement {got_3} != {expect_3}"
        ones += got_1
        threes += got_3
    assert len(APPENDIX_ROWS) == 24
    assert ones == 11          # 11 of 24 top-interpretation matches
    assert threes == 33        # mean 3-agreement 33/24 = 1.375, published as 1.37
    announce(5, "metric fixtures and all 24 published agreement rows reproduced")


def test_criterion_06_distribution_invariants():
    """1000 randomized property cases across the distribution invariants."""
    rng = np.random.default_rng(20240906)
    cases = 0

    for _ in range(250):  # normalization and non-negativity over wild rationalities
        table = random_table(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        item = MetaphorItem("m", "c0", "c1")
        lam = float(rng.uniform(-100.0, 100.0))
        config = replace(random_config(rng, abs(lam)), mode=str(rng.choice(["full", "fast"])))
        if lam < 0.0:  # outside lambda's domain: rejected before any scoring
            with pytest.raises(ValueError, match=f"^lam must be finite and >= 0, got {lam!r}$"):
                replace(config, lam=lam)
            cases += 1
            continue
        p = interpret(item, config, table).p
        assert np.isfinite(p).all() and np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-9
        cases += 1

    for _ in range(250):  # JSD symmetry and [0, 1] bounds
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        left, right = jsd(p, q), jsd(q, p)
        assert left == pytest.approx(right, abs=1e-12)
        assert 0.0 <= left <= 1.0
        assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)
        cases += 1

    for _ in range(200):  # softmax shift invariance
        n = int(rng.integers(2, 10))
        scores = rng.normal(0.0, 5.0, size=n)
        shift = float(rng.uniform(-500.0, 500.0))
        base = Distribution.from_log_scores(range(n), scores).p
        moved = Distribution.from_log_scores(range(n), scores + shift).p
        np.testing.assert_allclose(moved, base, atol=1e-12)
        cases += 1

    for _ in range(150):  # an indifferent speaker is uniform
        table = random_table(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        goal = int(rng.integers(0, table.n))
        feature = int(rng.integers(0, table.n))
        p = pragmatic_speaker(goal, feature, RsaConfig(lam=0.0), table).p
        np.testing.assert_allclose(p, 1.0 / len(p), atol=1e-12)
        cases += 1

    done = 0
    while done < 150:  # a fully rational speaker picks the argmax utterance
        table = random_table(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        goal = int(rng.integers(0, table.n))
        feature = int(rng.integers(0, table.n))
        column = table.values[:, goal]
        utilities = np.log(column) if feature == goal else np.log1p(-column)
        ordered = np.sort(utilities)
        if ordered[-1] - ordered[-2] < 0.05:
            continue  # the limit statement presumes clearly distinct utilities
        dist = pragmatic_speaker(goal, feature, RsaConfig(lam=1000.0), table)
        assert dist.prob(table.categories[int(np.argmax(utilities))]) >= 1.0 - 1e-9
        done += 1
        cases += 1

    assert cases == 1000
    announce(6, "1000 randomized invariant cases hold")


def test_criterion_12_runtime_budget():
    """Full 24-metaphor evaluation under 1 s; training under 10 s."""
    table, items, human = make_synthetic_dataset(seed=12)
    split = make_split(items, 0)
    by_id = {item.id: item for item in items}
    train = tuple(by_id[i] for i in split.train)

    started = time.perf_counter()
    evaluate(items, human, RsaConfig(lam=44.43), table, split=split)
    eval_elapsed = time.perf_counter() - started
    assert eval_elapsed < 1.0, f"evaluation took {eval_elapsed:.2f}s"

    started = time.perf_counter()
    learn_lambda_multistart(train, human, RsaConfig(), table)
    train_elapsed = time.perf_counter() - started
    assert train_elapsed < 10.0, f"training took {train_elapsed:.2f}s"
    announce(12, f"evaluation {eval_elapsed * 1000:.0f} ms, training {train_elapsed:.1f} s")


# --- data-dependent reproduction suite -------------------------------------
#
# These criteria compare against published aggregates and therefore need the
# behavioral data, converted to the documented CSV formats.  Tolerances are
# wide because the normalization rule, feature-vector support, utterance set,
# objective form, and the exact 18/6 partition are all unpublished choices.


@pytest.fixture(scope="module")
def reproduction_data():
    table, items, human = load_dataset(os.environ[DATA_ENV])
    return table, items, human


@pytest.fixture(scope="module")
def learned_fit(reproduction_data):
    table, items, human = reproduction_data
    split = make_split(items, 0)
    by_id = {item.id: item for item in items}
    train = tuple(by_id[i] for i in split.train)
    fit = learn_lambda_multistart(train, human, RsaConfig(), table)
    return fit, split, train


@needs_data
def test_criterion_07_learned_lambda_band(reproduction_data):
    table, items, human = reproduction_data
    by_id = {item.id: item for item in items}
    hats = {}
    for seed in range(10):
        split = make_split(items, seed)
        train = tuple(by_id[i] for i in split.train)
        fit = learn_lambda_multistart(train, human, RsaConfig(), table)
        hats[seed] = fit.lambda_hat
        assert 30.0 <= fit.lambda_hat <= 60.0, f"seed {seed}: lambda {fit.lambda_hat}"
    announce(7, f"learned lambda per seed within [30, 60]: "
                f"{ {s: round(v, 2) for s, v in hats.items()} }")


@needs_data
def test_criterion_08_pearson_aggregates(reproduction_data, learned_fit):
    table, items, human = reproduction_data
    fit, split, _ = learned_fit
    report = evaluate(items, human, RsaConfig(lam=fit.lambda_hat), table, split=split)
    overall = report.groups["all"].mean_pearson
    inherent = report.groups["inherent"].mean_pearson
    non_inherent = report.groups["non_inherent"].mean_pearson
    assert overall == pytest.approx(0.64, abs=0.08)
    assert inherent == pytest.approx(0.80, abs=0.10)
    assert non_inherent == pytest.approx(0.48, abs=0.10)
    announce(8, f"mean r overall {overall:.3f}, inherent {inherent:.3f}, "
                f"non-inherent {non_inherent:.3f}")


@needs_data
def test_criterion_09_jsd_aggregate(reproduction_data, learned_fit):
    table, items, human = reproduction_data
    fit, _, _ = learned_fit
    report = evaluate(items, human, RsaConfig(lam=fit.lambda_hat), table)
    mean_jsd = report.groups["all"].mean_jsd
    assert mean_jsd == pytest.approx(0.23, abs=0.04)
    announce(9, f"mean JSD {mean_jsd:.3f}")


@needs_data
def test_criterion_10_agreement_aggregates(reproduction_data, learned_fit):
    table, items, human = reproduction_data
    fit, _, _ = learned_fit
    report = evaluate(items, human, RsaConfig(lam=fit.lambda_hat), table)
    stats = report.groups["all"]
    assert abs(stats.top1_match_count - 11) <= 2
    assert stats.mean_agreement[3] == pytest.approx(1.37, abs=0.25)
    announce(10, f"1-agreement {stats.top1_match_count}/24, "
                 f"mean 3-agreement {stats.mean_agreement[3]:.2f}")


@needs_data
def test_criterion_11_ablations(reproduction_data, learned_fit):
    table, items, human = reproduction_data
    fit, _, train = learned_fit
    config = RsaConfig(lam=fit.lambda_hat)
    full = evaluate(items, human, config, table)
    no_relevance = ablate_relevance(items, human, config, table)
    full_r = full.groups["all"].mean_pearson
    ablated_r = no_relevance.groups["all"].mean_pearson
    assert ablated_r == pytest.approx(0.55, abs=0.05)
    assert ablated_r < full_r

    _, grid_report = ablate_lambda_interpolation(
        items, human, RsaConfig(), table, train=train
    )
    grid_r = grid_report.groups["all"].mean_pearson
    assert abs(grid_r - full_r) <= 0.03
    announce(11, f"no-relevance r {ablated_r:.3f} < full r {full_r:.3f}; "
                 f"grid-lambda r {grid_r:.3f}")
