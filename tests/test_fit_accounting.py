"""Fit accounting: the 120 multistart fits and the 60 grid picks against stored results.

``tests/golden/fits.json`` holds, for seeds 12-15 x split seeds 0-2 x the five
configs x both objective kinds, the multistart fit's ``lambda_hat`` and
objective and, for each start, its init, ``lambda_hat``, objective, stop reason
and refinement rounds; and for seeds x splits x configs, the default grid's
pick on the ``mean`` objective.  The test recomputes them all and fails where
an objective is below its stored value by more than ``OBJECTIVE_DROP``, where a
stop reason, a round count, an init or a grid pick differs, or where a
``lambda_hat`` moves by more than ``LAMBDA_REL``.  A change that moves them on
purpose rewrites the file with ``tests/golden/regenerate_fits.py``, which
prints every move; no test runs that script.

The bound was measured as ``test_golden``'s was.  All 180 were rerun eight
times with every ``np.exp``, ``np.log`` and ``np.log1p`` result moved by a
random ulp, before and after walks stopped at gaps, with the same outcome
both times.  No stop reason, round count or grid pick changed, and no
objective fell by more than 3.9e-16.  ``lambda_hat`` moved by at most 1.9e-6
relative (15/0/pair/mean, near lambda 19618: a bracket that stops on
``objective_tolerance`` ends where g is rounding noise, anywhere in the flat
top of the maximum); ``LAMBDA_REL`` sits 26x above that.  One start moved
further: 12/1/fast/mean from 50 stops on ``gradient_tolerance`` at a scan
point above 2000, where g is exactly 0 and the objective is flat to the last
bit over several scan points, so which of them is best is rounding; it moved
to three other scan points, by up to 0.5 relative.  So where a start stops on
``gradient_tolerance`` above lambda 0, its ``lambda_hat`` (and a fit's that
equals it) is not compared; its objective and stop reason are.
"""

import json
import math
from pathlib import Path

from conftest import make_synthetic_dataset
from rsa_metaphor import RsaConfig, ablate_lambda_interpolation, learn_lambda_multistart, make_split
from rsa_metaphor.learn import DEFAULT_MULTISTART_INITS

FITS = Path(__file__).parent / "golden" / "fits.json"
OBJECTIVE_DROP = 1e-12
LAMBDA_REL = 5e-5

SEEDS = (12, 13, 14, 15)
SPLITS = (0, 1, 2)
CONFIGS = {
    "default": RsaConfig(),
    "pair": RsaConfig(utterances="pair"),
    "fast": RsaConfig(mode="fast"),
    "uniform_cat": RsaConfig(category_prior="uniform"),
    "uniform_goal": RsaConfig(goal_prior="uniform"),
}
KINDS = ("mean", "pooled")


def datasets():
    """(seed, table, items, human) for each of :data:`SEEDS`."""
    for seed in SEEDS:
        yield (seed, *make_synthetic_dataset(seed=seed))


def account() -> dict:
    """Every fit and grid pick, keyed ``seed/split/config/kind`` and ``seed/split/config``."""
    fits, picks = {}, {}
    for seed, table, items, human in datasets():
        by_id = {item.id: item for item in items}
        for split_seed in SPLITS:
            split = make_split(items, split_seed)
            train = tuple(by_id[i] for i in split.train)
            test = tuple(by_id[i] for i in split.test)
            for name, config in CONFIGS.items():
                for kind in KINDS:
                    fit = learn_lambda_multistart(train, human, config, table, kind=kind)
                    fits[f"{seed}/{split_seed}/{name}/{kind}"] = {
                        "lambda_hat": fit.lambda_hat,
                        "objective": fit.objective_value,
                        "starts": [{"init": init, "lambda_hat": start.lambda_hat,
                                    "objective": start.objective_value,
                                    "stop_reason": start.stop_reason,
                                    "rounds": start.iterations}
                                   for init, start in zip(DEFAULT_MULTISTART_INITS, fit.starts)],
                    }
                pick, _ = ablate_lambda_interpolation(test, human, config, table, train=train)
                picks[f"{seed}/{split_seed}/{name}"] = pick
    return {"fits": fits, "grid_picks": picks}


def _on_plateau(start) -> bool:
    """Whether a stored start stopped where g is exactly 0 above lambda 0."""
    return start["stop_reason"] == "gradient_tolerance" and start["lambda_hat"] > 0.0


def _result_failures(path, expected, actual, plateau=False):
    """Why the (lambda_hat, objective, ...) of one fit or start fails the bounds; [] if not.

    On a ``plateau``, ``lambda_hat`` is not compared.
    """
    found = []
    if actual["objective"] < expected["objective"] - OBJECTIVE_DROP:
        found.append(f"{path}: objective {expected['objective']!r} -> {actual['objective']!r}")
    if not plateau and not math.isclose(actual["lambda_hat"], expected["lambda_hat"],
                                        rel_tol=LAMBDA_REL):
        found.append(f"{path}: lambda_hat {expected['lambda_hat']!r} -> {actual['lambda_hat']!r}")
    for key in ("init", "stop_reason", "rounds"):
        if expected.get(key) != actual.get(key):
            found.append(f"{path}: {key} {expected.get(key)!r} -> {actual.get(key)!r}")
    return found


def failures(expected: dict, actual: dict) -> list[str]:
    """Every place where ``actual`` breaks the bounds against ``expected``."""
    found = []
    for part in ("fits", "grid_picks"):
        if expected[part].keys() != actual[part].keys():
            found.append(f"{part}: keys {sorted(expected[part])} -> {sorted(actual[part])}")
    for key in expected["fits"].keys() & actual["fits"].keys():
        want, got = expected["fits"][key], actual["fits"][key]
        plateaus = {start["lambda_hat"] for start in want["starts"] if _on_plateau(start)}
        found += _result_failures(key, want, got, want["lambda_hat"] in plateaus)
        if len(want["starts"]) != len(got["starts"]):
            found.append(f"{key}: {len(want['starts'])} starts -> {len(got['starts'])}")
        for i, (w, g) in enumerate(zip(want["starts"], got["starts"])):
            found += _result_failures(f"{key}/start {i}", w, g, _on_plateau(w))
    for key in expected["grid_picks"].keys() & actual["grid_picks"].keys():
        if expected["grid_picks"][key] != actual["grid_picks"][key]:
            found.append(f"{key}: grid pick {expected['grid_picks'][key]!r} -> "
                         f"{actual['grid_picks'][key]!r}")
    return sorted(found)


def test_fits_and_grid_picks_match_golden():
    expected = json.loads(FITS.read_text(encoding="utf-8"))
    found = failures(expected, account())
    listed = "\n".join(found[:20])
    assert not found, f"{len(found)} results break the bounds against {FITS.name}:\n{listed}"
