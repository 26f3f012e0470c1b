"""Seeded full-scale synthetic dataset: 48 categories x 59 features x 24 metaphors.

The recipe is the one in ``tests/conftest.make_synthetic_dataset``:
Dirichlet typicality rows mixed with the uniform row, topic ``c<m>`` and
vehicle ``c<24+m>`` for metaphor m, and 40 simulated forced-choice
participants per metaphor drawing from a blend of the two rows.  A test
checks that both give identical objects for the same seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rsa_metaphor import (
    FeatureVocab,
    HumanResponseTable,
    MetaphorItem,
    TypicalityTable,
    save_dataset,
)

N_CATEGORIES = 48
N_FEATURES = 59
N_METAPHORS = 24
PARTICIPANTS = 40
FLOOR = 0.1


def make_dataset(seed: int):
    """(table, items, human) for one seed; the same seed gives the same objects."""
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(N_FEATURES), size=N_CATEGORIES)
    values = (1.0 - FLOOR) * raw + FLOOR / N_FEATURES
    vocab = FeatureVocab(tuple(f"f{i}" for i in range(N_FEATURES)))
    table = TypicalityTable(tuple(f"c{i}" for i in range(N_CATEGORIES)), vocab, values)

    items = []
    responses = {}
    for m in range(N_METAPHORS):
        topic = table.categories[m]
        vehicle = table.categories[N_METAPHORS + m]
        item = MetaphorItem(
            id=f"m{m:02d}", topic=topic, vehicle=vehicle,
            inherence="inherent" if m % 2 == 0 else "non_inherent",
            familiarity=float(rng.uniform(1, 7)),
        )
        items.append(item)
        blend = 0.5 * table.row(topic) + 0.5 * table.row(vehicle)
        counts = rng.multinomial(PARTICIPANTS, blend).astype(float)
        counts[int(np.argmax(blend))] += 1.0  # guarantee a nonzero total
        dist = counts / counts.sum()
        dist.setflags(write=False)
        responses[item.id] = dist
    return table, tuple(items), HumanResponseTable(vocab, responses)


def write_dataset(seed: int, data_dir) -> Path:
    """Write the seed's three CSVs into ``data_dir`` and return it."""
    data_dir = Path(data_dir)
    save_dataset(*make_dataset(seed), data_dir)
    return data_dir


def reduced_tables(table: TypicalityTable, seed: int, count: int, size: int = 5):
    """Small tables cut from ``table``, for checks against the slow oracle.

    Each holds a topic, a vehicle and ``size - 2`` other categories over
    ``size`` features, with rows renormalized.  Returns (table, topic, vehicle).
    """
    rng = np.random.default_rng([seed, 5])
    n_cat, n_feat = table.values.shape
    out = []
    for _ in range(count):
        cats = rng.choice(n_cat, size=size, replace=False)
        feats = np.sort(rng.choice(n_feat, size=size, replace=False))
        rows = table.values[np.ix_(cats, feats)]
        names = tuple(table.categories[c] for c in cats)
        vocab = FeatureVocab(tuple(table.vocab.features[f] for f in feats))
        small = TypicalityTable(names, vocab, rows / rows.sum(axis=1, keepdims=True))
        out.append((small, names[0], names[1]))
    return out
