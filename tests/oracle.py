"""Independent brute-force reference: the listener chain, the training objective, the metrics.

Direct enumeration with plain Python loops, dicts, and math.log/exp.  This
file deliberately shares no code with the package: it is the oracle the
engine is checked against, so it must stay a separate derivation.  The
per-item metric references take the numpy rows that ``evaluate`` reports.

Tables are plain dicts mapping category name -> list of feature
probabilities.  Feature vectors are the one-hot basis, identified by index.
"""

import math

import numpy as np


def _n_features(table):
    return len(next(iter(table.values())))


def literal_listener(u, table):
    """L0(c, e_i | u): the typicality row of u on c == u, zero elsewhere."""
    out = {}
    for c, row in table.items():
        for i in range(len(row)):
            out[(c, i)] = row[i] if c == u else 0.0
    return out


def speaker_utility(u, goal, f_index, table):
    """Log of the literal-listener mass on states whose goal value matches."""
    l0 = literal_listener(u, table)
    want = 1.0 if f_index == goal else 0.0
    total = 0.0
    for (c, i), p in l0.items():
        have = 1.0 if i == goal else 0.0
        if have == want:
            total += p
    if total <= 0.0:
        raise ValueError("oracle: log argument is zero")
    return math.log(total)


def pragmatic_speaker(u, goal, f_index, lam, table, utterances):
    """Softmax over utterance alternatives of lam * utility."""
    utilities = {alt: speaker_utility(alt, goal, f_index, table) for alt in utterances}
    top = max(utilities.values())
    weights = {alt: math.exp(lam * (value - top)) for alt, value in utilities.items()}
    z = sum(weights.values())
    return weights[u] / z


def pragmatic_listener(topic, vehicle, lam, table, utterances=None,
                       category_prior="topic", goal_prior="relevance"):
    """Joint posterior over (category, feature index) given the vehicle utterance."""
    n = _n_features(table)
    if utterances is None:
        utterances = list(table)
    if category_prior == "topic":
        support = {topic: 1.0}
    else:
        support = {topic: 0.5, vehicle: 0.5}
    if goal_prior == "relevance":
        goal_weights = list(table[topic])
    else:
        goal_weights = [1.0 / n] * n

    joint = {}
    for c, pc in support.items():
        for i in range(n):
            mix = 0.0
            for g in range(n):
                mix += goal_weights[g] * pragmatic_speaker(
                    vehicle, g, i, lam, table, utterances
                )
            joint[(c, i)] = pc * table[c][i] * mix
    z = sum(joint.values())
    if z <= 0.0:
        raise ValueError("oracle: zero total mass")
    return {key: value / z for key, value in joint.items()}


def interpret(topic, vehicle, lam, table, utterances=None,
              category_prior="topic", goal_prior="relevance"):
    """Marginal over features of the pragmatic listener."""
    joint = pragmatic_listener(
        topic, vehicle, lam, table, utterances, category_prior, goal_prior
    )
    n = _n_features(table)
    marginal = [0.0] * n
    for (_, i), p in joint.items():
        marginal[i] += p
    return marginal


def interpret_fast(topic_row, vehicle_row, lam):
    """The fast pipeline: the topic row times the vehicle row to the power lam, normalized."""
    logs = [math.log(a) + lam * math.log(b) for a, b in zip(topic_row, vehicle_row)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return [w / total for w in weights]


def correlation(xs, ys):
    """Pearson's r of two equal-length lists of numbers."""
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    cross = sum(a * b for a, b in zip(dx, dy))
    return cross / math.sqrt(sum(a * a for a in dx) * sum(b * b for b in dy))


def objective(rows, humans, kind="mean"):
    """The training objective over model and human rows, item by item.

    ``mean`` averages each item's r; ``pooled`` is one r over every cell, the
    rows laid end to end in item order.
    """
    if kind == "pooled":
        return correlation([v for row in rows for v in row], [v for row in humans for v in row])
    return sum(correlation(row, human) for row, human in zip(rows, humans)) / len(rows)


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return min(1.0, max(-1.0, float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))))


def jsd(p, q, base):
    m = 0.5 * (p + q)

    def kl(x):
        return sum(float(xi * np.log(xi / mi)) for xi, mi in zip(x, m) if xi > 0)

    return max(0.0, 0.5 * (kl(p) + kl(q)) / math.log(base))


def top_k(p, k):
    return sorted(range(p.size), key=lambda i: (-p[i], i))[:k]


def boundary_tie(p, k):
    ordered = sorted(p.tolist(), reverse=True)
    return k < len(ordered) and ordered[k - 1] == ordered[k]
