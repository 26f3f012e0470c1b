"""Spans recorded at the boundaries where one layer calls the next.

The benchmark replaces the module attributes through which the package's
layers call each other (``learn.interpret_with_gradient``,
``evaluation.jsd``, ``lexicon.load_dataset``, ...) with wrappers.  Each call
records a span: name, start, end, parent span and run id.  Spans stay in
memory and are written out when the run ends.  A wrapped name that a later
change stops calling shows ``calls = 0`` instead of hiding its time.

This module imports only the standard library, so the CLI launcher can
install the same wrappers in a child process before the package loads.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "lexicon", "engine", "learn", "evaluation", "metrics")

# (module:attribute path, span name).  The span's layer is the first part of
# its name: the layer whose code runs inside the call.
TARGETS = (
    ("rsa_metaphor.engine:interpret", "engine.interpret"),
    ("rsa_metaphor.evaluation:interpret", "engine.interpret"),
    ("rsa_metaphor.cli:interpret", "engine.interpret"),
    ("rsa_metaphor.learn:interpret_with_gradient", "engine.interpret_with_gradient"),
    ("rsa_metaphor.evaluation:pearson", "metrics.pearson"),
    ("rsa_metaphor.evaluation:jsd", "metrics.jsd"),
    ("rsa_metaphor.evaluation:k_agreement", "metrics.k_agreement"),
    ("rsa_metaphor.evaluation:top_k_indices", "metrics.top_k_indices"),
    ("rsa_metaphor.learn:objective", "learn.objective"),
    ("rsa_metaphor.learn:learn_lambda", "learn.learn_lambda"),
    ("rsa_metaphor.learn:learn_lambda_multistart", "learn.learn_lambda_multistart"),
    ("rsa_metaphor.evaluation:evaluate", "evaluation.evaluate"),
    ("rsa_metaphor.evaluation:feature_correlation_matrix",
     "evaluation.feature_correlation_matrix"),
    ("rsa_metaphor.evaluation:ablate_lambda_interpolation",
     "evaluation.ablate_lambda_interpolation"),
    ("rsa_metaphor.lexicon:load_dataset", "lexicon.load_dataset"),
    ("rsa_metaphor.lexicon:read_dataset", "lexicon.read_dataset"),
    ("rsa_metaphor.lexicon:validate", "lexicon.validate"),
    ("rsa_metaphor.cli:dataset_sha256", "cli.dataset_sha256"),
    ("rsa_metaphor.cli:ArtifactWriter.write_json", "cli.artifact_write"),
    ("rsa_metaphor.cli:ArtifactWriter.write_csv", "cli.artifact_write"),
)


def _fit_attrs(fit):
    # gradients the optimizer consumed: the start point plus each accepted iterate
    return {"iterations": fit.iterations, "gradients": len(fit.trace)}


# Counts read from a call's result after its span has closed.
ATTRS = {
    "learn.learn_lambda": _fit_attrs,
    "evaluation.evaluate": lambda report: {"items": len(report.items)},
    "cli.artifact_write": lambda path: {"bytes": path.stat().st_size},
}

# index of each field in a span record
NAME, START, END, PARENT, RUN, ATTR = range(6)


class Recorder:
    """Collects spans in memory; one recorder per process."""

    def __init__(self, run: int = 0):
        self.spans: list[list] = []
        self.run = run  # shared by every span of one pass
        self._open = -1  # index of the innermost open span, -1 at top level

    def _enter(self, name):
        record = [name, 0.0, 0.0, self._open, self.run, None]
        parent = self._open
        self._open = len(self.spans)
        self.spans.append(record)
        return record, parent

    def wrap(self, name, fn, attrs=None):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, parent = self._enter(name)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._open = parent
            if attrs is not None:
                record[ATTR] = attrs(result)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code; yields its index."""
        record, parent = self._enter(name)
        record[START] = time.perf_counter()
        try:
            yield self._open
        finally:
            record[END] = time.perf_counter()
            self._open = parent

    def install(self, targets=TARGETS):
        """Wrap every target attribute; returns a function that restores them."""
        saved = []
        for path, name in targets:
            module_name, _, attr_path = path.partition(":")
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, ATTRS.get(name)))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    def attach(self, spans, parent: int) -> None:
        """Add spans recorded in a child process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock, so child
        and parent timestamps share one time line.
        """
        offset = len(self.spans)
        for name, start, end, child_parent, _, attrs in spans:
            owner = parent if child_parent < 0 else child_parent + offset
            self.spans.append([name, start, end, owner, self.run, attrs])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, wall: float, train_size: int) -> dict[str, float]:
    """Per-layer figures for one traced pass of ``wall`` seconds."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root_time = 0.0
    iterations = gradients = evaluated_items = artifact_bytes = 0
    evaluate_spans = set()
    for index, (record, self_time) in enumerate(zip(spans, selfs)):
        name = record[NAME]
        duration = record[END] - record[START]
        calls[name] += 1
        busy[name] += duration
        own[name] += self_time
        layer = name.split(".", 1)[0]
        if layer not in layer_self:
            raise ValueError(f"span {name!r} belongs to no known layer")
        layer_self[layer] += self_time
        if record[PARENT] < 0:
            root_time += duration
        attrs = record[ATTR] or {}
        iterations += attrs.get("iterations", 0)
        gradients += attrs.get("gradients", 0)
        evaluated_items += attrs.get("items", 0)
        artifact_bytes += attrs.get("bytes", 0)
        if name == "evaluation.evaluate":
            evaluate_spans.add(index)
    interprets_in_evaluate = sum(
        1 for record in spans
        if record[NAME] == "engine.interpret" and record[PARENT] in evaluate_spans
    )

    def mean_us(name):
        return busy[name] / calls[name] * 1e6 if calls[name] else 0.0

    objective_evals = calls["engine.interpret_with_gradient"] / train_size
    out = {
        "trace.wall_ms": wall * 1e3,
        "trace.unspanned_ms": (wall - root_time) * 1e3,
        "trace.spans": len(spans),
    }
    out.update({f"{layer}.self_ms": value * 1e3 for layer, value in layer_self.items()})
    out.update({
        "cli.commands": calls["cli.command"],
        "cli.import_ms": busy["cli.import"] * 1e3,
        "cli.dataset_sha256_ms": busy["cli.dataset_sha256"] * 1e3,
        "cli.artifact_write_ms": busy["cli.artifact_write"] * 1e3,
        "cli.artifact_bytes": artifact_bytes,
        "lexicon.read_dataset_ms": busy["lexicon.read_dataset"] * 1e3,
        "lexicon.validate_ms": busy["lexicon.validate"] * 1e3,
        "lexicon.load_dataset.calls": calls["lexicon.load_dataset"],
        "engine.interpret.calls": calls["engine.interpret"],
        "engine.interpret.busy_ms": busy["engine.interpret"] * 1e3,
        "engine.interpret.mean_us": mean_us("engine.interpret"),
        "engine.interpret_with_gradient.calls": calls["engine.interpret_with_gradient"],
        "engine.interpret_with_gradient.busy_ms": busy["engine.interpret_with_gradient"] * 1e3,
        "engine.interpret_with_gradient.mean_us": mean_us("engine.interpret_with_gradient"),
        "learn.iterations": iterations,
        "learn.objective_evals": objective_evals,
        "learn.objective_evals_per_iteration":
            objective_evals / iterations if iterations else 0.0,
        "learn.useful_gradient_ratio": gradients / objective_evals if objective_evals else 0.0,
        "evaluation.evaluate.self_ms": own["evaluation.evaluate"] * 1e3,
        "evaluation.interpret_calls_per_item":
            interprets_in_evaluate / evaluated_items if evaluated_items else 0.0,
        "evaluation.feature_correlation_matrix.busy_ms":
            busy["evaluation.feature_correlation_matrix"] * 1e3,
        "metrics.pearson.calls": calls["metrics.pearson"],
        "metrics.jsd.calls": calls["metrics.jsd"],
        "metrics.busy_ms": sum(v for k, v in busy.items() if k.startswith("metrics.")) * 1e3,
    })
    return out


def count_warnings_from(caught, filename) -> int:
    """How many recorded warnings were raised from code in ``filename``."""
    return sum(1 for w in caught if w.filename == filename)


def reemit_once(caught) -> None:
    """Show each distinct recorded warning once, as the default filter would."""
    seen = set()
    for w in caught:
        key = (w.category, str(w.message), w.filename, w.lineno)
        if key not in seen:
            seen.add(key)
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry={})


# Deterministic counts: identical on every run of the same code and seed.
EXACT_COUNTERS = (
    "trace.spans",
    "cli.commands",
    "cli.artifact_bytes",
    "lexicon.load_dataset.calls",
    "engine.interpret.calls",
    "engine.interpret_with_gradient.calls",
    "learn.iterations",
    "learn.objective_evals",
    "learn.useful_gradient_ratio",
    "evaluation.interpret_calls_per_item",
    "metrics.pearson.calls",
    "metrics.jsd.calls",
    "metrics.warnings",
)
