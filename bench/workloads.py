"""The three workloads: one closed-loop client, one call at a time.

Each workload runs in passes.  A pass works on one of the run's datasets
and is a fixed list of steps, each a few calls into the package's public
API or CLI; a step times every call, checks every output and adds to the
workload's samples.  ``summarize`` turns the samples into the end-to-end
metrics every workload reports: ``op_p50_ms``, the median latency of the
workload's own operation, and ``pass_s``, the median time of its passes.

Times are reported at a fixed machine speed.  A shared host runs the same
code up to 1.5 times slower, switching within seconds, so before each pass
and after each of its steps the benchmark times a fixed reference loop, and
scales the run's times by ``REFERENCE_S`` over the mean loop time of the
run.  The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracle
import spans
from dataset import N_FEATURES, reduced_tables
from rsa_metaphor import engine, evaluation, learn
from rsa_metaphor.engine import RsaConfig
from rsa_metaphor.lexicon import MetaphorItem
from stats import median

SUM_TOL = 1e-9
AGREE_TOL = 1e-12
ORACLE_TOL = 1e-9
GRADIENT_REL_TOL = 1e-5  # criterion 02 of tests/test_acceptance.py
GRADIENT_FLOOR = 1e-7
CLI_TIMEOUT_S = 120

BENCH_DIR = Path(__file__).resolve().parent

UNITS = {"op_p50_ms": "ms", "pass_s": "s"}

# How long ``reference_loop_s`` measures on the 2-vCPU machine the bounds were
# set on, at its usual speed.  Scaled times are times on that machine.
REFERENCE_S = 0.375e-3
_LOOP_INPUT = np.random.default_rng(0).random((48, 59)) + 0.1


class Tally:
    """Operations attempted and failed; a failure is printed to stderr.

    An operation is one step of a pass or one output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, step) -> None:
        """Run one step; a step that raises counts as failed and the run goes on."""
        self.attempted += 1
        try:
            step()
        except Exception:
            self.failed += 1
            traceback.print_exc()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Data:
    """One seeded dataset, on disk (for the CLI) and loaded (for the API).

    ``index`` is its place among the run's datasets; passes on it use
    ``index`` as their train/test split seed.
    """

    index: int
    seed: int
    dir: Path
    table: object
    items: tuple
    human: object

    def train_items(self):
        split = learn.make_split(self.items, self.index)
        by_id = {item.id: item for item in self.items}
        return tuple(by_id[i] for i in split.train)


@dataclass
class Context:
    root: Path
    work: Path
    env: dict
    tally: Tally = field(default_factory=Tally)
    recorder: spans.Recorder | None = None
    child_warnings: int = 0


def reference_loop_s() -> float:
    """Fastest of seven timings of a fixed loop of small numpy and Python work.

    The loop calls nothing in the package, so its time tracks only the
    machine's speed at the moment.  The fastest timing drops interrupts and
    cold caches, and tells the host's fast and slow states apart cleanly.
    """
    times = []
    for _ in range(7):
        started = time.perf_counter()
        for _ in range(10):
            z = np.exp(np.log(_LOOP_INPUT) * 1.5)
            z /= z.sum(axis=1, keepdims=True)
            float((z @ z.T).sum())
            sorted(str(i) for i in range(100))
        times.append(time.perf_counter() - started)
    return min(times)


def speed_scale(loop_times) -> float:
    """Factor that turns wall times measured among ``loop_times`` into scaled times.

    The mean, not the median: an operation of a second or more spans both
    of the host's states, and the mean loop time weighs them as it does.
    """
    return REFERENCE_S / (sum(loop_times) / len(loop_times))


def new_samples():
    """Raw operation (``op``) and pass (``pass``) times, and reference loop times (s).

    ``pass_s`` collects the open pass's timed calls.
    """
    return {"op": [], "pass": [], "loops": [], "pass_s": 0.0}


def rows_ok(rows) -> bool:
    """Every row is finite, non-negative and sums to 1 within SUM_TOL."""
    rows = np.asarray(rows, dtype=float)
    return bool(
        np.isfinite(rows).all() and (rows >= 0).all()
        and (np.abs(rows.sum(axis=1) - 1.0) <= SUM_TOL).all()
    )


def run_pass(workload, ctx, data, samples):
    """Run one pass; its time is the sum of the timed calls, checks excluded.

    The reference loop runs before the first step and after each step.
    """
    samples["pass_s"] = 0.0
    samples["loops"].append(reference_loop_s())
    for step in workload.steps(ctx, data, samples):
        ctx.tally.run(step)
        samples["loops"].append(reference_loop_s())
    samples["pass"].append(samples["pass_s"])


def timed(samples, fn, *args, **kwargs):
    """Call ``fn``, add its wall time to the open pass; returns (seconds, result)."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - started
    samples["pass_s"] += elapsed
    return elapsed, result


def summarize(samples, scale=1.0):
    return {"op_p50_ms": median(samples["op"]) * scale * 1e3,
            "pass_s": median(samples["pass"]) * scale}


class CliPipeline:
    """The paper's reproduction sequence as cold CLI subprocesses.

    A pass is the seven-command pipeline; the operation is one of the five
    short commands (all but ``train`` and ``ablate --kind grid-lambda``).
    """

    name = "cli_pipeline"
    pass_s = 6.0  # about how long a pass takes on a 2-core machine in its slow state
    short = ("validate", "eval", "ablate_no_relevance", "corr", "interpret")

    def __init__(self):
        self.snapshots = {}

    def commands(self, ctx, data):
        out = str((ctx.work / f"out-{data.index}").relative_to(ctx.root))
        data_dir = str(data.dir.relative_to(ctx.root))
        common = ["--data-dir", data_dir]
        with_out = [*common, "--output-dir", out]
        learned = ["--lambda", "learned"]
        seed = ["--seed", str(data.index)]
        pair = ["--topic", data.items[0].topic, "--vehicle", data.items[0].vehicle]
        return out, [
            ("validate", ["validate", *common]),
            ("train", ["train", *with_out, *seed]),
            ("eval", ["eval", *with_out, *learned, *seed]),
            ("ablate_no_relevance",
             ["ablate", "--kind", "no-relevance", *with_out, *learned, *seed]),
            ("ablate_grid", ["ablate", "--kind", "grid-lambda", *with_out, *seed]),
            ("corr", ["corr", *with_out, *learned]),
            ("interpret", ["interpret", *with_out, *learned, *pair]),
        ]

    def steps(self, ctx, data, samples):
        out, commands = self.commands(ctx, data)
        stdout = {}

        def command(name, args):
            elapsed, stdout[name] = timed(samples, run_cli, ctx, args)
            if name in self.short:
                samples["op"].append(elapsed)

        def finish():
            self.check_outputs(ctx, ctx.root / out, stdout["interpret"], data.index)

        return [functools.partial(command, name, args) for name, args in commands] + [finish]

    def check_outputs(self, ctx, out_dir: Path, interpret_stdout: str, key):
        probs = [float(line.split()[1]) for line in interpret_stdout.splitlines()
                 if line.startswith("  ")]
        ctx.tally.check(len(probs) == N_FEATURES and rows_ok([probs]),
                        f"cli interpret output is not a distribution over the features ({key})")
        for name in ("report.json", "ablation_no_relevance.json", "ablation_grid_lambda.json"):
            try:
                report = json.loads((out_dir / name).read_text(encoding="utf-8"))["report"]
                ok = rows_ok([item["model"] for item in report["items"]])
            except (OSError, ValueError, KeyError) as exc:
                ok = False
                name = f"{name}: {exc}"
            ctx.tally.check(ok, f"cli {name}: model rows are not distributions ({key})")
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        digest = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
        digest["interpret stdout"] = hashlib.sha256(interpret_stdout.encode()).hexdigest()
        first = self.snapshots.setdefault(key, digest)
        if first is not digest:
            changed = sorted(k for k in first.keys() | digest.keys()
                             if first.get(k) != digest.get(k))
            ctx.tally.check(not changed, f"cli artifacts differ on repeat {key}: {changed}")

    def run_checks(self, ctx, data):
        """Every check of this workload runs inside its passes."""


def run_cli(ctx, args):
    """Run one CLI command as a child process; returns its stdout.

    Untraced, the child is ``python -m rsa_metaphor.cli``.  Traced, it is
    ``bench/launch.py``, which installs the span wrappers first; its spans
    are attached under a ``cli.process`` span that covers the whole child,
    interpreter start-up and exit included.
    """
    recorder = ctx.recorder
    if recorder is None:
        command = [sys.executable, "-m", "rsa_metaphor.cli", *args]
        spans_file = None
    else:
        spans_file = ctx.work / f"spans-{len(recorder.spans)}.json"
        command = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans_file), "--", *args]
    try:
        with recorder.span("cli.process") if recorder else contextlib.nullcontext() as parent:
            proc = subprocess.run(command, cwd=ctx.root, env=ctx.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        ctx.tally.check(False, f"cli {args[0]} timed out after {CLI_TIMEOUT_S} s")
        return ""
    ctx.tally.check(proc.returncode == 0,
                    f"cli {' '.join(args)} exited {proc.returncode}: {proc.stderr[-500:]}")
    if spans_file is not None and spans_file.exists():
        child = json.loads(spans_file.read_text(encoding="utf-8"))
        spans_file.unlink()
        recorder.attach(child["spans"], parent)
        ctx.child_warnings += child["warnings"]
    return proc.stdout


class Fit:
    """Warm in-process fitting: the gradient path.

    A pass fits lambda by multistart gradient ascent, with the ``mean``
    objective on even datasets and the ``pooled`` one on odd datasets, then
    runs the 200-point grid ablation on the same train split.  The operation
    is the grid ablation.  A fit's cost depends on the data (160 to 1310
    objective evaluations), so one fit per pass and many passes keep the
    median pass steady, and the grid ablation's fixed 200 evaluations keep
    the median operation steady.
    """

    name = "fit"
    pass_s = 3.0
    kinds = ("mean", "pooled")

    def __init__(self):
        self.results = {}

    def steps(self, ctx, data, samples):
        train = data.train_items()
        config = RsaConfig()
        kind = self.kinds[data.index % 2]

        def fit():
            _, result = timed(samples, learn.learn_lambda_multistart, train, data.human,
                              config, data.table, kind=kind)
            outcome = (result.lambda_hat, result.objective_value, result.iterations,
                       result.stop_reason)
            key = (data.index, kind)
            ctx.tally.check(math.isfinite(result.lambda_hat)
                            and math.isfinite(result.objective_value),
                            f"fit {key} is not finite: {outcome}")
            first = self.results.setdefault(key, outcome)
            if first is not outcome:
                ctx.tally.check(first == outcome, f"fit {key} differs on repeat: "
                                f"{first} then {outcome}")

        def grid():
            elapsed, (best, report) = timed(samples, evaluation.ablate_lambda_interpolation,
                                            data.items, data.human, config, data.table,
                                            train=train)
            samples["op"].append(elapsed)
            ctx.tally.check(rows_ok([e.model for e in report.items]),
                            f"grid ablation report rows are not distributions ({data.index})")
            key = (data.index, "grid")
            first = self.results.setdefault(key, best)
            if first is not best:
                ctx.tally.check(first == best, f"grid best lambda {key} differs on repeat")

        return [fit, grid]

    def run_checks(self, ctx, data):
        """Analytic gradient vs central differences at the fit's start points."""
        config = RsaConfig()
        train = data.train_items()
        kind = self.kinds[data.index % 2]
        for lam in learn.DEFAULT_MULTISTART_INITS:
            analytic = learn.gradient(lam, train, data.human, config, data.table, kind)
            numeric = learn.finite_difference_gradient(
                lam, train, data.human, config, data.table, kind,
                step=1e-5 * max(1.0, lam),
            )
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric),
                                                GRADIENT_FLOOR)
            ctx.tally.check(rel < GRADIENT_REL_TOL,
                            f"gradient at lam={lam} (dataset {data.index}, {kind}): "
                            f"analytic {analytic!r} vs numeric {numeric!r}")


# The five configurations the sweep evaluates at every lambda.
VARIANTS = (
    ("default", {}),
    ("pair", {"utterances": "pair"}),
    ("fast", {"mode": "fast"}),
    ("uniform_category", {"category_prior": "uniform"}),
    ("uniform_goal", {"goal_prior": "uniform"}),
)
SWEEP_LAMBDAS = tuple(2.0 ** k for k in range(-2, 7))  # 0.25 .. 64, log-spaced
ORACLE_LAMBDAS = (0.5, 4.0, 32.0)
ORACLE_TABLES = 4


class LambdaSweep:
    """Warm forward-only evaluation over a lambda grid in five configurations.

    A pass walks the lambda grid: at each lambda, single-item ``interpret``
    for the 24 items, then ``evaluate`` and the model
    ``feature_correlation_matrix`` in each configuration.  The operation is
    one ``evaluate`` over the 24 items in the default configuration.
    """

    name = "lambda_sweep"
    pass_s = 1.0

    def __init__(self):
        self.outputs = {}

    def steps(self, ctx, data, samples):
        return [functools.partial(self.at_lambda, ctx, data, lam, samples)
                for lam in SWEEP_LAMBDAS]

    def at_lambda(self, ctx, data, lam, samples):
        config = RsaConfig(lam=lam)
        singles = []
        for item in data.items:
            singles.append(timed(samples, engine.interpret, item, config, data.table)[1].p)
        ctx.tally.check(rows_ok(singles), f"interpret at lam={lam}: not distributions")
        self.compare(ctx, (data.index, lam, "single"), np.stack(singles))
        for variant, overrides in VARIANTS:
            vconfig = replace(config, **overrides)
            eval_s, report = timed(samples, evaluation.evaluate, data.items, data.human,
                                   vconfig, data.table)
            timed(samples, evaluation.feature_correlation_matrix, data.items, "model",
                  vconfig, data.table)
            if variant == "default":
                samples["op"].append(eval_s)
            rows = np.stack([e.model for e in report.items])
            ctx.tally.check(rows_ok(rows),
                            f"evaluate rows at lam={lam} ({variant}): not distributions")
            self.compare(ctx, (data.index, lam, variant), rows)

    def compare(self, ctx, key, rows):
        """Store the first output for ``key``; later ones must be identical."""
        first = self.outputs.setdefault(key, rows)
        if first is not rows:
            ctx.tally.check(np.array_equal(first, rows), f"output {key} differs on repeat")

    def run_checks(self, ctx, data):
        """Three routes to the same interpretation agree; small tables match the oracle."""
        for lam in SWEEP_LAMBDAS:
            config = RsaConfig(lam=lam)
            report = evaluation.evaluate(data.items, data.human, config, data.table)
            for item, entry in zip(data.items, report.items):
                single = engine.interpret(item, config, data.table).p
                p, _ = engine.interpret_with_gradient(item, config, data.table)
                worst = max(np.abs(single - entry.model).max(), np.abs(single - p).max())
                ctx.tally.check(worst <= AGREE_TOL,
                                f"{item.id} at lam={lam}: interpret, evaluate and "
                                f"interpret_with_gradient differ by {worst:.3g}")
        self.check_oracle(ctx, data)

    def check_oracle(self, ctx, data):
        """Small tables cut from the dataset against tests/oracle.py, all five variants."""
        for table, topic, vehicle in reduced_tables(data.table, data.seed, ORACLE_TABLES):
            item = MetaphorItem("m", topic, vehicle)
            rows = {c: table.row(c).tolist() for c in table.categories}
            for lam in ORACLE_LAMBDAS:
                for variant, overrides in VARIANTS:
                    config = replace(RsaConfig(lam=lam), **overrides)
                    got = engine.interpret(item, config, table).p
                    if config.mode == "fast":
                        want = fast_reference(rows[topic], rows[vehicle], lam)
                    else:
                        utterances = list(rows) if config.utterances == "all" else [topic, vehicle]
                        want = oracle.interpret(
                            topic, vehicle, lam, rows, utterances=utterances,
                            category_prior=config.category_prior, goal_prior=config.goal_prior,
                        )
                    worst = float(np.abs(got - np.asarray(want)).max())
                    ctx.tally.check(worst <= ORACLE_TOL,
                                    f"oracle mismatch {worst:.3g} ({variant}, lam={lam}, "
                                    f"{table.categories})")


def fast_reference(topic_row, vehicle_row, lam):
    """The fast pipeline written out with math.*: a_i * b_i**lam, normalized.

    tests/oracle.py covers only the full recursion, so fast mode is checked
    against this plain-Python form of the formula ``interpret_fast``
    documents.
    """
    logs = [math.log(a) + lam * math.log(b) for a, b in zip(topic_row, vehicle_row)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    total = sum(weights)
    return [w / total for w in weights]


def schedule(workload, datasets: int, seconds: float) -> list[int]:
    """Dataset index of each pass of a run: a fixed amount of work per run.

    About ``seconds`` of passes on a 2-core machine, at least two.  The
    passes cycle through the datasets, and at least one of them repeats an
    earlier pass's input so that its outputs can be checked for identity.
    """
    passes = max(2, round(seconds / workload.pass_s))
    distinct = min(passes - 1, datasets)
    return [index % distinct for index in range(passes)]


WORKLOADS = {w.name: w for w in (CliPipeline, Fit, LambdaSweep)}
