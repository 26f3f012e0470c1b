"""Benchmark for the RSA metaphor library and CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli_pipeline,fit,lambda_sweep}
                         [--seed 12] [--seconds 30] [--trace 0|1]

The seed makes the run's full-scale synthetic datasets (48 categories x 59
features x 24 metaphors each).  One client calls the package in a closed loop:
each call starts after the previous one returns, and at most one CLI child
process runs at a time.  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric, its times scaled
to a fixed machine speed (see bench/workloads.py); with ``--trace 1`` it
holds every per-layer metric, taken from spans recorded around the calls
between layers.  See bench/README.md for what each workload and metric is
for.

Exit status is 0 when a result was printed, whether or not every output
check passed (``correct`` says that), and 2 when the package cannot be
found in this checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 12
DATASETS = 12  # datasets per run; the first is made from the seed itself
SETUP_REPEATS = 5


def import_package():
    """Import rsa_metaphor and the test oracle from this checkout, or exit 2."""
    sys.path[1:1] = [str(SRC), str(ROOT / "tests")]
    try:
        import oracle  # noqa: F401  (tests/oracle.py, the independent reference)
        import rsa_metaphor
    except ImportError as exc:
        print(f"bench: cannot import the package from {SRC} or tests/oracle.py: {exc}",
              file=sys.stderr)
        sys.exit(2)
    package_file = Path(rsa_metaphor.__file__).resolve()
    if SRC not in package_file.parents:
        print(f"bench: rsa_metaphor resolved to {package_file}, outside {SRC}", file=sys.stderr)
        sys.exit(2)
    return package_file


def blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, or None if not found."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not a git tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.stdout.strip())


def environment(package_file):
    import numpy as np

    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "rsa_metaphor_file": str(package_file),
    }


def end_to_end_units():
    from workloads import UNITS

    return {"setup_s": "s", "peak_rss_mb": "MB", **UNITS}


def per_layer_units(names):
    suffixes = (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("_ratio", "ratio"),
                ("_per_iteration", "ratio"), ("_per_item", "ratio"), ("_bytes", "bytes"))
    return {name: next((unit for suffix, unit in suffixes if name.endswith(suffix)), "count")
            for name in names}


def dataset_seeds(seed):
    """Generator seeds of the run's datasets: ``seed`` first, then seeds derived from it."""
    return [seed + 100_000 * index for index in range(DATASETS)]


def setup(work, seed):
    """Write and load the run's datasets."""
    from dataset import write_dataset
    from rsa_metaphor import lexicon
    from workloads import Data

    out = []
    for index, s in enumerate(dataset_seeds(seed)):
        data_dir = write_dataset(s, work / f"data-{index}")
        out.append(Data(index, s, data_dir, *lexicon.load_dataset(data_dir)))
    return out


def warm_up(data):
    from rsa_metaphor import engine, evaluation
    from rsa_metaphor.engine import RsaConfig

    engine.interpret(data.items[0], RsaConfig(), data.table)
    engine.interpret_with_gradient(data.items[0], RsaConfig(), data.table)
    evaluation.evaluate(data.items, data.human, RsaConfig(), data.table)


def measure(workload, ctx, datasets, seconds):
    """End-to-end metrics from a fixed schedule of passes (``workloads.schedule``)."""
    from workloads import new_samples, run_pass, schedule, speed_scale, summarize

    samples = new_samples()
    for index in schedule(workload, len(datasets), seconds):
        run_pass(workload, ctx, datasets[index], samples)
    raw = summarize(samples)
    scale = speed_scale(samples["loops"])
    print(f"samples: {len(samples['op'])} operations, {len(samples['pass'])} passes; "
          f"raw wall time: op_p50_ms {raw['op_p50_ms']:.6g}, pass_s {raw['pass_s']:.6g}; "
          f"speed scale {scale:.4f}")
    return summarize(samples, scale)


def trace(workload, ctx, data, train_size, seconds):
    """Per-layer metrics from traced passes, alternated with untraced ones.

    The workload's first pass runs untraced then traced, in pairs until
    ``seconds`` have passed, and in at least two pairs.
    """
    import rsa_metaphor.metrics
    from spans import (EXACT_COUNTERS, LAYERS, Recorder, count_warnings_from, layer_metrics,
                       reemit_once)
    from stats import median
    from workloads import new_samples, run_pass

    untraced_walls, passes = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        scratch = new_samples()
        started = time.perf_counter()
        run_pass(workload, ctx, data, scratch)
        untraced_walls.append(time.perf_counter() - started)

        ctx.recorder = recorder = Recorder(run=index)
        ctx.child_warnings = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restore = recorder.install()
            try:
                started = time.perf_counter()
                run_pass(workload, ctx, data, scratch)
                wall = time.perf_counter() - started
            finally:
                restore()
                ctx.recorder = None
        reemit_once(caught)
        figures = layer_metrics(recorder.spans, wall, train_size)
        figures["metrics.warnings"] = (
            count_warnings_from(caught, rsa_metaphor.metrics.__file__) + ctx.child_warnings
        )
        accounted = sum(figures[f"{layer}.self_ms"] for layer in LAYERS)
        ctx.tally.check(abs(accounted + figures["trace.unspanned_ms"] - wall * 1e3) < 1e-3,
                        "layer self times plus unspanned time do not add up to the wall time")
        passes.append(figures)
        index += 1

    unstable = [name for name in EXACT_COUNTERS
                if len({figures[name] for figures in passes}) > 1]
    ctx.tally.check(not unstable, f"exact counters differ between traced passes: {unstable}")
    values = {name: median([figures[name] for figures in passes]) for name in passes[0]}
    for name in EXACT_COUNTERS:
        values[name] = passes[0][name]
    values["trace.counter_mismatches"] = len(unstable)
    values["trace.overhead_pct"] = (
        (median([p["trace.wall_ms"] for p in passes]) / 1e3 / median(untraced_walls) - 1.0) * 100
    )
    return values


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_pipeline", "fit", "lambda_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package_file = import_package()
    from rsa_metaphor.learn import TRAIN_PER_CLASS
    from stats import median
    from workloads import WORKLOADS, Context, reference_loop_s, schedule, speed_scale

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    print("environment " + json.dumps(environment(package_file), sort_keys=True))

    workload = WORKLOADS[args.workload]()
    # a fixed path keeps artifacts, which embed it, the same size on every run
    work = ROOT / ".bench_work" / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root=ROOT, work=work, env=env)
    setup_times = []

    try:
        for _ in range(SETUP_REPEATS):  # later set-ups rewrite identical files
            before = reference_loop_s()
            started = time.perf_counter()
            datasets = setup(work, args.seed)
            elapsed = time.perf_counter() - started
            setup_times.append(elapsed * speed_scale([before, reference_loop_s()]))
        warm_up(datasets[0])
        used = sorted(set(schedule(workload, len(datasets), args.seconds)))
        for index in used[:1] if args.trace else used:
            ctx.tally.run(functools.partial(workload.run_checks, ctx, datasets[index]))
        if args.trace:
            values = trace(workload, ctx, datasets[0], 2 * TRAIN_PER_CLASS, args.seconds)
            units = per_layer_units(values)
        else:
            values = measure(workload, ctx, datasets, args.seconds)
            values["setup_s"] = median(setup_times)
            values["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_pipeline")
            units = end_to_end_units()
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
