"""Run the benchmark once per seed and report how steady each metric is.

Usage (from the root of a checkout):

    python3 bench/spread.py --workload fit --seeds 1-10 [--out runs.jsonl]
                            [--against earlier.jsonl] [--trace 1] [--repeat 2]

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartile as a share of the median.
A spread above the metric's bound in BENCHMARK.json, or a median worse than
the ``--against`` set's by more than the bound, is flagged.  With
``--trace 1`` it also runs each seed ``--repeat`` times and flags every
exact counter that differs between runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTERS
from stats import median, relative_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next((line for line in lines if line.startswith("samples:")), "")
    result["raw"] = raw.partition("raw wall time: ")[2]
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        for _ in range(args.repeat):
            result = run_once(args.workload, seed, seconds, args.trace)
            results.append(result)
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={result['wall_s']:.1f}s raw: {result['raw']}",
                  flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(result) + "\n")

    earlier = []
    if args.against:
        earlier = [json.loads(line) for line in args.against.read_text().splitlines() if line]
    flagged = 0
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        mid = median(values)
        spread = relative_spread(values) if len(values) > 1 and mid else 0.0
        line = f"{name:48s} median {mid:14.6g}  spread {spread:7.2%}"
        metric = bounds.get(name)
        if metric is not None:
            flag = name != "setup_s" and spread > metric["bound"]
            line += f"  bound {metric['bound']:.2f}  spread/bound {spread / metric['bound']:.2f}"
            if earlier:
                before = median([r["metrics"][name]["value"] for r in earlier])
                worse = (mid - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse-than-before {worse:+.2%}"
                flag = flag or worse > metric["bound"]
            if flag:
                flagged += 1
                line += "  FLAG"
        print(line)
    if args.trace:
        by_seed = {}
        for r in results:
            by_seed.setdefault(r["seed"], []).append(r["metrics"])
        for seed, runs in by_seed.items():
            for name in EXACT_COUNTERS:
                if len({m[name]["value"] for m in runs}) > 1:
                    flagged += 1
                    print(f"FLAG exact counter {name} differs across runs of seed {seed}: "
                          f"{[m[name]['value'] for m in runs]}")
    failed = sum(r["failed"] for r in results)
    print(f"{len(results)} runs, {failed} failed operations, {flagged} flagged")
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
