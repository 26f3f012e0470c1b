"""Rewrite seed12.json from the code under src/ and print every value that moved.

Run from the repository root, after a change that moves the golden run's
output on purpose:

    PYTHONPATH=src python tests/golden/regenerate.py

Each moved value is printed with its path, its old and new value and, for a
number, its relative move; list them in CHANGES.md.  No test runs this script.
"""

import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/, for test_golden

from test_golden import _NUMBER, GOLDEN, capture, differences  # noqa: E402


_SCALAR_LIST = re.compile(r"\[\n\s*([^\[\]{}]*?)\n\s*\]")


def _numbers(value):
    """The numbers in a leaf: the value itself, or those written in a string."""
    if isinstance(value, str):
        return [float(token) for token in _NUMBER.findall(value)]
    return [float(value)] if isinstance(value, (int, float)) else []


def main():
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else None
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            new = capture(Path(work))
        finally:
            os.chdir(home)
    text = json.dumps(new, indent=1, sort_keys=True)
    # one line per list of scalars: a matrix row or a distribution is one line of the diff
    text = _SCALAR_LIST.sub(lambda m: "[" + re.sub(r",\n\s*", ",", m[1]) + "]", text)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    if old is None:
        print(f"wrote {GOLDEN}")
        return
    changes = differences(old, new, tol=(0.0, 0.0))
    for path, before, after in changes:
        pairs = list(zip(_numbers(before), _numbers(after)))
        rel = max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b), default=0.0)
        note = f"  (relative move {rel:.2g})" if not math.isnan(rel) and rel else ""
        print(f"{path}: {before!r} -> {after!r}{note}")
    print(f"{len(changes)} values moved; wrote {GOLDEN}")


if __name__ == "__main__":
    main()
