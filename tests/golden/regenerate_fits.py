"""Rewrite fits.json from the code under src/ and print every value that moved.

Run from the repository root, after a change that moves a fit or a grid pick on
purpose, or to show that a change moves none:

    PYTHONPATH=src python tests/golden/regenerate_fits.py

Each moved value is printed with its path, its old and new value and, for a
number, its relative move; list them in CHANGES.md.  The script also prints a
SHA-256 over the kernel's forward and gradient outputs at lambda 0, 0.5, 5,
44.43, 1e3 and 1e5 (all 24 items of each dataset, the five configs), for
same-bits claims; the file keeps it for the next run to compare against, and
no test reads it, since another numpy or CPU need not give the same bits.  No
test runs this script.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/

from rsa_metaphor.engine import _interpret_lams  # noqa: E402
from test_fit_accounting import CONFIGS, FITS, account, datasets  # noqa: E402
from test_golden import differences  # noqa: E402

KERNEL_LAMS = (0.0, 0.5, 5.0, 44.43, 1e3, 1e5)

# one line per start: a start that moves is one line of the diff
_START = re.compile(r"\{\n\s*(\"init\"[^{}]*?)\n\s*\}")


def kernel_sha256() -> str:
    digest = hashlib.sha256()
    for _, table, items, _ in datasets():
        for config in CONFIGS.values():
            for gradient in (False, True):
                for array in _interpret_lams(items, config, table, KERNEL_LAMS, gradient):
                    if array is not None:
                        digest.update(array.tobytes())
    return digest.hexdigest()


def main():
    old = json.loads(FITS.read_text(encoding="utf-8")) if FITS.exists() else None
    new = {**account(), "kernel_sha256": kernel_sha256()}
    text = json.dumps(new, indent=1, sort_keys=True)
    text = _START.sub(lambda m: "{" + re.sub(r",\n\s*", ", ", m[1]) + "}", text)
    FITS.write_text(text + "\n", encoding="utf-8")
    print(f"kernel sha256 {new['kernel_sha256']}")
    if old is None:
        print(f"wrote {FITS}")
        return
    print("kernel bits", "unchanged" if old.get("kernel_sha256") == new["kernel_sha256"]
          else f"moved (was {old.get('kernel_sha256')})")
    old.pop("kernel_sha256", None)
    new.pop("kernel_sha256")
    changes = differences(old, new, tol=(0.0, 0.0))
    for path, before, after in changes:
        numbers = all(type(v) in (int, float) for v in (before, after))
        rel = abs(after - before) / max(abs(before), abs(after)) if numbers else 0.0
        note = f"  (relative move {rel:.2g})" if rel else ""
        print(f"{path}: {before!r} -> {after!r}{note}")
    print(f"{len(changes)} values moved; wrote {FITS}")


if __name__ == "__main__":
    main()
