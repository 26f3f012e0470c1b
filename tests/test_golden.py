"""Golden CLI run: the seven-command pipeline on the seed-12 dataset against stored output.

``tests/golden/seed12.json`` holds each command's exit code, stdout and stderr,
and every artifact the run leaves in its output directory: JSON artifacts
parsed, CSV artifacts as their parsed header line plus their rows.  Keys,
strings, ints, bools, exit codes and CSV cells that are not floats must match
exactly; floats, in the artifacts and in the text, must match within
``REL_TOL`` or ``ABS_TOL``, so that another CPU's or numpy version's rounding
passes while a change in behaviour does not.  A change that moves a value on
purpose regenerates the file with ``tests/golden/regenerate.py``, which prints
every moved value; no test runs that script.

The bounds were measured.  The seven commands were rerun eight times with
every ``np.exp``, ``np.log`` and ``np.log1p`` result in the package moved by a
random ulp.  Every float moved by at most 2.2e-11 absolute (a feature
correlation of -0.003) or 7.2e-9 relative; the gradient norm at the optimum,
which is rounding noise, by 6.3e-13.  ``REL_TOL`` sits 36x above the 2.8e-10
relative move lambda then made and ``ABS_TOL`` 45x above the largest absolute
one.  The fit's refinement path is compared too: since a bracket also stops
where g is rounding noise (``objective_tolerance``), 24 such reruns all kept
the golden ``iterations`` and trace, where before the fit's optimum, flat to
the last bit over two points, made 4 of 8 run a round or two more.
"""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import make_synthetic_dataset
from rsa_metaphor import save_dataset
from rsa_metaphor.cli import main

GOLDEN = Path(__file__).parent / "golden" / "seed12.json"
REL_TOL = 1e-8
ABS_TOL = 1e-9

_DATA = ["--data-dir", "data"]
_OUT = [*_DATA, "--output-dir", "out"]
_LEARNED = ["--lambda", "learned"]
# the benchmark's cli_pipeline pass on its first dataset: seed 12, split seed 0
COMMANDS = (
    ("validate", ["validate", *_DATA]),
    ("train", ["train", *_OUT, "--seed", "0"]),
    ("eval", ["eval", *_OUT, *_LEARNED, "--seed", "0"]),
    ("ablate_no_relevance", ["ablate", "--kind", "no-relevance", *_OUT, *_LEARNED, "--seed", "0"]),
    ("ablate_grid", ["ablate", "--kind", "grid-lambda", *_OUT, "--seed", "0"]),
    ("corr", ["corr", *_OUT, *_LEARNED]),
    ("interpret", ["interpret", *_OUT, *_LEARNED, "--topic", "c0", "--vehicle", "c24"]),
)

# a number in free text: a float has a point or an exponent, an int has neither
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+)")


def capture(workdir: Path) -> dict:
    """Run :data:`COMMANDS` with ``workdir`` as the working directory; return what they left.

    The caller makes ``workdir`` the working directory, so that the paths the
    artifacts echo are the relative ``data`` and ``out``.
    """
    save_dataset(*make_synthetic_dataset(seed=12), workdir / "data")
    runner = CliRunner()
    commands = []
    for name, args in COMMANDS:
        result = runner.invoke(main, args)
        commands.append({"name": name, "args": args, "exit_code": result.exit_code,
                         "stdout": result.stdout, "stderr": result.stderr})
    files = {}
    for path in sorted((workdir / "out").iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            files[path.name] = json.loads(text)
        else:
            header, _, body = text.partition("\n")
            files[path.name] = {"header": json.loads(header.removeprefix("# ")),
                                "rows": list(csv.reader(io.StringIO(body)))}
    return {"commands": commands, "files": files}


def _close(a: float, b: float, tol: tuple[float, float]) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=tol[0],
                                                              abs_tol=tol[1])


def _text_diff(expected: str, actual: str, tol=(REL_TOL, ABS_TOL)) -> bool:
    """Whether two texts differ beyond float rounding: their floats are compared within
    ``tol`` (relative, absolute), and everything else, ints included, exactly."""
    split_e, split_a = _NUMBER.split(expected), _NUMBER.split(actual)
    nums_e, nums_a = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if split_e != split_a or len(nums_e) != len(nums_a):
        return True
    for e, a in zip(nums_e, nums_a):
        floats = any(c in e + a for c in ".eE")
        if (not _close(float(e), float(a), tol)) if floats else e != a:
            return True
    return False


def differences(expected, actual, path="", tol=(REL_TOL, ABS_TOL)):
    """(path, expected, actual) for every place where ``actual`` differs from ``expected``
    by more than float rounding within ``tol`` (relative, absolute); (0, 0) lists every move."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [(path + "{keys}", sorted(expected), sorted(actual))]
        return [d for key in expected
                for d in differences(expected[key], actual[key], f"{path}/{key}", tol)]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [(path + "[len]", len(expected), len(actual))]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in differences(e, a, f"{path}/{i}", tol)]
    if type(expected) is float and type(actual) is float:
        return [] if _close(expected, actual, tol) else [(path, expected, actual)]
    if isinstance(expected, str) and isinstance(actual, str):
        # CSV cells and stdout: floats within the bounds, the rest exactly
        return [(path, expected, actual)] if _text_diff(expected, actual, tol) else []
    if type(expected) is not type(actual) or expected != actual:
        return [(path, expected, actual)]
    return []


def test_seed12_pipeline_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    actual = capture(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = differences(expected, actual)
    listed = "\n".join(f"{path}: expected {e!r}, got {a!r}" for path, e, a in found[:20])
    assert not found, f"{len(found)} values differ from {GOLDEN.name}:\n{listed}"


@pytest.mark.parametrize("expected, actual, differ", [
    ("lambda=5.88421", "lambda=5.88421", False),
    ("  f3  0.0412345678901", "  f3  0.0412345678902", False),  # the 12th digit
    ("  f3  0.04123", "  f3  0.04124", True),
    ("0.00191408228888", "0.00191408230258", False),  # 1.4e-11 apart, under ABS_TOL
    ("top-1 matches 3/24", "top-1 matches 4/24", True),  # ints exactly
    ("f3", "f4", True),
    ("1e-05", "1.00000000001e-05", False),
])
def test_text_compares_floats_within_the_bounds_only(expected, actual, differ):
    assert _text_diff(expected, actual) is differ
