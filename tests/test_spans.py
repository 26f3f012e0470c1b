"""The benchmark's span targets must name attributes the package still has.

``bench/spans.py`` wraps each ``module:attr`` path in ``TARGETS``; a path
that no longer resolves breaks ``bench/run.py --trace 1`` without failing
any other test.  The module imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("path, span", _targets())
def test_span_target_resolves(path, span):
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{path} (span {span}) is not callable"
