"""The package's public surface."""

import ast
from pathlib import Path

import rsa_metaphor
from conftest import make_synthetic_dataset
from rsa_metaphor import RsaConfig, evaluate, interpret


def test_every_name_in_all_resolves():
    names = rsa_metaphor.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(rsa_metaphor, name)] == []
    namespace = {}
    exec("from rsa_metaphor import *", namespace)
    assert set(names) <= set(namespace)


def test_every_imported_name_is_read():
    # an import on a line marked "noqa: F401" and a name in __all__ are read from outside
    unused = []
    for path in sorted(Path(rsa_metaphor.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                 for name in ast.literal_eval(node.value)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name} line {node.lineno}: {name}")
    assert unused == []


def test_records_that_hold_arrays_compare_by_identity():
    # an array field's == has no truth value, so a field-wise == would raise, and hash too
    records = []
    for _ in range(2):
        table, items, human = make_synthetic_dataset(seed=12)
        report = evaluate(items, human, RsaConfig(), table)
        records.append((table, human, interpret(items[0], RsaConfig(), table), report.items[0],
                        report))
    for first, second in zip(*records):
        assert first == first
        assert first != second
        assert hash(first) != hash(second)
