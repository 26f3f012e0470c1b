"""Independent per-row reader for a dataset directory: the reference for ``read_dataset``.

The package checks and converts each column whole; this file reads one row at a
time with the ``csv`` module and plain loops, and stops at the first fault.  It
shares no code with the package, so that a change to the package's fault order
shows against it, as ``oracle.py`` stands beside the listener kernel.  Row sums
are numpy sums of one row, which the package's row sums match bit for bit.

:func:`read` returns ``(categories, features, values, items, human)`` or raises
:class:`Fault` with the message ``read_dataset`` raises:

* a file is read whole; bytes that are not UTF-8, a header that is not the
  file's, a row of the wrong width and a row the ``csv`` module rejects are
  faults of the file, named in that order of precedence as ``line N``;
* then the data rows are checked in file order, each check of a row in a fixed
  order, and the first failing check of the first failing row is named by the
  physical line its row starts on (blank rows and newlines in quoted fields
  count);
* typicality: the raw Likert range, the feature count and missing cells are
  checked after every row has passed, and raw ratings are divided by their
  row sums;
* human responses: each metaphor's row, in first-seen order, is divided by its
  sum unless that sum is within 1e-9 of 1; a row whose sum overflows is divided
  by its max first, and a row that sums to 0 is a fault.
"""

import csv
import io

import numpy as np

HEADERS = {
    "typicality.csv": ["category", "feature", "value"],
    "metaphors.csv": ["id", "topic", "vehicle", "class", "familiarity"],
    "human.csv": ["metaphor_id", "feature", "count"],
}
CLASSES = ("inherent", "non_inherent")
TOLERANCE = 1e-9


class Fault(Exception):
    """The first fault of a dataset, as the message ``read_dataset`` gives."""


def number(text):
    """``float(text)``, or None where it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def data_rows(data_dir, name):
    """The (line, fields) of each non-blank data row of ``name``, line counted from 1."""
    data = (data_dir / name).read_bytes()
    for lineno, line in enumerate(data.split(b"\n"), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            raise Fault(f"{name} line {lineno}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    records, error, end = [], None, 0
    while True:
        try:
            fields = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            error = f"{name} line {reader.line_num}: {exc}"
            break
        records.append((end + 1, fields))
        end = reader.line_num
    if not records:
        raise Fault(error or f"{name}: empty file")
    header = HEADERS[name]
    if records[0][1] != header:
        raise Fault(f"{name} line 1: expected header {','.join(header)!r}, "
                    f"got {','.join(records[0][1])!r}")
    rows = [(line, fields) for line, fields in records[1:] if fields]
    for line, fields in rows:
        if len(fields) != len(header):
            raise Fault(f"{name} line {line}: expected {len(header)} fields, got {len(fields)}")
    if error:
        raise Fault(error)
    return rows


def read_typicality(data_dir, raw_ratings):
    categories, features, cells = [], [], {}
    for line, (category, feature, text) in data_rows(data_dir, "typicality.csv"):
        if category == "" or feature == "":
            raise Fault(f"typicality.csv line {line}: empty category or feature identifier")
        if (category, feature) in cells:
            raise Fault(f"typicality.csv line {line}: duplicate cell ({category!r}, {feature!r})")
        value = number(text)
        if value is None:
            raise Fault(f"typicality.csv line {line}: not a number: {text!r}")
        cells[category, feature] = value
        if category not in categories:
            categories.append(category)
        if feature not in features:
            features.append(feature)
    if raw_ratings:
        for (category, feature), value in cells.items():
            if not 1.0 <= value <= 7.0:
                raise Fault(f"typicality.csv: rating for ({category!r}, {feature!r}) is "
                            f"{value!r}, outside the Likert range [1, 7]")
    if len(features) < 2:
        raise Fault("feature vocabulary needs at least 2 features")
    missing = [(c, f) for c in categories for f in features if (c, f) not in cells]
    if missing:
        shown = ", ".join(f"({c!r}, {f!r})" for c, f in missing[:5])
        raise Fault(f"typicality.csv: {len(missing)} missing cell(s): {shown}")
    values = []
    for c in categories:
        row = np.array([cells[c, f] for f in features])
        values.append(row / row.sum() if raw_ratings else row)
    return categories, features, np.array(values).reshape(len(categories), len(features))


def read_metaphors(data_dir, categories):
    items = {}
    for line, (item_id, topic, vehicle, klass, familiarity) in data_rows(data_dir,
                                                                         "metaphors.csv"):
        where = f"metaphors.csv line {line}"
        if item_id == "":
            raise Fault(f"{where}: empty metaphor id")
        if item_id in items:
            raise Fault(f"{where}: duplicate metaphor id {item_id!r}")
        if klass not in CLASSES:
            raise Fault(f"{where}: class must be one of {CLASSES}, got {klass!r}")
        if topic not in categories:
            raise Fault(f"{where}: topic {topic!r} not in typicality.csv")
        if vehicle not in categories:
            raise Fault(f"{where}: vehicle {vehicle!r} not in typicality.csv")
        if topic == vehicle:
            raise Fault(f"{where}: topic and vehicle are both {topic!r}")
        fam = None if familiarity == "" else number(familiarity)
        if familiarity != "" and fam is None:
            raise Fault(f"{where}: not a number: {familiarity!r}")
        items[item_id] = (item_id, topic, vehicle, klass, fam)
    return list(items.values())


def read_human(data_dir, features, item_ids):
    counts = {}  # metaphor id -> {feature: count}, both in first-seen order
    for line, (metaphor_id, feature, text) in data_rows(data_dir, "human.csv"):
        where = f"human.csv line {line}"
        if metaphor_id not in item_ids:
            raise Fault(f"{where}: unknown metaphor id {metaphor_id!r}")
        if feature not in features:
            raise Fault(f"{where}: unknown feature {feature!r}")
        if feature in counts.get(metaphor_id, {}):
            raise Fault(f"{where}: duplicate ({metaphor_id!r}, {feature!r})")
        count = number(text)
        if count is None:
            raise Fault(f"{where}: not a number: {text!r}")
        if count in (float("inf"), float("-inf")) or count != count:
            raise Fault(f"{where}: count {count!r} is not finite")
        if count < 0:
            raise Fault(f"{where}: negative count {count!r}")
        counts.setdefault(metaphor_id, {})[feature] = count
    human = {}
    for metaphor_id, row in counts.items():
        vec = np.array([row.get(f, 0.0) for f in features])
        with np.errstate(over="ignore"):
            total = vec.sum()
        if total == float("inf"):
            vec = vec / vec.max()
            total = vec.sum()
        if total <= 0:
            raise Fault(f"human.csv: responses for {metaphor_id!r} sum to zero")
        human[metaphor_id] = vec if abs(total - 1.0) <= TOLERANCE else vec / total
    return human


def read(data_dir, raw_ratings=False):
    categories, features, values = read_typicality(data_dir, raw_ratings)
    items = read_metaphors(data_dir, categories)
    human = read_human(data_dir, features, {item[0] for item in items})
    return categories, features, values, items, human
