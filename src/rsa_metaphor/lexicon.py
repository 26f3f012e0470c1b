"""Data model and CSV ingestion for typicality tables, metaphors, and human responses.

A dataset lives in one directory holding three UTF-8 CSV files, named with
their exact headers in :data:`DATASET_FILES`:

* ``typicality.csv`` — one row per (category, feature) cell.  ``value`` is a
  normalized typicality in (0, 1), or a mean Likert rating in [1, 7] when
  loading with ``raw_ratings=True``.
  The grid must be dense: every category needs a value for every feature.
  The feature vocabulary is the set of features in this file, in order of
  first appearance; that order is the canonical feature index everywhere.
* ``metaphors.csv`` — one row per metaphor; ``class`` is ``inherent`` or
  ``non_inherent``; ``familiarity`` may be empty.
* ``human.csv`` — ``count`` is a non-negative real (a raw selection count or
  a pre-normalized weight), normalized per metaphor at load.  Features
  without a row get weight 0.  :class:`HumanResponseTable` rejects a row that
  is not a distribution when it is built; :func:`validate` reports the rest.

Floats are written as ``repr(float(value))``, the shortest decimal that
reads back as the same double, so saving a valid dataset and loading it
back gives the same arrays, bit for bit.

Reading and writing work in column passes.  Each file is parsed once; a
column is checked and converted whole, and a grid is filled through one flat
index array.  Each identifier is quoted once on writing.  An error names the
first failing row in file order and, within a row, the first check it fails.
Its physical line, where a quoted field may hold newlines, is found by
reading the file again, on the error path only.

All loaded types are frozen and their arrays read-only, so a dataset can be
shared freely across parallel workers; loading itself is single-threaded.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DatasetError, UnknownCategoryError

ROW_SUM_TOL = 1e-9

_VOCAB_DIFFERS = "human responses: feature vocabulary differs from the typicality table's"

INHERENT = "inherent"
NON_INHERENT = "non_inherent"
_CLASSES = (INHERENT, NON_INHERENT)

# file name -> exact header, in the order the CLI hashes the files
DATASET_FILES = {
    "typicality.csv": ("category", "feature", "value"),
    "metaphors.csv": ("id", "topic", "vehicle", "class", "familiarity"),
    "human.csv": ("metaphor_id", "feature", "count"),
}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_identifiers(names: tuple[str, ...], kind: str) -> None:
    """Raise unless every identifier is non-empty and none repeats."""
    seen = set()
    for name in names:
        if not name:
            raise DatasetError(f"empty {kind} identifier")
        if name in seen:
            raise DatasetError(f"duplicate {kind} identifier {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class FeatureVocab:
    """Ordered feature identifiers; position in ``features`` is the feature index."""

    features: tuple[str, ...]

    def __post_init__(self):
        if len(self.features) < 2:
            raise DatasetError("feature vocabulary needs at least 2 features")
        _check_identifiers(self.features, "feature")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.features)}

    def index(self, feature: str) -> int:
        try:
            return self._index[feature]
        except KeyError:
            raise DatasetError(f"unknown feature {feature!r}") from None

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[str]:
        return iter(self.features)


@dataclass(frozen=True, eq=False)
class TypicalityTable:
    """Normalized typicality of each feature for each category noun.

    ``values[c, i]`` is the typicality of feature i for category c; valid rows lie
    strictly inside (0, 1) and sum to 1 (:attr:`degenerate_rows`).  :func:`validate`
    reports the rows that do not, and the constructor lets them in, so that a report
    can be produced for dirty data.
    """

    categories: tuple[str, ...]
    vocab: FeatureVocab
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (len(self.categories), len(self.vocab)):
            raise DatasetError(
                f"typicality matrix shape {arr.shape} does not match "
                f"{len(self.categories)} categories x {len(self.vocab)} features"
            )
        _check_identifiers(self.categories, "category")
        object.__setattr__(self, "values", _read_only(arr.copy()))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.categories)}

    @cached_property
    def log_values(self) -> np.ndarray:
        """``log(values)``, read-only; -inf where a value is 0 (NaN below 0)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return _read_only(np.log(self.values))

    @cached_property
    def log1m_values(self) -> np.ndarray:
        """``log(1 - values)``, read-only; -inf where a value is 1 (NaN above 1)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return _read_only(np.log1p(-self.values))

    @cached_property
    def degenerate_rows(self) -> np.ndarray:
        """Per category: does its row break the rule every scoring path reads rows by, that
        every value lies strictly inside (0, 1) and the row sums to 1 within :data:`ROW_SUM_TOL`?"""
        inside = (self.values > 0.0) & (self.values < 1.0)  # False for NaN
        sums = np.where(inside, self.values, 0.0).sum(axis=1)  # cells outside left out: no overflow
        return _read_only(~(inside.all(axis=1) & (np.abs(sums - 1.0) <= ROW_SUM_TOL)))

    @cached_property
    def _speaker_memo(self) -> list:
        """One slot for the speaker state of the last lams scored over every category."""
        return [None]

    @property
    def n(self) -> int:
        """Feature count."""
        return len(self.vocab)

    def category_index(self, category: str) -> int:
        """Row of ``category``; an unknown one raises with up to five near matches."""
        try:
            return self._index[category]
        except KeyError:
            import difflib  # only the error path pays for the import

            near = difflib.get_close_matches(str(category), self.categories, n=5)
            raise UnknownCategoryError(category, suggestions=near) from None

    def __contains__(self, category: str) -> bool:
        return category in self._index

    def row(self, category: str) -> np.ndarray:
        return self.values[self.category_index(category)]


@dataclass(frozen=True)
class MetaphorItem:
    """A topic-vehicle pair, as in "Workers are ants" (topic=workers, vehicle=ants).

    ``inherence`` records whether the intended meaning is among the vehicle's
    salient semantic norms ("inherent") or not ("non_inherent"); it is an
    input label, not recomputed.  ``None`` marks an ad-hoc pair built outside
    a dataset (e.g. from the command line).
    """

    id: str
    topic: str
    vehicle: str
    inherence: str | None = None
    familiarity: float | None = None

    def __post_init__(self):
        if self.topic == self.vehicle:
            raise DatasetError(f"metaphor {self.id!r}: topic and vehicle are both {self.topic!r}")
        if self.inherence is not None and self.inherence not in _CLASSES:
            raise DatasetError(
                f"metaphor {self.id!r}: class must be one of {_CLASSES}, got {self.inherence!r}"
            )


@dataclass(frozen=True, eq=False)
class HumanResponseTable:
    """Normalized human interpretation distribution per metaphor id.

    Each row must hold ``len(vocab)`` entries >= 0 that sum to 1 within :data:`ROW_SUM_TOL`;
    the constructor raises DatasetError at the first that does not, and keeps read-only copies.
    """

    vocab: FeatureVocab
    responses: Mapping[str, np.ndarray]

    def __post_init__(self):
        n, rows = len(self.vocab), {}
        for metaphor_id, row in self.responses.items():
            rows[metaphor_id] = row = _read_only(np.array(row, dtype=float))
            with np.errstate(over="ignore"):  # a sum that overflows is inf, not 1
                total = row.sum()
            if row.shape != (n,) or not (row >= 0.0).all() or abs(total - 1.0) > ROW_SUM_TOL:
                raise DatasetError(  # a NaN entry fails >= 0
                    f"human responses for {metaphor_id!r}: not a distribution over {n} features")
        object.__setattr__(self, "responses", rows)

    def distribution(self, metaphor_id: str) -> np.ndarray:
        try:
            return self.responses[metaphor_id]
        except KeyError:
            raise DatasetError(f"no human responses for metaphor {metaphor_id!r}") from None

    def rows(self, metaphor_ids, vocab: FeatureVocab) -> np.ndarray:
        """The rows of ``metaphor_ids`` as one block; DatasetError for another vocab or no row."""
        if vocab != self.vocab:
            raise DatasetError(_VOCAB_DIFFERS)
        return np.stack([self.distribution(metaphor_id) for metaphor_id in metaphor_ids])

    def __contains__(self, metaphor_id: str) -> bool:
        return metaphor_id in self.responses

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.responses)


@dataclass(frozen=True)
class ValidationReport:
    """List of invariant violations; empty iff the dataset is usable."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.violations)


def normalize_ratings(ratings: TypicalityTable) -> TypicalityTable:
    """Turn a table of mean ratings into typicalities by row-sum normalization.

    Every rating must be positive and finite; the error names the first cell
    that is not.  The reader builds the dense table and checks the Likert
    [1, 7] range before this runs.  Row-sum division makes the operation
    scale-invariant per category and idempotent on already-normalized rows.
    """
    values = ratings.values
    bad = np.argwhere(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        c, i = bad[0]
        raise DatasetError(
            f"rating for ({ratings.categories[c]!r}, {ratings.vocab.features[i]!r}) is "
            f"{float(values[c, i])!r}, not a positive number"
        )
    values, sums = _scaled_rows(values)
    return TypicalityTable(ratings.categories, ratings.vocab, values / sums[:, None])


def _scaled_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A copy of C-order ``rows`` (finite, >= 0), each row whose sum overflows divided by
    its max first, and the copy's row sums, which have the bits of each row's 1-D sum."""
    with np.errstate(over="ignore"):
        overflows = np.isinf(rows.sum(axis=-1, keepdims=True))
    rows = np.divide(rows, rows.max(axis=-1, keepdims=True), out=rows.copy(), where=overflows)
    return rows, rows.sum(axis=-1)


def _read_rows(data_dir: Path, name: str) -> tuple[list[list[str]], Callable[[int], str]]:
    """The data rows of dataset file ``name``, blank rows dropped, and ``where``, which
    names the line a data row starts on as ``"<name> line <N>"``.

    The header must be exactly the file's :data:`DATASET_FILES` entry and every row
    must have its width.  Bytes that are not UTF-8 and rows the CSV reader rejects
    raise DatasetError; of these faults the first in the file is named.
    """
    expected_header = DATASET_FILES[name]
    data = (data_dir / name).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{name} line {lineno}: not UTF-8 text") from None
    reader, records, failure = csv.reader(io.StringIO(text, newline="")), [], None
    try:
        records.extend(reader)  # on a csv.Error the records before it stay
    except csv.Error as exc:
        failure = f"{name} line {reader.line_num}: {exc}"
    if not records:
        raise DatasetError(failure or f"{name}: empty file")
    if tuple(records[0]) != expected_header:
        raise DatasetError(
            f"{name} line 1: expected header {','.join(expected_header)!r}, "
            f"got {','.join(records[0])!r}"
        )
    rows, where = list(filter(None, records[1:])), partial(_where, name, text)
    width = len(expected_header)
    if set(map(len, rows)) - {width}:
        k = next(k for k, fields in enumerate(rows) if len(fields) != width)
        raise DatasetError(f"{where(k)}: expected {width} fields, got {len(rows[k])}")
    if failure:
        raise DatasetError(failure)
    return rows, where


def _where(name: str, text: str, row: int) -> str:
    """``"<name> line <N>"``, N the physical line data row ``row`` of ``text`` starts on:
    blank rows and newlines inside quoted fields count.  Read again on error only."""
    reader, end = csv.reader(io.StringIO(text, newline="")), 0
    for fields in reader:
        if fields:  # the header, then the data rows
            if row < 0:
                return f"{name} line {end + 1}"
            row -= 1
        end = reader.line_num
    raise AssertionError(f"{name} has no data row {row}")


def _codes(names: tuple[str, ...], index: Mapping[str, int]) -> np.ndarray:
    """The position in ``index`` of each name; -1 for a name not in it."""
    return np.fromiter(map(index.get, names, itertools.repeat(-1)), np.intp, len(names))


def _floats(texts: tuple[str, ...]) -> tuple[np.ndarray, int]:
    """The values of ``texts`` by the rules of ``float()``, up to the first that is not a
    number, and that one's index (``len(texts)`` when every one is)."""
    values: list[float] = []
    try:
        values.extend(map(float, texts))  # on a ValueError the values before it stay
    except ValueError:
        pass
    return np.array(values, dtype=float), len(values)


def _first(mask: np.ndarray) -> int:
    """The index of the first True in ``mask``; ``len(mask)`` when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def _first_repeat(keys: np.ndarray) -> int:
    """The index of the first key equal to an earlier one; ``len(keys)`` when none is."""
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    return _first(~first)


def _raise_first(where: Callable[[int], str], n: int, faults) -> None:
    """Raise for the fault on the earliest of ``n`` rows, if any; ``faults`` holds (row,
    message of row) pairs in the order a row is checked, row ``n`` for a check no row
    fails, so a tie goes to the check made first."""
    row, message = min(faults, key=lambda fault: fault[0])
    if row < n:
        raise DatasetError(f"{where(row)}: {message(row)}")


def _read_typicality(data_dir: Path, raw_ratings: bool) -> TypicalityTable:
    """The dense category x feature grid of ``typicality.csv``, both axes in first-seen order."""
    rows, where = _read_rows(data_dir, "typicality.csv")
    category_col, feature_col, value_col = zip(*rows) if rows else ((), (), ())
    n = len(rows)
    categories = {name: i for i, name in enumerate(dict.fromkeys(category_col))}
    features = {name: i for i, name in enumerate(dict.fromkeys(feature_col))}
    cell = _codes(category_col, categories) * len(features) + _codes(feature_col, features)
    seen = np.zeros(len(categories) * len(features), dtype=bool)
    seen[cell] = True
    values, parsed = _floats(value_col)
    _raise_first(where, n, (
        (min((col.index("") for col in (category_col, feature_col) if "" in col), default=n),
         lambda k: "empty category or feature identifier"),
        (_first_repeat(cell),
         lambda k: f"duplicate cell ({category_col[k]!r}, {feature_col[k]!r})"),
        (parsed, lambda k: f"not a number: {value_col[k]!r}"),
    ))

    if raw_ratings:  # before the grid is built, so a range error is reported first
        outside = ~((values >= 1.0) & (values <= 7.0))  # NaN is outside
        if outside.any():
            k = _first(outside)
            raise DatasetError(
                f"typicality.csv: rating for ({category_col[k]!r}, {feature_col[k]!r}) is "
                f"{float(values[k])!r}, outside the Likert range [1, 7]"
            )
    vocab = FeatureVocab(tuple(features))
    missing = np.flatnonzero(~seen)
    if missing.size:  # not imputed as 0: a zero typicality leaves the speaker's utility undefined
        names, n_features = tuple(categories), len(features)
        shown = ", ".join(f"({names[m // n_features]!r}, {vocab.features[m % n_features]!r})"
                          for m in missing[:5].tolist())
        raise DatasetError(f"typicality.csv: {missing.size} missing cell(s): {shown}")
    grid = np.empty(seen.shape)
    grid[cell] = values
    table = TypicalityTable(tuple(categories), vocab, grid.reshape(len(categories), -1))
    return normalize_ratings(table) if raw_ratings else table


def _read_metaphors(data_dir: Path, table: TypicalityTable) -> tuple[MetaphorItem, ...]:
    rows, where = _read_rows(data_dir, "metaphors.csv")
    items: dict[str, MetaphorItem] = {}
    for k, (item_id, topic, vehicle, klass, familiarity) in enumerate(rows):
        if not item_id:
            raise DatasetError(f"{where(k)}: empty metaphor id")
        if item_id in items:
            raise DatasetError(f"{where(k)}: duplicate metaphor id {item_id!r}")
        if klass not in _CLASSES:
            raise DatasetError(f"{where(k)}: class must be one of {_CLASSES}, got {klass!r}")
        for noun, role in ((topic, "topic"), (vehicle, "vehicle")):
            if noun not in table:
                raise DatasetError(f"{where(k)}: {role} {noun!r} not in typicality.csv")
        if topic == vehicle:
            raise DatasetError(f"{where(k)}: topic and vehicle are both {topic!r}")
        try:
            fam = None if familiarity == "" else float(familiarity)
        except ValueError:
            raise DatasetError(f"{where(k)}: not a number: {familiarity!r}") from None
        items[item_id] = MetaphorItem(item_id, topic, vehicle, klass, fam)
    return tuple(items.values())


def _read_human(data_dir: Path, table: TypicalityTable,
                items: tuple[MetaphorItem, ...]) -> HumanResponseTable:
    """The rows of ``human.csv``, one per metaphor in first-seen order, each normalized."""
    rows, where = _read_rows(data_dir, "human.csv")
    metaphor_col, feature_col, count_col = zip(*rows) if rows else ((), (), ())
    n = len(rows)
    item_index = {item.id: i for i, item in enumerate(items)}
    item_code = _codes(metaphor_col, item_index)
    feature_code = _codes(feature_col, table.vocab._index)
    cell = item_code * table.n + feature_code
    counts, parsed = _floats(count_col)
    _raise_first(where, n, (
        (_first(item_code < 0), lambda k: f"unknown metaphor id {metaphor_col[k]!r}"),
        (_first(feature_code < 0), lambda k: f"unknown feature {feature_col[k]!r}"),
        (_first_repeat(cell), lambda k: f"duplicate ({metaphor_col[k]!r}, {feature_col[k]!r})"),
        (parsed, lambda k: f"not a number: {count_col[k]!r}"),
        (_first(~np.isfinite(counts)), lambda k: f"count {float(counts[k])!r} is not finite"),
        (_first(counts < 0), lambda k: f"negative count {float(counts[k])!r}"),
    ))

    grid = np.zeros((len(items), table.n))
    grid.reshape(-1)[cell] = counts
    ids = tuple(dict.fromkeys(metaphor_col))
    weights, sums = _scaled_rows(grid[[item_index[metaphor_id] for metaphor_id in ids]])
    zero = _first(sums <= 0)
    if zero < len(ids):
        raise DatasetError(f"human.csv: responses for {ids[zero]!r} sum to zero")
    # pre-normalized weights pass through untouched so save/load round-trips exactly
    weights = np.where(np.abs(sums - 1.0)[:, None] <= ROW_SUM_TOL, weights, weights / sums[:, None])
    return HumanResponseTable(table.vocab, dict(zip(ids, weights)))


def read_dataset(
    data_dir, raw_ratings: bool = False
) -> tuple[TypicalityTable, tuple[MetaphorItem, ...], HumanResponseTable]:
    """Parse the three dataset CSVs without semantic validation.

    Structural problems (missing files, malformed rows, duplicate keys,
    unknown references) raise; invariant checks such as typicality row sums
    are left to :func:`validate` so that dirty data can still be reported on.
    """
    data_dir = Path(data_dir)
    table = _read_typicality(data_dir, raw_ratings)
    items = _read_metaphors(data_dir, table)
    return table, items, _read_human(data_dir, table, items)


def validate(
    table: TypicalityTable,
    items: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
) -> ValidationReport:
    """List every dataset invariant violated (report-only); a human row is checked when
    built, so here only missing rows, unknown ids and the human vocabulary are."""
    violations: list[str] = []

    names, negative = table.categories, (table.values < 0).any(axis=1)
    if not np.all(np.isfinite(table.values)):
        violations.append("typicality: non-finite values")
    for c in np.flatnonzero(negative):
        violations.append(f"typicality: negative value(s) in category {names[c]!r}")
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN: the non-finite line names it
        sums = table.values.sum(axis=1)
    for c in np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL):
        violations.append(f"typicality: row for {names[c]!r} sums to {sums[c]:.12g}, not 1")
    # a row the scoring paths refuse that no line above names: a 0, or a 1 beside zeros
    for c in np.flatnonzero(table.degenerate_rows & ~negative & (np.abs(sums - 1) <= ROW_SUM_TOL)):
        violations.append(f"typicality: row for {names[c]!r} holds a value outside (0, 1)")

    for item in items:
        for noun, role in ((item.topic, "topic"), (item.vehicle, "vehicle")):
            if noun not in table:
                violations.append(f"metaphor {item.id!r}: {role} {noun!r} not in typicality table")
        if item.inherence is None:
            violations.append(f"metaphor {item.id!r}: missing class label")
        if item.id not in human:
            violations.append(f"human responses: no distribution for metaphor {item.id!r}")

    if human.vocab != table.vocab:
        violations.append(_VOCAB_DIFFERS)
    known_ids = {item.id for item in items}
    for metaphor_id in human.ids:
        if metaphor_id not in known_ids:
            violations.append(f"human responses: unknown metaphor id {metaphor_id!r}")

    return ValidationReport(tuple(violations))


def load_dataset(
    data_dir, raw_ratings: bool = False
) -> tuple[TypicalityTable, tuple[MetaphorItem, ...], HumanResponseTable]:
    """Read and fully validate a dataset directory; raise on any violation."""
    table, items, human = read_dataset(data_dir, raw_ratings=raw_ratings)
    report = validate(table, items, human)
    if not report.ok:
        raise DatasetError(str(report))
    return table, items, human


def _write_lines(data_dir: Path, name: str, lines) -> None:
    """Write dataset file ``name``: its :data:`DATASET_FILES` header, then ``lines``."""
    with open(data_dir / name, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join((",".join(DATASET_FILES[name]), *lines, "")))


def _quoted(fields) -> list[str]:
    """Each field as ``csv.writer`` writes it within a row: quoted where it must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    out = []
    for field in fields:
        writer.writerow((field, ""))  # not alone: a lone empty field is written as ""
        out.append(buffer.getvalue()[:-2])
        buffer.seek(0)
        buffer.truncate()
    return out


def save_dataset(
    table: TypicalityTable,
    items: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    data_dir,
) -> None:
    """Write the dataset back out in the documented CSV formats."""
    if human.vocab != table.vocab:
        raise DatasetError(_VOCAB_DIFFERS)
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    features = _quoted(table.vocab)
    # tolist gives Python floats, whose repr (unlike numpy's) is the bare decimal
    cells = [f"{category},{feature}," for category in _quoted(table.categories)
             for feature in features]
    _write_lines(data_dir, "typicality.csv",
                 map(operator.add, cells, map(repr, table.values.ravel().tolist())))
    _write_lines(data_dir, "metaphors.csv", (",".join(_quoted((
        item.id, item.topic, item.vehicle, item.inherence,
        "" if item.familiarity is None else repr(float(item.familiarity)),
    ))) for item in items))
    lines: list[str] = []
    for metaphor_id, quoted in zip(human.ids, _quoted(human.ids)):
        row = human.responses[metaphor_id]
        kept = np.flatnonzero(row > 0)
        lines += (f"{quoted},{features[i]},{p!r}"
                  for i, p in zip(kept.tolist(), row[kept].tolist()))
    _write_lines(data_dir, "human.csv", lines)
