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

All loaded types are frozen and their arrays read-only, so a dataset can be
shared freely across parallel workers; loading itself is single-threaded.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

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

    def __contains__(self, feature: str) -> bool:
        return feature in self._index


@dataclass(frozen=True)
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
    def _log_extent(self) -> float:
        """The largest ``|log T|`` or ``|log(1 - T)|``: inf with a 0 or a 1, NaN outside [0, 1]."""
        return float(np.maximum(-self.log_values.min(), -self.log1m_values.min()))

    @cached_property
    def degenerate_rows(self) -> np.ndarray:
        """Per category: does its row break the rule every scoring path reads rows by, that
        every value lies strictly inside (0, 1) and the row sums to 1 within :data:`ROW_SUM_TOL`?"""
        inside = (self.values > 0.0) & (self.values < 1.0)  # False for NaN
        sums = np.where(inside, self.values, 0.0).sum(axis=1)  # cells outside left out: no overflow
        return _read_only(~(inside.all(axis=1) & (np.abs(sums - 1.0) <= ROW_SUM_TOL)))

    @property
    def n(self) -> int:
        """Feature count."""
        return len(self.vocab)

    def category_index(self, category: str) -> int:
        try:
            return self._index[category]
        except KeyError:
            raise UnknownCategoryError(category) from None

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


@dataclass(frozen=True)
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
    with np.errstate(over="ignore"):  # a row whose sum overflows is scaled by its max first
        overflows = np.isinf(values.sum(axis=1, keepdims=True))
    values = np.where(overflows, values / values.max(axis=1, keepdims=True), values)
    return TypicalityTable(ratings.categories, ratings.vocab, values / values.sum(axis=1)[:, None])


def _dense_table(cells: dict[tuple[str, str], float]) -> TypicalityTable:
    """The dense category x feature grid of ``cells``, both axes in first-seen order."""
    categories = tuple(dict.fromkeys(c for c, _ in cells))
    features = tuple(dict.fromkeys(f for _, f in cells))
    vocab = FeatureVocab(features)
    missing = [(c, f) for c in categories for f in features if (c, f) not in cells]
    if missing:  # not imputed as 0: a zero typicality leaves the speaker's utility undefined
        shown = ", ".join(f"({c!r}, {f!r})" for c, f in missing[:5])
        raise DatasetError(f"typicality.csv: {len(missing)} missing cell(s): {shown}")
    matrix = np.array([[cells[(c, f)] for f in features] for c in categories], dtype=float)
    return TypicalityTable(categories, vocab, matrix)


def _read_rows(data_dir: Path, name: str) -> list[tuple[str, list[str]]]:
    """Read the rows of dataset file ``name`` as (``"<name> line <N>"``, fields).

    The header must be exactly the file's :data:`DATASET_FILES` entry.  Bytes
    that are not UTF-8 and rows the CSV reader rejects raise DatasetError.
    """
    expected_header = DATASET_FILES[name]
    data = (data_dir / name).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{name} line {lineno}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{name}: empty file")
        if tuple(header) != expected_header:
            raise DatasetError(
                f"{name} line 1: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        rows, end = [], reader.line_num  # physical lines: a quoted field may hold newlines
        for fields in reader:
            where, end = f"{name} line {end + 1}", reader.line_num
            if not fields:
                continue
            if len(fields) != len(expected_header):
                raise DatasetError(
                    f"{where}: expected {len(expected_header)} fields, got {len(fields)}"
                )
            rows.append((where, fields))
    except csv.Error as exc:
        raise DatasetError(f"{name} line {reader.line_num}: {exc}") from None
    return rows


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DatasetError(f"{where}: not a number: {text!r}") from None


def read_dataset(
    data_dir, raw_ratings: bool = False
) -> tuple[TypicalityTable, tuple[MetaphorItem, ...], HumanResponseTable]:
    """Parse the three dataset CSVs without semantic validation.

    Structural problems (missing files, malformed rows, duplicate keys,
    unknown references) raise; invariant checks such as typicality row sums
    are left to :func:`validate` so that dirty data can still be reported on.
    """
    data_dir = Path(data_dir)
    cells: dict[tuple[str, str], float] = {}
    for where, (category, feature, value) in _read_rows(data_dir, "typicality.csv"):
        if not category or not feature:
            raise DatasetError(f"{where}: empty category or feature identifier")
        key = (category, feature)
        if key in cells:
            raise DatasetError(f"{where}: duplicate cell ({category!r}, {feature!r})")
        cells[key] = _parse_float(value, where)

    if raw_ratings:  # before the grid is built, so a range error is reported first
        for (category, feature), value in cells.items():
            if not 1.0 <= value <= 7.0:
                raise DatasetError(
                    f"typicality.csv: rating for ({category!r}, {feature!r}) is "
                    f"{value!r}, outside the Likert range [1, 7]"
                )
    table = _dense_table(cells)
    if raw_ratings:
        table = normalize_ratings(table)

    met_rows = _read_rows(data_dir, "metaphors.csv")
    items: list[MetaphorItem] = []
    item_ids: set[str] = set()
    for where, (item_id, topic, vehicle, klass, familiarity) in met_rows:
        if not item_id:
            raise DatasetError(f"{where}: empty metaphor id")
        if item_id in item_ids:
            raise DatasetError(f"{where}: duplicate metaphor id {item_id!r}")
        item_ids.add(item_id)
        if klass not in _CLASSES:
            raise DatasetError(f"{where}: class must be one of {_CLASSES}, got {klass!r}")
        for noun, role in ((topic, "topic"), (vehicle, "vehicle")):
            if noun not in table:
                raise DatasetError(f"{where}: {role} {noun!r} not in typicality.csv")
        if topic == vehicle:
            raise DatasetError(f"{where}: topic and vehicle are both {topic!r}")
        fam = None if familiarity == "" else _parse_float(familiarity, where)
        items.append(MetaphorItem(item_id, topic, vehicle, klass, fam))

    counts: dict[str, np.ndarray] = {}
    seen_pairs: set[tuple[str, str]] = set()
    for where, (metaphor_id, feature, count) in _read_rows(data_dir, "human.csv"):
        if metaphor_id not in item_ids:
            raise DatasetError(f"{where}: unknown metaphor id {metaphor_id!r}")
        if feature not in table.vocab:
            raise DatasetError(f"{where}: unknown feature {feature!r}")
        pair = (metaphor_id, feature)
        if pair in seen_pairs:
            raise DatasetError(f"{where}: duplicate ({metaphor_id!r}, {feature!r})")
        seen_pairs.add(pair)
        weight = _parse_float(count, where)
        if not math.isfinite(weight):
            raise DatasetError(f"{where}: count {weight!r} is not finite")
        if weight < 0:
            raise DatasetError(f"{where}: negative count {weight!r}")
        row = counts.get(metaphor_id)
        if row is None:  # a zero row per metaphor, not per human.csv row
            row = counts[metaphor_id] = np.zeros(table.n)
        row[table.vocab.index(feature)] = weight

    responses: dict[str, np.ndarray] = {}
    for metaphor_id, vec in counts.items():
        with np.errstate(over="ignore"):  # a row whose sum overflows is scaled by its max first
            total = vec.sum()
        if math.isinf(total):
            vec = vec / vec.max()
            total = vec.sum()
        if total <= 0:
            raise DatasetError(f"human.csv: responses for {metaphor_id!r} sum to zero")
        # pre-normalized weights pass through untouched so save/load round-trips exactly
        responses[metaphor_id] = vec if abs(total - 1.0) <= ROW_SUM_TOL else vec / total

    return table, tuple(items), HumanResponseTable(table.vocab, responses)


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


def _write_rows(data_dir: Path, name: str, rows) -> None:
    """Write dataset file ``name``: its :data:`DATASET_FILES` header, then ``rows``."""
    with open(data_dir / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DATASET_FILES[name])
        writer.writerows(rows)


def save_dataset(
    table: TypicalityTable,
    items: tuple[MetaphorItem, ...],
    human: HumanResponseTable,
    data_dir,
) -> None:
    """Write the dataset back out in the documented CSV formats."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    # tolist gives Python floats, whose repr (unlike numpy's) is the bare decimal
    _write_rows(data_dir, "typicality.csv", (
        [category, feature, repr(v)]
        for category, row in zip(table.categories, table.values.tolist())
        for feature, v in zip(table.vocab, row)
    ))
    _write_rows(data_dir, "metaphors.csv", (
        [item.id, item.topic, item.vehicle, item.inherence,
         "" if item.familiarity is None else repr(float(item.familiarity))]
        for item in items
    ))
    _write_rows(data_dir, "human.csv", (
        [metaphor_id, feature, repr(p)]
        for metaphor_id in human.ids
        for feature, p in zip(table.vocab, human.responses[metaphor_id].tolist())
        if p > 0
    ))
