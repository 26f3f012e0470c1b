"""Ingestion, normalization, validation, and round-trip tests for the data model."""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_reader
from conftest import make_synthetic_dataset
from rsa_metaphor import (
    FeatureVocab,
    HumanResponseTable,
    MetaphorItem,
    TypicalityTable,
    load_dataset,
    normalize_ratings,
    read_dataset,
    save_dataset,
    validate,
)
from rsa_metaphor.errors import DatasetError
from rsa_metaphor.lexicon import DATASET_FILES


def ratings(*rows):
    """A table of raw ratings from (category, feature, rating) rows, axes in first-seen order."""
    categories = tuple(dict.fromkeys(c for c, _, _ in rows))
    features = tuple(dict.fromkeys(f for _, f, _ in rows))
    cells = {(c, f): v for c, f, v in rows}
    values = [[cells[(c, f)] for f in features] for c in categories]
    return TypicalityTable(categories, FeatureVocab(features), np.array(values))


class TestNormalizeRatings:
    def test_two_feature_row(self):
        table = normalize_ratings(ratings(("c", "a", 6.0), ("c", "b", 2.0)))
        np.testing.assert_allclose(table.row("c"), [0.75, 0.25])

    def test_uniform_ratings_give_uniform_row(self):
        rows = [("c", f"f{i}", 4.0) for i in range(4)]
        table = normalize_ratings(ratings(*rows))
        np.testing.assert_allclose(table.row("c"), [0.25] * 4)

    def test_dominant_feature(self):
        rows = [("c", "a", 7.0), ("c", "b", 1.0), ("c", "d", 1.0), ("c", "e", 1.0)]
        table = normalize_ratings(ratings(*rows))
        np.testing.assert_allclose(table.row("c"), [0.7, 0.1, 0.1, 0.1])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        rows = [
            (f"c{c}", f"f{i}", float(rng.uniform(1, 7)))
            for c in range(6)
            for i in range(9)
        ]
        table = normalize_ratings(ratings(*rows))
        np.testing.assert_allclose(table.values.sum(axis=1), 1.0, atol=1e-12)

    def test_idempotent_on_normalized_rows(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(1, 7, size=(3, 5))
        first = normalize_ratings(
            ratings(*[(f"c{c}", f"f{i}", raw[c, i]) for c in range(3) for i in range(5)])
        )
        second = normalize_ratings(
            ratings(
                *[
                    (f"c{c}", f"f{i}", float(first.values[c, i]))
                    for c in range(3)
                    for i in range(5)
                ]
            )
        )
        np.testing.assert_allclose(second.values, first.values, atol=1e-12)

    def test_scale_invariant_per_category(self):
        rows = [("c", "a", 2.0), ("c", "b", 3.0), ("d", "a", 1.0), ("d", "b", 6.0)]
        base = normalize_ratings(ratings(*rows))
        scaled_rows = [
            (c, f, v * (13.7 if c == "c" else 1.0)) for c, f, v in rows
        ]
        scaled = normalize_ratings(ratings(*scaled_rows))
        np.testing.assert_allclose(scaled.values, base.values, atol=1e-12)

    def test_nonpositive_rating_is_an_error(self):
        # the message shows a float, not a numpy scalar's repr such as np.float64(0.0)
        for rating, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf")):
            table = ratings(("c", "a", 2.0), ("c", "b", 1.0), ("d", "a", 3.0), ("d", "b", rating))
            message = rf"^rating for \('d', 'b'\) is {shown}, not a positive number$"
            with pytest.raises(DatasetError, match=message):
                normalize_ratings(table)


    def test_row_whose_sum_overflows_is_scaled_first(self):
        # the row sum 2e308 overflows; dividing by it gave [0, 0] and a RuntimeWarning
        table = normalize_ratings(ratings(("c", "a", 1e308), ("c", "b", 1e308),
                                          ("d", "a", 1.0), ("d", "b", 3.0)))
        np.testing.assert_array_equal(table.values, [[0.5, 0.5], [0.25, 0.75]])


class TestTypes:
    def test_vocab_needs_two_features(self):
        with pytest.raises(DatasetError):
            FeatureVocab(("only",))

    def test_vocab_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            FeatureVocab(("a", "a"))

    @pytest.mark.parametrize("build, kind", [
        (lambda: FeatureVocab(("a", "")), "feature"),
        (lambda: TypicalityTable(("c", ""), FeatureVocab(("a", "b")), np.ones((2, 2))),
         "category"),
    ], ids=["feature", "category"])
    def test_empty_identifier_rejected(self, build, kind):
        with pytest.raises(DatasetError, match=f"^empty {kind} identifier$"):
            build()

    def test_vocab_index_of_unknown_feature(self):
        vocab = FeatureVocab(("a", "b"))
        assert vocab.index("b") == 1
        with pytest.raises(DatasetError, match="^unknown feature 'z'$"):
            vocab.index("z")

    def test_table_shape_must_match(self):
        vocab = FeatureVocab(("a", "b"))
        with pytest.raises(DatasetError):
            TypicalityTable(("c",), vocab, np.ones((2, 2)))

    def test_table_values_are_read_only(self):
        vocab = FeatureVocab(("a", "b"))
        table = TypicalityTable(("c",), vocab, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            table.values[0, 0] = 0.9

    def test_cached_log_values_are_computed_once_and_read_only(self):
        vocab = FeatureVocab(("a", "b", "c"))
        values = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
        table = TypicalityTable(("x", "y", "z"), vocab, values)
        with np.errstate(divide="ignore"):
            np.testing.assert_array_equal(table.log_values, np.log(values))
            np.testing.assert_array_equal(table.log1m_values, np.log1p(-values))
        np.testing.assert_array_equal(table.degenerate_rows, [False, True, False])
        for name in ("log_values", "log1m_values", "degenerate_rows"):
            cached = getattr(table, name)
            assert getattr(table, name) is cached
            with pytest.raises(ValueError):
                cached[0] = 0.0

    @pytest.mark.parametrize("n, row", [
        (3, [0.5, np.nan, 0.1]),
        (3, [0.5, np.inf, 0.1]),
        (3, [0.5, -np.inf, 0.1]),
        (3, [0.6, -0.1, 0.5]),
        (3, [0.5, 0.4, 0.2]),
        (3, [0.5, 0.5]),
        (3, [0.25, 0.25, 0.25, 0.25]),
        (6, [0.5, 0.3, 0.3, 0.1, 0.0, 0.0]),
        (6, [0.6, 0.5, -0.2, 0.1, 0.0, 0.0]),
        (6, [0.5, np.nan, 0.3, 0.2, 0.0, 0.0]),
        (12, np.eye(12)[0] * 5e-324),  # its centred squares underflow, and it sums to 5e-324
        (12, np.full(12, 1 / 12) * 1e-170),
        (3, [1e308, 1e308, 0.0]),  # its sum overflows to inf, with no RuntimeWarning
    ], ids=["nan", "inf", "-inf", "negative", "sum-1.1", "short", "long", "sum-1.2",
            "negative-summing-to-1", "nan-among-6", "spread-underflows", "scaled-1e-170",
            "sum-overflows"])
    def test_human_row_that_is_not_a_distribution_is_rejected(self, n, row):
        vocab = FeatureVocab(tuple(f"f{i}" for i in range(n)))
        responses = {"m0": np.full(n, 1 / n), "m1": np.array(row)}
        with pytest.raises(DatasetError, match="^human responses for 'm1': "
                                               f"not a distribution over {n} features$"):
            HumanResponseTable(vocab, responses)

    def test_human_rows_are_read_only_copies(self):
        vocab = FeatureVocab(("a", "b", "c"))
        row = np.array([0.2, 0.3, 0.5])
        human = HumanResponseTable(vocab, {"m": row, "l": [0.5, 0.5, 0.0]})
        row[0] = -1.0  # a later write to the caller's array
        np.testing.assert_array_equal(human.distribution("m"), [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(human.distribution("l"), [0.5, 0.5, 0.0])
        with pytest.raises(ValueError):
            human.distribution("m")[0] = 0.9

    def test_human_rows_are_read_over_their_own_vocabulary(self):
        vocab = FeatureVocab(("a", "b", "c"))
        human = HumanResponseTable(vocab, {"m": [0.2, 0.3, 0.5], "l": [0.5, 0.5, 0.0]})
        np.testing.assert_array_equal(human.rows(["l", "m"], FeatureVocab(("a", "b", "c"))),
                                      [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        with pytest.raises(DatasetError, match="^human responses: feature vocabulary differs "
                                               "from the typicality table's$"):
            human.rows(["m"], FeatureVocab(("c", "b", "a")))

    def test_metaphor_topic_vehicle_must_differ(self):
        with pytest.raises(DatasetError):
            MetaphorItem("m", "ants", "ants", "inherent")

    def test_metaphor_class_is_checked(self):
        with pytest.raises(DatasetError):
            MetaphorItem("m", "workers", "ants", "sideways")


class TestValidate:
    def test_clean_dataset_has_empty_report(self, dataset_dir):
        table, items, human = read_dataset(dataset_dir)
        report = validate(table, items, human)
        assert report.ok
        assert str(report) == "ok"

    def test_bad_row_sum_is_reported(self, dataset_dir):
        table, items, human = read_dataset(dataset_dir)
        values = table.values.copy()
        values[0, 0] -= 0.02  # row now sums to 0.98
        dirty = TypicalityTable(table.categories, table.vocab, values)
        report = validate(dirty, items, human)
        assert not report.ok
        assert any("sums to 0.98" in v for v in report.violations)

    def test_missing_human_coverage_is_reported(self, dataset_dir):
        table, items, human = read_dataset(dataset_dir)
        partial = HumanResponseTable(
            table.vocab, {k: v for k, v in human.responses.items() if k != "m2"}
        )
        report = validate(table, items, partial)
        assert any("m2" in v and "no distribution" in v for v in report.violations)

    def test_load_dataset_raises_on_violations(self, dataset_dir):
        (dataset_dir / "typicality.csv").write_text(
            "category,feature,value\n"
            "workers,diligence,0.5\nworkers,numerosity,0.4\nworkers,wisdom,0.05\n"
            "ants,diligence,0.2\nants,numerosity,0.5\nants,wisdom,0.3\n"
            "owls,diligence,0.25\nowls,numerosity,0.25\nowls,wisdom,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="sums to"):
            load_dataset(dataset_dir)


class TestValidateViolations:
    """Each invariant ``validate`` checks, broken on a dataset built in code."""

    @pytest.fixture
    def clean(self, dataset_dir):
        return read_dataset(dataset_dir)

    @pytest.mark.parametrize("bad, violation", [
        (np.nan, "typicality: non-finite values"),
        (-0.1, "typicality: negative value(s) in category 'workers'"),
        # a 0 in a row that still sums to 1: the scoring paths refuse it, so validate names it
        ((0.9, 0.0), "typicality: row for 'workers' holds a value outside (0, 1)"),
        ((np.inf, -np.inf), "typicality: non-finite values"),
    ])
    def test_typicality_value(self, clean, bad, violation):
        table, items, human = clean
        values = table.values.copy()
        values[0, :len(np.atleast_1d(bad))] = bad
        report = validate(TypicalityTable(table.categories, table.vocab, values), items, human)
        assert violation in report.violations

    def test_missing_class_label(self, clean):
        table, items, human = clean
        unlabelled = (MetaphorItem("m1", "workers", "ants"), items[1])
        report = validate(table, unlabelled, human)
        assert report.violations == ("metaphor 'm1': missing class label",)

    @pytest.mark.parametrize("topic, vehicle, violation", [
        ("sharks", "ants", "metaphor 'm1': topic 'sharks' not in typicality table"),
        ("workers", "sharks", "metaphor 'm1': vehicle 'sharks' not in typicality table"),
    ])
    def test_noun_not_in_table(self, clean, topic, vehicle, violation):
        table, items, human = clean
        stray = (MetaphorItem("m1", topic, vehicle, "non_inherent"), items[1])
        assert validate(table, stray, human).violations == (violation,)

    def test_unknown_human_id(self, clean):
        table, items, human = clean
        extra = HumanResponseTable(table.vocab, dict(human.responses, m9=human.responses["m1"]))
        report = validate(table, items, extra)
        assert report.violations == ("human responses: unknown metaphor id 'm9'",)

    def test_human_vocabulary_differs(self, clean):
        table, items, human = clean
        reordered = FeatureVocab(tuple(reversed(table.vocab.features)))
        report = validate(table, items, HumanResponseTable(reordered, human.responses))
        assert report.violations == (
            "human responses: feature vocabulary differs from the typicality table's",
        )


def raw_dir(tmp_path, typicality):
    """A dataset directory whose typicality.csv body is ``typicality`` (Likert ratings)."""
    data = tmp_path / "raw"
    data.mkdir()
    (data / "typicality.csv").write_text("category,feature,value\n" + typicality,
                                         encoding="utf-8")
    (data / "metaphors.csv").write_text(
        "id,topic,vehicle,class,familiarity\nm1,workers,ants,non_inherent,\n", encoding="utf-8"
    )
    (data / "human.csv").write_text(
        "metaphor_id,feature,count\nm1,diligence,7\nm1,numerosity,1\n", encoding="utf-8"
    )
    return data


class TestReadDataset:
    @pytest.mark.parametrize("name", ["typicality.csv", "metaphors.csv", "human.csv"])
    def test_empty_file(self, dataset_dir, name):
        (dataset_dir / name).write_text("", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{name}: empty file$"):
            read_dataset(dataset_dir)

    @pytest.mark.parametrize("name, row, message", [
        ("typicality.csv", ",diligence,0.5", "empty category or feature identifier"),
        ("metaphors.csv", ",workers,ants,inherent,", "empty metaphor id"),
        ("metaphors.csv", "m1,workers,owls,inherent,", "duplicate metaphor id 'm1'"),
        ("metaphors.csv", "m3,owls,owls,inherent,", "topic and vehicle are both 'owls'"),
        ("human.csv", "m1,diligence,0.1", "duplicate \\('m1', 'diligence'\\)"),
        ("human.csv", "m1,courage,0.1", "unknown feature 'courage'"),
    ])
    def test_bad_row_names_file_and_line(self, dataset_dir, name, row, message):
        path = dataset_dir / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text + row + "\n", encoding="utf-8")
        line = len(text.splitlines()) + 1
        with pytest.raises(DatasetError, match=f"^{name} line {line}: {message}$"):
            read_dataset(dataset_dir)

    def test_counts_summing_to_zero(self, dataset_dir):
        (dataset_dir / "human.csv").write_text(
            "metaphor_id,feature,count\nm1,diligence,0\nm1,wisdom,0\nm2,wisdom,5\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="^human.csv: responses for 'm1' sum to zero$"):
            read_dataset(dataset_dir)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path)

    def test_malformed_value_reports_row_number(self, dataset_dir):
        path = dataset_dir / "typicality.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = "workers,wisdom,not-a-number"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="line 4"):
            read_dataset(dataset_dir)

    def test_line_numbers_count_newlines_inside_quoted_fields(self, dataset_dir):
        path = dataset_dir / "metaphors.csv"
        path.write_text(
            'id,topic,vehicle,class,familiarity\n"m\n1",workers,ants,inherent,\n'
            "m2,workers,owls,inherent,\n\nm3,workers,owls,bogus,\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="^metaphors.csv line 6: class must be"):
            read_dataset(dataset_dir)

    @pytest.mark.parametrize("name, body, message", [
        ("typicality.csv", '"wor\nkers",diligence,0.6\n\nworkers,numerosity,x\n',
         "not a number: 'x'"),
        ("human.csv", '"m\n1",diligence,1\n\nm2,wisdom,-1\n', "negative count -1.0"),
    ])
    def test_line_numbers_count_newlines_inside_quoted_identifiers(self, dataset_dir, name,
                                                                   body, message):
        (dataset_dir / "metaphors.csv").write_text(
            'id,topic,vehicle,class,familiarity\n"m\n1",workers,ants,inherent,\n'
            "m2,workers,owls,inherent,\n",
            encoding="utf-8",
        )
        header = ",".join(DATASET_FILES[name])
        (dataset_dir / name).write_text(f"{header}\n{body}", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{name} line 5: {message}$"):
            read_dataset(dataset_dir)

    @pytest.mark.parametrize("name, edits, message", [
        ("typicality.csv", {3: "workers,numerosity,x", 5: "workers,diligence,0.2"},
         "not a number: 'x'"),
        ("typicality.csv", {3: "workers,diligence,0.3", 5: "ants,diligence,x"},
         r"duplicate cell \('workers', 'diligence'\)"),
        ("typicality.csv", {3: ",numerosity,x"}, "empty category or feature identifier"),
        ("typicality.csv", {3: "workers,numerosity", 5: "ants,diligence," + "x" * 200_000},
         "expected 3 fields, got 2"),
        ("human.csv", {3: "m9,numerosity,0.4", 5: "m2,diligence,-1"},
         "unknown metaphor id 'm9'"),
        ("human.csv", {3: "m1,numerosity,-1", 5: "m9,diligence,0.2"}, "negative count -1.0"),
    ], ids=["number-before-duplicate", "duplicate-before-number", "empty-and-number",
            "fields-before-csv-limit", "unknown-id-before-negative", "negative-before-unknown-id"])
    def test_first_failing_row_in_file_order_is_named(self, dataset_dir, name, edits, message):
        path = dataset_dir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        for line, text in edits.items():
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{name} line 3: {message}$"):
            read_dataset(dataset_dir)

    def test_unknown_reference_in_metaphors(self, dataset_dir):
        path = dataset_dir / "metaphors.csv"
        path.write_text(
            "id,topic,vehicle,class,familiarity\nm1,workers,sharks,inherent,\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="sharks"):
            read_dataset(dataset_dir)

    def test_duplicate_cell_reports_row(self, dataset_dir):
        path = dataset_dir / "typicality.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "workers,diligence,0.5\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate"):
            read_dataset(dataset_dir)

    def test_wrong_header_is_rejected(self, dataset_dir):
        path = dataset_dir / "human.csv"
        text = path.read_text(encoding="utf-8").splitlines()
        text[0] = "metaphor,feature,count"
        path.write_text("\n".join(text) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="header"):
            read_dataset(dataset_dir)

    def test_human_counts_are_normalized(self, dataset_dir):
        path = dataset_dir / "human.csv"
        path.write_text(
            "metaphor_id,feature,count\n"
            "m1,diligence,30\nm1,numerosity,10\n"
            "m2,wisdom,5\n",
            encoding="utf-8",
        )
        _, _, human = read_dataset(dataset_dir)
        np.testing.assert_allclose(human.distribution("m1"), [0.75, 0.25, 0.0])
        np.testing.assert_allclose(human.distribution("m2"), [0.0, 0.0, 1.0])

    def test_counts_whose_sum_overflows_are_scaled_first(self, dataset_dir):
        # the total 2e308 overflows; dividing by it gave an all-zero row and a RuntimeWarning
        (dataset_dir / "human.csv").write_text(
            "metaphor_id,feature,count\nm1,diligence,1e308\nm1,numerosity,1e308\n"
            "m2,wisdom,5\n",
            encoding="utf-8",
        )
        _, _, human = read_dataset(dataset_dir)
        np.testing.assert_array_equal(human.distribution("m1"), [0.5, 0.5, 0.0])

    def test_negative_count_is_an_error(self, dataset_dir):
        path = dataset_dir / "human.csv"
        path.write_text(
            "metaphor_id,feature,count\nm1,diligence,-1\nm2,wisdom,5\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="negative"):
            read_dataset(dataset_dir)

    @pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_count_names_the_line(self, dataset_dir, spelling):
        path = dataset_dir / "human.csv"
        path.write_text(
            f"metaphor_id,feature,count\nm1,diligence,3\nm1,wisdom,{spelling}\nm2,wisdom,5\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match="human.csv line 3: count .* is not finite"):
            read_dataset(dataset_dir)

    def test_raw_ratings_path_normalizes(self, tmp_path):
        data = raw_dir(tmp_path, "workers,diligence,6\nworkers,numerosity,2\n"
                                 "ants,diligence,4\nants,numerosity,4\n")
        table, items, human = load_dataset(data, raw_ratings=True)
        np.testing.assert_allclose(table.row("workers"), [0.75, 0.25])
        np.testing.assert_allclose(table.row("ants"), [0.5, 0.5])

    def test_raw_ratings_out_of_likert_range(self, tmp_path):
        data = raw_dir(tmp_path, "workers,diligence,9\nworkers,numerosity,2\n")
        with pytest.raises(DatasetError, match=r"\[1, 7\]"):
            read_dataset(data, raw_ratings=True)

    @pytest.mark.parametrize("raw_ratings", [False, True])
    def test_missing_typicality_cell_is_an_error(self, tmp_path, raw_ratings):
        # the values are typicalities and Likert ratings alike; ants lacks numerosity
        data = raw_dir(tmp_path, "workers,diligence,1\nworkers,numerosity,1\nants,diligence,1\n")
        message = r"^typicality.csv: 1 missing cell\(s\): \('ants', 'numerosity'\)$"
        with pytest.raises(DatasetError, match=message):
            read_dataset(data, raw_ratings=raw_ratings)

    def test_duplicate_rating_reports_row(self, tmp_path):
        data = raw_dir(tmp_path, "workers,diligence,3\nworkers,diligence,4\nworkers,numerosity,1\n")
        message = r"^typicality.csv line 3: duplicate cell \('workers', 'diligence'\)$"
        with pytest.raises(DatasetError, match=message):
            read_dataset(data, raw_ratings=True)

    def test_full_scale_shape(self, tmp_path):
        table, items, human = make_synthetic_dataset(seed=42)
        save_dataset(table, items, human, tmp_path / "big")
        loaded_table, loaded_items, _ = load_dataset(tmp_path / "big")
        assert len(loaded_table.categories) == 48
        assert loaded_table.n == 59
        assert len(loaded_items) == 24


# byte edits: short random bytes, plus CSV syntax, non-numbers, bytes that are
# not UTF-8 and a field over the CSV reader's 131072-character limit
_PAYLOADS = st.binary(min_size=1, max_size=8) | st.sampled_from(
    [b",", b"\n", b"\r", b'"', b"\x00", b"nan", b"-1", b"1e309", b"\xff\xfe", b"x" * 131073]
)
_EDITS = st.tuples(st.sampled_from(("insert", "replace", "delete")), _PAYLOADS,
                   st.integers(1, 40))


class TestLoaderFuzz:
    @pytest.fixture(scope="class")
    def clean_files(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("clean")
        table, items, human = make_synthetic_dataset(seed=5, n_categories=6, n_features=5, n_metaphors=3)
        save_dataset(table, items, human, data)
        return {name: (data / name).read_bytes() for name in DATASET_FILES}

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(tuple(DATASET_FILES)), where=st.floats(0.0, 1.0), edit=_EDITS)
    def test_any_edit_loads_or_raises_dataset_error(self, clean_files, name, where, edit):
        kind, payload, span = edit
        original = clean_files[name]
        at = int(where * len(original))
        cut = {"insert": 0, "replace": len(payload), "delete": span}[kind]
        mutated = original[:at] + (b"" if kind == "delete" else payload) + original[at + cut:]
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp)
            for file, content in clean_files.items():
                (data / file).write_bytes(mutated if file == name else content)
            try:
                table, items, human = load_dataset(data)
            except DatasetError:
                return
            assert validate(table, items, human).ok

    @pytest.mark.parametrize("name", tuple(DATASET_FILES))
    def test_bytes_that_are_not_utf8_name_file_and_line(self, dataset_dir, name):
        path = dataset_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:3] + b"\xff\xfe" + lines[1][3:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetError, match=f"^{name} line 2: not UTF-8 text$"):
            read_dataset(dataset_dir)

    def test_field_over_the_csv_limit_names_file_and_line(self, dataset_dir):
        path = dataset_dir / "metaphors.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[2] += "x" * 200_000
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match="^metaphors.csv line 3: field larger than"):
            read_dataset(dataset_dir)


# fields an edit writes: the small dataset's names and unknown ones, and for a row's last
# field a number, a text that fails one check, or -inf, which fails two; so one row can
# fail several checks at once
_NAMES = st.sampled_from(("", "workers", "ants", "owls", "bats", "diligence", "numerosity",
                          "wisdom", "speed", "m1", "m2", "m9", "inherent", '"'))
_NUMBERS = st.one_of(
    st.sampled_from(("0", "0.0", "0.5", "3", "7", "8", "1e308", "1.7e308", " 2")),
    st.sampled_from(("", "x", "-", "-1", "1e400", "nan")), st.just("-inf"))
_ROW = st.integers(0, 12)  # taken modulo the file's data line count
_FIELD_EDITS = st.tuples(st.just("field"), _ROW, st.integers(0, 5), _NAMES, _NUMBERS)
_COPY_EDITS = st.tuples(st.just("copy"), _ROW, _ROW,
                        st.lists(st.one_of(st.none(), st.none(), _NAMES), min_size=4, max_size=4),
                        _NUMBERS)
_ROW_EDITS = st.one_of(  # field and copy edits twice as often as the others
    _FIELD_EDITS, _FIELD_EDITS, _COPY_EDITS, _COPY_EDITS, st.tuples(st.just("delete"), _ROW),
    st.tuples(st.just("char"), st.integers(0, 300), st.integers(0, 1),
              st.sampled_from((b"", b",", b'"', b"\n", b"\r", b"\xff", b"x", b"1", b"-"))),
)


def _edited(data: bytes, edit) -> bytes:
    """``data`` with one character edit anywhere, or one row edit below the header: a field
    replaced, a row deleted, or a copy of a row inserted below it, with another last field
    and some of its other fields replaced."""
    kind, *args = edit
    if kind == "char":
        at, cut, char = args
        at %= len(data) + 1
        return data[:at] + char + data[at + cut:]
    lines = data.split(b"\n")
    k = 1 + args[0] % max(1, len(lines) - 1)
    fields = lines[k].split(b",") if k < len(lines) else [b""]
    if kind == "field":
        at = args[1] % len(fields)
        fields[at] = args[3 if at == len(fields) - 1 else 2].encode()
    elif kind == "copy":
        for at, token in enumerate(args[2][:len(fields) - 1]):
            fields[at] = fields[at] if token is None else token.encode()
        fields[-1] = args[3].encode()
        lines.insert(k + 1 + args[1] % max(1, len(lines) - k), b",".join(fields))
        return b"\n".join(lines)
    lines[k:k + 1] = [] if kind == "delete" else [b",".join(fields)]
    return b"\n".join(lines)


class TestReferenceReader:
    """``read_dataset`` against the per-row reader in ``tests/reference_reader.py``."""

    @staticmethod
    def small_dataset(raw: bool):
        rows = [[6.0, 3.0, 1.0], [2.0, 5.0, 3.0], [2.5, 2.5, 5.0]]
        table = TypicalityTable(("workers", "ants", "owls"),
                                FeatureVocab(("diligence", "numerosity", "wisdom")),
                                np.array(rows) if raw else np.array(rows) / 10.0)
        items = (MetaphorItem("m1", "workers", "ants", "non_inherent", 4.5),
                 MetaphorItem("m2", "workers", "owls", "inherent", None))
        human = HumanResponseTable(table.vocab, {"m1": [0.5, 0.4, 0.1], "m2": [0.0, 0.25, 0.75]})
        return table, items, human

    @settings(max_examples=600, deadline=None)
    @given(raw=st.booleans(), name=st.sampled_from(("typicality.csv", "metaphors.csv",
                                                    "human.csv", "human.csv")),
           edits=st.lists(_ROW_EDITS, min_size=1, max_size=3))
    # rows that fail two adjacent checks: a copy that is not a number, an empty name that
    # is not a number, an unknown id with an unknown feature, and a count of -inf
    @example(raw=False, name="typicality.csv", edits=[("copy", 0, 0, [None] * 4, "x")])
    @example(raw=False, name="typicality.csv",
             edits=[("field", 0, 0, "", "0"), ("field", 0, 2, "", "x")])
    @example(raw=False, name="human.csv", edits=[("copy", 0, 0, [None] * 4, "x")])
    @example(raw=False, name="human.csv",
             edits=[("field", 0, 0, "m9", "0"), ("field", 0, 1, "speed", "0")])
    @example(raw=False, name="human.csv", edits=[("field", 0, 2, "", "-inf")])
    def test_damaged_dataset_reads_as_the_reference_reads_it(self, raw, name, edits):
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = Path(tmp)
            save_dataset(*self.small_dataset(raw), data_dir)
            path = data_dir / name
            for edit in edits:
                path.write_bytes(_edited(path.read_bytes(), edit))
            try:
                categories, features, values, items, human = reference_reader.read(data_dir, raw)
            except reference_reader.Fault as fault:
                with pytest.raises(DatasetError) as info:
                    read_dataset(data_dir, raw_ratings=raw)
                assert str(info.value) == str(fault)
                return
            table, got_items, got_human = read_dataset(data_dir, raw_ratings=raw)
        assert (table.categories, table.vocab.features) == (tuple(categories), tuple(features))
        assert table.values.tobytes() == values.tobytes()
        assert repr([(i.id, i.topic, i.vehicle, i.inherence, i.familiarity)
                     for i in got_items]) == repr(items)
        assert got_human.ids == tuple(human)
        assert [row.tobytes() for row in got_human.responses.values()] == [
            row.tobytes() for row in human.values()]


class TestRoundTrip:
    def test_saved_dataset_loads_back_bit_for_bit(self, tmp_path):
        table, items, human = make_synthetic_dataset(seed=12)
        save_dataset(table, items, human, tmp_path)
        loaded_table, loaded_items, loaded_human = load_dataset(tmp_path)
        assert np.array_equal(loaded_table.values, table.values)
        assert loaded_items == items
        assert loaded_human.ids == human.ids
        for key in human.ids:
            assert np.array_equal(loaded_human.responses[key], human.responses[key])

    def test_save_load_save_is_bit_exact(self, tmp_path):
        table, items, human = make_synthetic_dataset(seed=3)
        first = tmp_path / "first"
        save_dataset(table, items, human, first)
        table2, items2, human2 = load_dataset(first)
        second = tmp_path / "second"
        save_dataset(table2, items2, human2, second)
        for name in ("typicality.csv", "metaphors.csv", "human.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_reload_preserves_values_exactly(self, tmp_path):
        table, items, human = make_synthetic_dataset(seed=4)
        save_dataset(table, items, human, tmp_path / "d")
        t1, _, h1 = load_dataset(tmp_path / "d")
        save_dataset(t1, items, h1, tmp_path / "d2")
        t2, _, h2 = load_dataset(tmp_path / "d2")
        assert np.array_equal(t1.values, t2.values)
        for key in h1.ids:
            assert np.array_equal(h1.responses[key], h2.responses[key])

    def test_human_rows_over_another_vocabulary_are_refused_before_writing(self, tmp_path):
        # m2's only weight is on z, which the table has no feature for
        table = TypicalityTable(("a", "b"), FeatureVocab(("x", "y")), [[0.5, 0.5], [0.25, 0.75]])
        items = (MetaphorItem("m1", "a", "b", "inherent"), MetaphorItem("m2", "b", "a", "inherent"))
        human = HumanResponseTable(FeatureVocab(("x", "y", "z")),
                                   {"m1": [0.5, 0.5, 0.0], "m2": [0.0, 0.0, 1.0]})
        with pytest.raises(DatasetError, match="^human responses: feature vocabulary differs "
                                               "from the typicality table's$"):
            save_dataset(table, items, human, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_feature_order_follows_file_order(self, tmp_path):
        data = tmp_path / "ordered"
        data.mkdir()
        (data / "typicality.csv").write_text(
            "category,feature,value\n"
            "c1,zeta,0.5\nc1,alpha,0.5\n"
            "c2,zeta,0.25\nc2,alpha,0.75\n",
            encoding="utf-8",
        )
        (data / "metaphors.csv").write_text(
            "id,topic,vehicle,class,familiarity\nm1,c1,c2,inherent,\n",
            encoding="utf-8",
        )
        (data / "human.csv").write_text(
            "metaphor_id,feature,count\nm1,zeta,1\n", encoding="utf-8"
        )
        table, _, _ = load_dataset(data)
        assert table.vocab.features == ("zeta", "alpha")

    def test_names_that_need_quoting_round_trip(self, tmp_path):
        categories = ("a,b", 'say "hi"', "two\nlines", " padded ", "caf\u00e9")
        features = ("x,y", 'q"', "new\nline", " lead", "trail ", "na\u00efve")
        rng = np.random.default_rng(8)
        values = rng.dirichlet(np.ones(len(features)), size=len(categories)) * 0.9 + 0.1 / 6
        table = TypicalityTable(categories, FeatureVocab(features), values)
        items = (MetaphorItem("m,1", categories[0], categories[1], "inherent", 2.5),
                 MetaphorItem('m"2', categories[2], categories[3], "non_inherent", None),
                 MetaphorItem("m\n3 ", categories[4], categories[0], "inherent", 1 / 3))
        human = HumanResponseTable(table.vocab, {
            "m,1": [0.5, 0.0, 0.25, 0.0, 0.0, 0.25],
            'm"2': [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            "m\n3 ": [0.1, 0.2, 0.3, 0.0, 0.15, 0.25],
        })
        save_dataset(table, items, human, tmp_path)

        # the reference: every row through csv.writer
        rows = {
            "typicality.csv": [[c, f, repr(v)] for c, row in zip(categories, values.tolist())
                               for f, v in zip(features, row)],
            "metaphors.csv": [[m.id, m.topic, m.vehicle, m.inherence,
                               "" if m.familiarity is None else repr(m.familiarity)]
                              for m in items],
            "human.csv": [[m, f, repr(p)] for m in human.ids
                          for f, p in zip(features, human.responses[m].tolist()) if p > 0],
        }
        for name, body in rows.items():
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(DATASET_FILES[name])
            writer.writerows(body)
            assert (tmp_path / name).read_bytes() == buffer.getvalue().encode("utf-8")

        loaded_table, loaded_items, loaded_human = load_dataset(tmp_path)
        assert loaded_table.categories == categories
        assert loaded_table.vocab.features == features
        assert np.array_equal(loaded_table.values, table.values)
        assert loaded_items == items
        assert loaded_human.ids == human.ids
        for key in human.ids:
            assert np.array_equal(loaded_human.responses[key], human.responses[key])
