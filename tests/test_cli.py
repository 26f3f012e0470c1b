"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_synthetic_dataset
from rsa_metaphor import load_dataset, save_dataset
from rsa_metaphor import cli
from rsa_metaphor.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def full_scale_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("fullscale") / "data"
    table, items, human = make_synthetic_dataset(seed=0)
    save_dataset(table, items, human, data_dir)
    return data_dir


class TestValidate:
    def test_clean_dataset_exits_zero(self, runner, dataset_dir):
        result = runner.invoke(main, ["validate", "--data-dir", str(dataset_dir)])
        assert result.exit_code == 0
        assert "dataset OK" in result.output

    def test_row_sum_violation_exits_one(self, runner, dataset_dir):
        path = dataset_dir / "typicality.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("0.6", "0.58", 1), encoding="utf-8")
        result = runner.invoke(main, ["validate", "--data-dir", str(dataset_dir)])
        assert result.exit_code == 1
        assert "sums to" in result.stderr

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--data-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_malformed_row_exits_one(self, runner, dataset_dir):
        path = dataset_dir / "typicality.csv"
        path.write_text(
            path.read_text(encoding="utf-8") + "workers,diligence\n", encoding="utf-8"
        )
        result = runner.invoke(main, ["validate", "--data-dir", str(dataset_dir)])
        assert result.exit_code == 1


    def test_non_finite_count_exits_one(self, runner, dataset_dir):
        (dataset_dir / "human.csv").write_text(
            "metaphor_id,feature,count\nm1,diligence,3\nm2,wisdom,5\nm2,numerosity,nan\n",
            encoding="utf-8",
        )
        result = runner.invoke(main, ["validate", "--data-dir", str(dataset_dir)])
        assert result.exit_code == 1
        assert "not finite" in result.stderr


class TestInterpret:
    def test_fast_lambda_zero_prints_topic_row(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workers", "--vehicle", "ants",
            "--lambda", "0", "--mode", "fast", "--category-prior", "topic",
        ])
        assert result.exit_code == 0
        table, _, _ = load_dataset(dataset_dir)
        lines = [l.strip() for l in result.output.splitlines() if l.startswith("  ")]
        got = {line.split()[0]: float(line.split()[1]) for line in lines}
        for feature, value in zip(table.vocab.features, table.row("workers")):
            assert got[feature] == pytest.approx(value, abs=1e-12)

    def test_ranked_output_and_topk_line(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workers", "--vehicle", "ants", "--lambda", "5", "--k", "2",
        ])
        assert result.exit_code == 0
        lines = [l.strip() for l in result.output.splitlines() if l.startswith("  ")]
        probs = [float(line.split()[1]) for line in lines]
        assert probs == sorted(probs, reverse=True)
        assert any(line.startswith("top-2:") for line in result.output.splitlines())

    def test_unknown_vehicle_suggests_and_exits_one(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workers", "--vehicle", "anst",
        ])
        assert result.exit_code == 1
        assert "unknown category" in result.stderr
        assert "ants" in result.stderr

    def test_same_topic_and_vehicle_is_domain_error(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workers", "--vehicle", "workers",
        ])
        assert result.exit_code == 1


class TestTrain:
    def test_params_schema_and_determinism(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
                "--seed", "7"]
        assert runner.invoke(main, args).exit_code == 0
        first = (out / "params.json").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        second = (out / "params.json").read_bytes()
        assert first == second

        params = json.loads(first)
        for key in ("lambda", "objective", "iterations", "trace", "split_seed",
                    "config", "dataset_sha256", "converged", "train_ids", "test_ids"):
            assert key in params
        assert params["split_seed"] == 7
        assert len(params["train_ids"]) == 18
        values = [value for _, _, value in params["trace"]]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestEval:
    def test_artifacts_and_embedded_config(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "eval", "--data-dir", str(full_scale_dir),
            "--output-dir", str(out), "--lambda", "12.5", "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["config"]["lambda"] == 12.5
        assert payload["config"]["split_seed"] == 3
        assert len(payload["dataset_sha256"]) == 64
        report = payload["report"]
        assert report["groups"]["all"]["n_items"] == 24
        assert report["groups"]["inherent"]["n_items"] == 12
        assert report["groups"]["train"]["n_items"] == 18
        assert report["groups"]["test"]["n_items"] == 6

        csv_text = (out / "report.csv").read_text(encoding="utf-8")
        lines = csv_text.splitlines()
        assert lines[0].startswith("# {")  # embedded envelope
        assert lines[1].startswith("id,topic,vehicle,class")
        assert len(lines) == 26

    def test_learned_lambda_flows_from_train(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        train_result = runner.invoke(main, [
            "train", "--data-dir", str(full_scale_dir), "--output-dir", str(out), "--seed", "0",
        ])
        assert train_result.exit_code == 0
        params = json.loads((out / "params.json").read_text(encoding="utf-8"))
        eval_result = runner.invoke(main, [
            "eval", "--data-dir", str(full_scale_dir),
            "--output-dir", str(out), "--lambda", "learned",
        ])
        assert eval_result.exit_code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["config"]["lambda"] == params["lambda"]
        assert payload["config"]["lambda_source"] == "learned"

    def test_learned_lambda_without_train_fails(self, runner, full_scale_dir, tmp_path):
        result = runner.invoke(main, [
            "eval", "--data-dir", str(full_scale_dir),
            "--output-dir", str(tmp_path / "nope"), "--lambda", "learned",
        ])
        assert result.exit_code == 1
        assert "params.json" in result.stderr

    @pytest.mark.parametrize("params, lam", [
        ("{not json", "learned"),
        ('{"objective": 0.5}', "learned"),
        ('{"lambda": "fast"}', "learned"),
        ('{"lambda": null}', "learned"),
        ('{"lambda": "7"}', "learned"),
        ('{"lambda": true}', "learned"),
        ('{"lambda": Infinity}', "learned"),
        ("[5.0]", "learned"),
        (None, "nan"),
        (None, "inf"),
        (None, "-inf"),
    ])
    def test_bad_lambda_is_domain_error(self, runner, dataset_dir, tmp_path, params, lam):
        out = tmp_path / "out"
        out.mkdir()
        if params is not None:
            (out / "params.json").write_text(params, encoding="utf-8")
        for command in (["eval"], ["interpret", "--topic", "workers", "--vehicle", "ants"]):
            result = runner.invoke(main, [
                *command, "--data-dir", str(dataset_dir), "--output-dir", str(out),
                "--lambda", lam,
            ])
            assert result.exit_code == 1, result.output
            assert result.stderr.startswith("error: ")
            assert "Traceback" not in result.output
            assert not (out / "report.json").exists()

    def test_partial_outputs_removed_on_failure(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.csv").mkdir()  # write_text on a directory will fail
        result = runner.invoke(main, [
            "eval", "--data-dir", str(full_scale_dir),
            "--output-dir", str(out), "--lambda", "5",
        ])
        assert result.exit_code == 2
        assert not (out / "report.json").exists()  # earlier artifact rolled back

    def test_failed_replace_keeps_the_old_artifacts_whole(
        self, runner, full_scale_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        args = ["eval", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
                "--lambda", "5"]
        assert runner.invoke(main, args).exit_code == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", refuse)
        result = runner.invoke(main, args[:-1] + ["7"])
        assert result.exit_code == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_failed_write_leaves_no_temporary_file(
        self, runner, full_scale_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        write_text = Path.write_text

        def write_half(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half)
        result = runner.invoke(main, [
            "eval", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--lambda", "5",
        ])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")
        assert list(out.iterdir()) == []

    def test_jsd_base_e(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        args = ["eval", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
                "--lambda", "5"]
        assert runner.invoke(main, args).exit_code == 0
        base2 = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert runner.invoke(main, args + ["--jsd-base", "e"]).exit_code == 0
        base_e = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ratio = (base_e["report"]["groups"]["all"]["mean_jsd"]
                 / base2["report"]["groups"]["all"]["mean_jsd"])
        assert ratio == pytest.approx(np.log(2.0), abs=1e-9)

    def test_subnormal_model_probability_writes_standard_json(self, runner, tmp_path):
        # at lambda 500 the fast pipeline gives one of m13's features a subnormal
        # probability where the human row is 0; its JSD used to come out inf
        data_dir = tmp_path / "data"
        save_dataset(*make_synthetic_dataset(seed=13), data_dir)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "eval", "--data-dir", str(data_dir), "--output-dir", str(out),
            "--lambda", "500", "--mode", "fast",
        ])
        assert result.exit_code == 0, result.output

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (out / "report.json").read_text(encoding="utf-8")
        report = json.loads(text, parse_constant=reject)["report"]
        m13 = next(entry for entry in report["items"] if entry["id"] == "m13")
        assert min(m13["model"]) < 2.3e-308  # the subnormal entry is still there
        assert 0.0 < m13["jsd"] <= 1.0
        for group in report["groups"].values():
            assert 0.0 < group["mean_jsd"] <= 1.0
            assert group["sd_jsd"] is not None

    def test_rerun_is_byte_identical(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "run"
        args = ["eval", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
                "--lambda", "9.75", "--seed", "1"]
        assert runner.invoke(main, args).exit_code == 0
        snapshot = {
            name: (out / name).read_bytes() for name in ("report.json", "report.csv")
        }
        assert runner.invoke(main, args).exit_code == 0
        for name, data in snapshot.items():
            assert (out / name).read_bytes() == data


class TestAblate:
    def test_no_relevance(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--kind", "no-relevance", "--lambda", "10",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "ablation_no_relevance.json").read_text(encoding="utf-8"))
        assert payload["report"]["tag"] == "ablation: no-relevance"
        assert payload["config"]["goal_prior"] == "relevance"  # ablation is applied on top

    def test_grid_lambda(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--kind", "grid-lambda", "--grid", "1:50:8", "--seed", "2",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "ablation_grid_lambda.json").read_text(encoding="utf-8"))
        assert payload["report"]["tag"] == "ablation: grid-lambda"
        assert 1.0 <= payload["best_lambda"] <= 50.0

    def test_bad_grid_spec_is_domain_error(self, runner, full_scale_dir, tmp_path):
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(tmp_path / "x"),
            "--kind", "grid-lambda", "--grid", "10:1:5",
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("grid", ["1:inf:5", "nan:5:5", "0.5:nan:3", "inf:inf:2"])
    def test_non_finite_grid_bound_is_domain_error(self, runner, full_scale_dir, tmp_path, grid):
        out = tmp_path / "x"
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--kind", "grid-lambda", "--grid", grid,
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ") and "finite" in result.stderr
        assert "Traceback" not in result.output
        assert not out.exists()


class TestCorr:
    def test_matrices_written(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "corr", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--lambda", "10",
        ])
        assert result.exit_code == 0, result.output
        for name in ("corr_model.csv", "corr_human.csv"):
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            assert lines[0].startswith("# {")
            header = lines[1].split(",")
            assert header[0] == "feature"
            assert len(header) == 60
            assert len(lines) == 61


ENGINE_OPTIONS = ["--data-dir", "--raw-ratings", "--goal-prior", "--category-prior",
                  "--utterances", "--lambda", "--mode"]
ARTIFACT_OPTIONS = [*ENGINE_OPTIONS, "--grid", "--k", "--jsd-base", "--objective", "--seed"]


@pytest.mark.parametrize("command, options", [
    ("validate", ["--data-dir", "--raw-ratings"]),
    ("interpret", [*ENGINE_OPTIONS, "--topic", "--vehicle", "--k", "--output-dir"]),
    ("train", [*ARTIFACT_OPTIONS, "--output-dir"]),
    ("eval", [*ARTIFACT_OPTIONS, "--output-dir"]),
    ("ablate", [*ARTIFACT_OPTIONS, "--kind", "--output-dir"]),
    ("corr", [*ARTIFACT_OPTIONS, "--output-dir"]),
])
def test_command_options_are_pinned(command, options):
    """Each command's options, in the order its --help lists them."""
    params = main.commands[command].params
    assert [name for param in params for name in param.opts] == options
    required = {"--data-dir", "--topic", "--vehicle", "--kind"}
    if command not in ("validate", "interpret"):
        required.add("--output-dir")
    assert {param.opts[0] for param in params if param.required} == required & set(options)
