"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_synthetic_dataset
from rsa_metaphor import load_dataset, save_dataset
from rsa_metaphor import cli, evaluation, learn
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


ARTIFACT_COMMANDS = (["train"], ["eval"], ["ablate", "--kind", "no-relevance"],
                     ["ablate", "--kind", "grid-lambda"], ["corr"])


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

    def test_zero_cell_exits_one(self, runner, dataset_dir):
        # workers' row 0.6, 0.3, 0.1 becomes 0.7, 0.3, 0: it sums to 1, and every command
        # that scores it would refuse it
        path = dataset_dir / "typicality.csv"
        text = path.read_text(encoding="utf-8")
        text = text.replace("workers,diligence,0.6", "workers,diligence,0.7", 1)
        path.write_text(text.replace("workers,wisdom,0.1", "workers,wisdom,0.0", 1),
                        encoding="utf-8")
        result = runner.invoke(main, ["validate", "--data-dir", str(dataset_dir)])
        assert result.exit_code == 1
        assert result.stderr == "typicality: row for 'workers' holds a value outside (0, 1)\n"

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

    def test_noun_one_letter_off_is_named_as_the_hint(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workerz", "--vehicle", "ants",
        ])
        assert result.exit_code == 1
        assert result.stderr == "error: unknown category 'workerz'; did you mean: workers\n"

    def test_importing_the_cli_leaves_difflib_unloaded(self):
        # the hint's difflib is imported on the error path, not by every command
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        code = "import sys, rsa_metaphor.cli; print('difflib' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_closed_stdout_exits_one_quietly(self, dataset_dir):
        # the reader closes its end before the first line is written, so that write
        # fails with EPIPE; a subprocess, because the handler points fd 1 at devnull
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        command = [sys.executable, "-m", "rsa_metaphor.cli", "interpret",
                   "--data-dir", str(dataset_dir), "--topic", "workers", "--vehicle", "ants"]
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            child.stdout.close()
            stderr = child.stderr.read()
        assert child.returncode == 1
        assert stderr == b""

    def test_large_finite_lambda(self, runner, tmp_path):
        # on the seed-12 table 'c3 are c27' printed 58 probabilities of 1 at lambda 1e50,
        # and eval failed with a traceback; lambda 1e308 overflows lambda * log T
        data = tmp_path / "data"
        save_dataset(*make_synthetic_dataset(seed=12), data)
        pair = ["--data-dir", str(data), "--topic", "c3", "--vehicle", "c27"]
        result = runner.invoke(main, ["interpret", *pair, "--lambda", "1e50"])
        assert result.exit_code == 0
        probs = [float(line.split()[1]) for line in result.stdout.splitlines()
                 if line.startswith("  ")]
        assert len(probs) == 59 and math.fsum(probs) == pytest.approx(1.0, abs=1e-9)
        result = runner.invoke(main, ["eval", "--data-dir", str(data), "--output-dir",
                                      str(tmp_path / "out"), "--lambda", "1e50"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["interpret", *pair, "--lambda", "1e308"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == ("error: lam=1e+308 is too large for this table: lam times a "
                                 "log typicality overflows the float range\n")

    def test_same_topic_and_vehicle_is_domain_error(self, runner, dataset_dir):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", "workers", "--vehicle", "workers",
        ])
        assert result.exit_code == 1

    @pytest.mark.parametrize("topic, vehicle, flags", [
        ("workerz", "ants", ["--lambda", "-1"]),
        ("workerz", "workerz", []),
    ], ids=["before-lambda", "before-same-noun"])
    def test_nouns_are_checked_before_the_flags(self, runner, dataset_dir, topic, vehicle,
                                                flags):
        result = runner.invoke(main, [
            "interpret", "--data-dir", str(dataset_dir),
            "--topic", topic, "--vehicle", vehicle, *flags,
        ])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr == "error: unknown category 'workerz'; did you mean: workers\n"


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

    def test_params_record_every_start(self, runner, full_scale_dir, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
                "--seed", "7"]
        assert runner.invoke(main, args).exit_code == 0
        params = json.loads((out / "params.json").read_text(encoding="utf-8"))
        starts = params["starts"]
        assert [start["init"] for start in starts] == list(learn.DEFAULT_MULTISTART_INITS)
        best = max(starts, key=lambda start: start["objective"])
        assert (best["lambda"], best["objective"], best["iterations"], best["stop_reason"]) == (
            params["lambda"], params["objective"], params["iterations"], params["stop_reason"])
        assert params["trace"][0][1] == best["init"]


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
        (None, "-5"),
        (None, "-5e-324"),
        ('{"lambda": -5.0}', "learned"),
        pytest.param('{"lambda": %s}' % ("9" * 400), "learned", id="400-digit-learned"),
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

    def test_negative_zero_lambda_is_zero(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "out"
        for command in (["eval"], ["interpret", "--topic", "workers", "--vehicle", "ants"]):
            result = runner.invoke(main, [
                *command, "--data-dir", str(dataset_dir), "--output-dir", str(out),
                "--lambda", "-0.0",
            ])
            assert result.exit_code == 0, result.output
        assert "(lambda=0, mode=full)" in result.output
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert repr(payload["config"]["lambda"]) == "0.0"

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

    def test_grid_overflowing_the_float_maximum_is_domain_error(self, full_scale_dir, tmp_path):
        # finite bounds whose interior points round to inf; a subprocess, so that a numpy
        # warning would reach stderr as a user sees it
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        grid = ["--grid", "1.7976931348623157e308:1.7976931348623157e308:5"]
        out = tmp_path / "x"

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "rsa_metaphor.cli", *args, "--data-dir",
                 str(full_scale_dir), "--output-dir", str(out), *grid],
                env=env, capture_output=True, text=True, timeout=300)

        done = run("ablate", "--kind", "grid-lambda")
        assert done.returncode == 1
        assert done.stderr == ("error: invalid --grid value; bad grid spec (1.7976931348623157e+308, "
                               "1.7976931348623157e+308, 5): a point is not finite\n")
        assert not out.exists()
        # a command that does not score the grid takes it as before, now without a warning
        done = run("eval", "--lambda", "5")
        assert done.returncode == 0 and done.stderr == ""

    # 10**16 points ask for 71 PiB, which no host gives, so the allocation fails at once;
    # numpy refuses the three larger counts before it allocates anything
    @pytest.mark.parametrize("count", [10**16, 2**63 - 1, 2**60, 10**20])
    def test_grid_too_large_to_allocate_is_domain_error(
            self, runner, full_scale_dir, tmp_path, count):
        out = tmp_path / "x"
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--kind", "grid-lambda", "--grid", f"1:2:{count}",
        ])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr == (f"error: invalid --grid value; {count} points do not "
                                 "fit in memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["no-relevance", "grid-lambda"])
    def test_failing_ablation_makes_no_output_directory(
            self, runner, full_scale_dir, tmp_path, kind):
        # the report is computed before the writer opens, as in train, eval and corr
        out = tmp_path / "x"
        result = runner.invoke(main, [
            "ablate", "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--kind", kind, "--lambda", "1e308", "--grid", "1e300:1e308:3",
        ])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr == ("error: lam=1e+308 is too large for this table: lam times a "
                                 "log typicality overflows the float range\n")
        assert not out.exists()

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


class TestSharedFlags:
    @pytest.mark.parametrize("command", ARTIFACT_COMMANDS)
    def test_negative_seed_is_domain_error(self, runner, full_scale_dir, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            *command, "--data-dir", str(full_scale_dir), "--output-dir", str(out),
            "--seed", "-1",
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: invalid --seed value -1; seeds must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [*ARTIFACT_COMMANDS, ["interpret", "--topic", "c0", "--vehicle", "c24"]]
    )
    @pytest.mark.parametrize("k", ["1,60", "99"])
    def test_k_above_the_vocabulary_is_domain_error(
        self, runner, full_scale_dir, tmp_path, monkeypatch, command, k
    ):
        def no_model_work(*args, **kwargs):
            raise AssertionError("model work before the --k check")

        monkeypatch.setattr(learn, "_interpret_lams", no_model_work)
        monkeypatch.setattr(evaluation, "_interpret_batch", no_model_work)
        monkeypatch.setattr(cli, "interpret", no_model_work)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            *command, "--data-dir", str(full_scale_dir), "--output-dir", str(out), "--k", k,
        ])
        assert result.exit_code == 1, result.output
        top = max(int(part) for part in k.split(","))
        assert result.stderr == f"error: --k {top} exceeds the 59-feature vocabulary\n"
        assert not out.exists()


class TestFlagErrors:
    """A bad flag value prints one ``error:`` line and exits 1, without a traceback."""

    INTERPRET = ["interpret", "--topic", "workers", "--vehicle", "ants"]

    @staticmethod
    def assert_domain_error(result, message):
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert result.stderr == f"error: {message}\n"
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [["eval"], INTERPRET])
    @pytest.mark.parametrize("flags, message", [
        (["--k", "x"], "invalid --k value 'x'; expected e.g. '1,3'"),
        (["--k", "0,2"], "invalid --k value '0,2'; k values must be >= 1"),
        (["--lambda", "abc"], "invalid --lambda value 'abc'; expected a number or 'learned'"),
    ])
    def test_bad_value(self, runner, dataset_dir, tmp_path, command, flags, message):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            *command, "--data-dir", str(dataset_dir), "--output-dir", str(out), *flags,
        ])
        self.assert_domain_error(result, message)
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1:2", "a:b:c"])
    def test_malformed_grid(self, runner, dataset_dir, tmp_path, grid):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "ablate", "--kind", "grid-lambda", "--data-dir", str(dataset_dir),
            "--output-dir", str(out), "--grid", grid,
        ])
        self.assert_domain_error(
            result, f"invalid --grid value {grid!r}; expected 'start:stop:count'"
        )
        assert not out.exists()

    def test_learned_lambda_needs_an_output_dir(self, runner, dataset_dir):
        result = runner.invoke(main, [
            *self.INTERPRET, "--data-dir", str(dataset_dir), "--lambda", "learned",
        ])
        self.assert_domain_error(
            result, "--lambda learned needs --output-dir to locate params.json"
        )


def test_shared_defaults_come_from_evaluation():
    params = {param.name: param for param in main.commands["eval"].params}
    assert params["k_text"].default == "1,3"
    assert cli._parse_ks(params["k_text"].default) == evaluation.DEFAULT_KS
    assert params["grid_text"].default == "0.5:100:200"
    assert cli._parse_grid(params["grid_text"].default) == evaluation.DEFAULT_GRID


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

    def test_fewer_than_three_metaphors_is_domain_error(self, runner, dataset_dir, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "corr", "--data-dir", str(dataset_dir), "--output-dir", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: corr needs at least 3 metaphors, got 2\n"
        assert not list(out.glob("corr_*.csv"))


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
