"""Command-line surface: validate, interpret, train, eval, ablate, corr.

Every artifact embeds the resolved run configuration and a SHA-256 hash of
the input CSVs, so outputs are self-describing and byte-identical across
reruns with the same inputs and seed.  Exit codes: 0 success, 1 domain
error, 2 I/O error.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import click

from . import engine, evaluation, learn, lexicon
from .engine import RsaConfig, interpret
from .errors import Error
from .lexicon import MetaphorItem
from .metrics import top_k_indices


def dataset_sha256(data_dir) -> str:
    digest = hashlib.sha256()
    for name in lexicon.DATASET_FILES:
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update((Path(data_dir) / name).read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command run; echoed into every artifact."""

    data_dir: str
    output_dir: str
    model: RsaConfig
    lambda_source: str
    split_seed: int
    objective: str
    jsd_base: float
    raw_ratings: bool
    ks: tuple[int, ...]
    grid: tuple[float, float, int]

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("model"))  # artifacts keep the model's settings at the top level
        out["lambda"], out["k"] = out.pop("lam"), out.pop("ks")
        return out


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Error as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except BrokenPipeError:
            # downstream consumer (e.g. head) closed the pipe: die quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise Error(f"invalid --k value {text!r}; expected e.g. '1,3'") from None
    if not ks or any(k < 1 for k in ks):
        raise Error(f"invalid --k value {text!r}; k values must be >= 1")
    return ks


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        start, stop, count = text.split(":")  # ValueError unless there are three parts
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise Error(f"invalid --grid value {text!r}; expected 'start:stop:count'") from None
    try:  # lambda_grid's rule, checked on one point however many are asked for
        evaluation.lambda_grid(start, stop, min(count, 1))
    except ValueError:
        raise Error(f"invalid --grid value {text!r}; need finite 0 < start <= stop, "
                    "count >= 1") from None
    return start, stop, count


def _resolve_lambda(text: str, output_dir: str | None) -> tuple[float, str]:
    if text == "learned":
        if output_dir is None:
            raise Error("--lambda learned needs --output-dir to locate params.json")
        params_path = Path(output_dir) / "params.json"
        if not params_path.exists():
            raise Error(f"--lambda learned: {params_path} not found; run train first")
        try:
            lam = json.loads(params_path.read_text(encoding="utf-8"), parse_int=float)["lambda"]
        except (ValueError, KeyError, TypeError):
            lam = None
        if type(lam) is not float:  # a number (a huge integer is inf, as 1e999 is), not a bool
            raise Error(f"--lambda learned: {params_path} holds no numeric 'lambda'")
        source = "learned"
    else:
        try:
            lam = float(text)
        except ValueError:
            raise Error(
                f"invalid --lambda value {text!r}; expected a number or 'learned'"
            ) from None
        source = "value"
    if not (math.isfinite(lam) and lam >= 0):
        raise Error(f"--lambda must be finite and >= 0, got {lam!r}")
    return lam + 0.0, source  # -0.0 becomes 0.0


def _load_dataset(data_dir, raw_ratings: bool, ks: tuple[int, ...]):
    """Load the dataset; the largest --k value must fit its feature vocabulary."""
    table, items, human = lexicon.load_dataset(data_dir, raw_ratings=raw_ratings)
    if max(ks) > table.n:
        raise Error(f"--k {max(ks)} exceeds the {table.n}-feature vocabulary")
    return table, items, human


def _train_items(items, split: learn.TrainTestSplit) -> tuple[MetaphorItem, ...]:
    by_id = {item.id: item for item in items}
    return tuple(by_id[i] for i in split.train)


class ArtifactWriter:
    """Writes artifacts to the output directory; removes partial output on failure.

    Each artifact is written to a temporary file beside it and moved into
    place with ``os.replace``, so a reader sees either the old file or the
    whole new one, and a failed write leaves no temporary file behind.
    """

    def __init__(self, config: RunConfig):
        self.dir = Path(config.output_dir)
        self.envelope = {
            "config": config.to_dict(),
            "dataset_sha256": dataset_sha256(config.data_dir),
        }
        self._written: list[Path] = []

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for path in self._written:
                path.unlink(missing_ok=True)
        return False

    def _write(self, name: str, text: str) -> Path:
        path = self.dir / name
        temporary = self.dir / f".{name}.{os.getpid()}.tmp"
        try:
            temporary.write_text(text, encoding="utf-8")
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        self._written.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        body = dict(self.envelope)
        body.update(payload)
        return self._write(name, json.dumps(body, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name: str, rows: list[list[str]]) -> Path:
        buf = io.StringIO()
        buf.write("# " + json.dumps(self.envelope, sort_keys=True, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return self._write(name, buf.getvalue())


def _options(*options):
    """A decorator that applies ``options`` (click options, or groups of them) in this order."""
    return lambda fn: functools.reduce(lambda wrapped, option: option(wrapped), options, fn)


_dataset_options = _options(
    click.option("--raw-ratings", is_flag=True,
                 help="Treat typicality.csv values as 1-7 Likert means and normalize them."),
    click.option("--data-dir", required=True, type=click.Path(file_okay=False),
                 help="Directory holding typicality.csv, metaphors.csv, human.csv."),
)

_engine_options = _options(
    click.option("--mode", type=click.Choice(engine._MODES), default="full",
                 show_default=True, help="Full recursion or the reduced fast path."),
    click.option("--lambda", "lam_text", default="1.0", show_default=True,
                 help="Speaker rationality: a number, or 'learned' to read params.json."),
    click.option("--utterances", type=click.Choice(engine._UTTERANCE_SETS), default="all",
                 show_default=True, help="Speaker's utterance alternative set."),
    click.option("--category-prior", type=click.Choice(engine._CATEGORY_PRIORS),
                 default="topic", show_default=True),
    click.option("--goal-prior", type=click.Choice(engine._GOAL_PRIORS),
                 default="relevance", show_default=True),
)

_eval_options = _options(
    click.option("--seed", "split_seed", type=int, default=0, show_default=True,
                 help="Seed for the stratified train/test split."),
    click.option("--objective", type=click.Choice(learn._OBJECTIVE_KINDS), default="mean",
                 show_default=True, help="Mean per-metaphor Pearson or one pooled correlation."),
    click.option("--jsd-base", type=click.Choice(["2", "e"]), default="2", show_default=True),
    click.option("--k", "k_text", default=",".join(map(str, evaluation.DEFAULT_KS)),
                 show_default=True, help="Comma-separated k values for k-agreement."),
    click.option("--grid", "grid_text", show_default=True,
                 default="{:g}:{:g}:{:d}".format(*evaluation.DEFAULT_GRID),
                 help="start:stop:count log-spaced grid for the grid-lambda ablation."),
)


def _run_command(*own_options):
    """Give an artifact command the shared flags, resolved once into a RunConfig.

    The flags named after ``RsaConfig`` fields build ``model`` with the
    resolved lambda; a flag named after a ``RunConfig`` field is passed
    through as it is, and the four that ``run`` names are converted first.
    The command is called as ``fn(config, table, items, human, **own)`` with
    the loaded dataset, where ``own`` holds the values of ``own_options``,
    the options that only it takes.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(lam_text, jsd_base, k_text, grid_text, **flags):
            lam, lambda_source = _resolve_lambda(lam_text, flags["output_dir"])
            if flags["split_seed"] < 0:
                raise Error(f"invalid --seed value {flags['split_seed']}; seeds must be >= 0")
            model = RsaConfig(lam=lam, **{f.name: flags.pop(f.name)
                                          for f in fields(RsaConfig) if f.name != "lam"})
            names = {f.name for f in fields(RunConfig)}
            own = {name: flags.pop(name) for name in list(flags) if name not in names}
            config = RunConfig(
                **flags, model=model, lambda_source=lambda_source,
                jsd_base=2.0 if jsd_base == "2" else math.e,
                ks=_parse_ks(k_text), grid=_parse_grid(grid_text),
            )
            dataset = _load_dataset(config.data_dir, config.raw_ratings, config.ks)
            return fn(config, *dataset, **own)

        output_dir = click.option("--output-dir", required=True, type=click.Path(file_okay=False))
        return _options(output_dir, *own_options, _eval_options, _engine_options,
                        _dataset_options)(_handle_errors(run))

    return decorate


@click.group()
def main():
    """RSA metaphor interpretation: inference, learning, and evaluation."""


@main.command()
@_dataset_options
@_handle_errors
def validate(data_dir, raw_ratings):
    """Check dataset invariants; print violations and exit non-zero if any."""
    table, items, human = lexicon.read_dataset(data_dir, raw_ratings=raw_ratings)
    report = lexicon.validate(table, items, human)
    if not report.ok:
        click.echo(str(report), err=True)
        sys.exit(1)
    click.echo(
        f"dataset OK: {len(table.categories)} categories, "
        f"{table.n} features, {len(items)} metaphors"
    )


@main.command("interpret")
@_dataset_options
@_engine_options
@click.option("--topic", required=True, help="Topic noun (the X in 'X are Y').")
@click.option("--vehicle", required=True, help="Vehicle noun (the Y in 'X are Y').")
@click.option("--k", "k_text", default="3", show_default=True,
              help="Size of the top-k summary line.")
@click.option("--output-dir", type=click.Path(file_okay=False), default=None,
              help="Where to find params.json when --lambda learned is used.")
@_handle_errors
def cmd_interpret(data_dir, raw_ratings, lam_text, topic, vehicle, k_text, output_dir, **engine):
    """Print the ranked feature distribution for one topic-vehicle pair."""
    ks = _parse_ks(k_text)
    table, _, _ = _load_dataset(data_dir, raw_ratings, ks)
    table.category_index(topic)  # the nouns are checked before the flags
    table.category_index(vehicle)
    lam, _ = _resolve_lambda(lam_text, output_dir)
    config = RsaConfig(lam=lam, **engine)
    item = MetaphorItem(id=f"{topic}-{vehicle}", topic=topic, vehicle=vehicle)
    dist = interpret(item, config, table)
    probs = dist.p
    k = max(ks)
    order = top_k_indices(probs, table.n)
    click.echo(f"interpretation of '{topic} are {vehicle}' "
               f"(lambda={config.lam:.12g}, mode={config.mode}):")
    for i in order:
        click.echo(f"  {table.vocab.features[i]}  {probs[i]:.12g}")
    top = [table.vocab.features[i] for i in order[:k]]
    click.echo(f"top-{k}: " + ", ".join(top))


@main.command()
@_run_command()
def train(config: RunConfig, table, items, human):
    """Fit the rationality parameter on the train split; write params.json."""
    split = learn.make_split(items, config.split_seed)
    fit = learn.learn_lambda_multistart(_train_items(items, split), human, config.model, table,
                                        kind=config.objective)
    with ArtifactWriter(config) as writer:
        path = writer.write_json("params.json", {
            "lambda": fit.lambda_hat,
            "objective": fit.objective_value,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "stop_reason": fit.stop_reason,
            "gradient_norm": fit.gradient_norm_at_convergence,
            "trace": [[k, lam, value] for k, lam, value in fit.trace],
            "split_seed": config.split_seed,
            "starts": [
                {"init": start.trace[0][1], "lambda": start.lambda_hat,
                 "objective": start.objective_value, "iterations": start.iterations,
                 "stop_reason": start.stop_reason}
                for start in fit.starts
            ],
            "train_ids": list(split.train),
            "test_ids": list(split.test),
        })
    click.echo(f"learned lambda={fit.lambda_hat:.6g} "
               f"(objective={fit.objective_value:.6g}, {fit.stop_reason}) -> {path}")


@main.command("eval")
@_run_command()
def cmd_eval(config: RunConfig, table, items, human):
    """Evaluate the model against human data; write report.json and report.csv."""
    split = None
    try:
        split = learn.make_split(items, config.split_seed)
    except Error:
        pass  # datasets without the 24-item stratified layout get no split groups
    report = evaluation.evaluate(
        items, human, config.model, table,
        ks=config.ks, jsd_base=config.jsd_base, split=split,
    )
    with ArtifactWriter(config) as writer:
        writer.write_json("report.json", {"report": evaluation.report_to_dict(report)})
        writer.write_csv("report.csv", evaluation.report_csv_rows(report))
    stats = report.groups["all"]
    click.echo(f"mean r={stats.mean_pearson:.4f}, mean JSD={stats.mean_jsd:.4f}, "
               f"top-1 matches {stats.top1_match_count}/{stats.n_items}")


@main.command()
@_run_command(
    click.option("--kind", type=click.Choice(["no-relevance", "grid-lambda"]), required=True)
)
def ablate(config: RunConfig, table, items, human, kind):
    """Run one ablation (uniform goal prior, or grid-searched lambda)."""
    if kind == "grid-lambda":
        try:  # _parse_grid checked one point; near the float maximum an interior one can overflow
            grid = evaluation.lambda_grid(*config.grid)
        except ValueError as exc:
            raise Error(f"invalid --grid value; {exc}: a point is not finite") from None
        except MemoryError:
            raise Error(f"invalid --grid value; {config.grid[2]} points do not fit in "
                        "memory") from None
        split = learn.make_split(items, config.split_seed)
        best, report = evaluation.ablate_lambda_interpolation(
            items, human, config.model, table,
            grid=grid, train=_train_items(items, split), objective_kind=config.objective,
            ks=config.ks, jsd_base=config.jsd_base,
        )
        payload = {"best_lambda": best}
    else:
        report = evaluation.ablate_relevance(
            items, human, config.model, table, ks=config.ks, jsd_base=config.jsd_base,
        )
        payload = {}
    payload["report"] = evaluation.report_to_dict(report)
    with ArtifactWriter(config) as writer:
        path = writer.write_json(f"ablation_{kind.replace('-', '_')}.json", payload)
    stats = report.groups["all"]
    click.echo(f"ablation {kind}: mean r={stats.mean_pearson:.4f} -> {path}")


@main.command()
@_run_command()
def corr(config: RunConfig, table, items, human):
    """Write model- and human-side feature correlation matrices as CSV."""
    if len(items) < 3:
        raise Error(f"corr needs at least 3 metaphors, got {len(items)}")
    features = table.vocab.features
    model_matrix = evaluation.feature_correlation_matrix(items, "model", config.model, table)
    human_matrix = evaluation.feature_correlation_matrix(items, "human", config.model, table,
                                                         human=human)
    with ArtifactWriter(config) as writer:
        writer.write_csv("corr_model.csv", evaluation.matrix_csv_rows(model_matrix, features))
        writer.write_csv("corr_human.csv", evaluation.matrix_csv_rows(human_matrix, features))
    click.echo(f"wrote corr_model.csv and corr_human.csv to {config.output_dir}")


if __name__ == "__main__":
    main()
