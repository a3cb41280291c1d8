"""Command-line entry point for data prep, training, sweeps, and reports.

One merged JSON config file (``model`` / ``train`` / ``schema`` / ``split`` /
``winsorize`` / ``data`` sections) drives every subcommand; command-line
flags override file values. Every run directory receives a ``manifest.json``
with the fully resolved config, seeds, input hash, package version and BLAS.

Exit codes: 0 success, 1 usage/config error (or a model refusing its input),
2 data/schema error, 3 numeric error (divergence or NaN).
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, get_origin

import numpy as np

from . import __version__, blas
from .data import (
    SYNTH_PRESETS,
    FeatureFrame,
    PreprocessStats,
    SchemaConfig,
    Splits,
    SplitSpec,
    SynthPreset,
    SynthRows,
    apply_preprocess,
    check_quantiles,
    column_indices,
    load_csv,
    prepare_splits,
    read_header,
    synth_generate,
    synth_preset,
)
from .errors import (
    ConfigError,
    DataError,
    LeakageError,
    NumericError,
    SchemaError,
    ShapeError,
    StateError,
    UndefinedMetricError,
)
from .importance import Metric, permutation_importance
from .metrics import auc
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .records import (Count, Positive, Seed, check_arg, config_from_dict, make_record,
                      read_json_object, record_to_dict)
from .training import (
    FIT_THREADS,
    Optimizer,
    TrainConfig,
    ablate,
    evaluate,
    stable_hash,
    sweep_lr,
    sweep_optimizer,
    train,
    write_curves_csv,
)

DATA_DIR_ENV = "CREDITNET_DATA_DIR"
DEFAULT_DATA_FILE = "cs-training.csv"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def flag_arg(name: str, hint, item: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse ``type=``: the flag's text parsed by ``item`` (for a tuple
    ``hint``, each entry of a non-empty comma-separated list), then checked
    against ``hint``, the hint of the record field or library argument it
    feeds, by ``check_arg``. Text that does not parse is checked as itself."""
    def parse(text: str):
        try:
            if get_origin(hint) is tuple:
                value = tuple(item(tok.strip()) for tok in text.split(",") if tok.strip()) or text
            else:
                value = item(text)
        except ValueError:
            value = text
        try:
            check_arg(name, value, hint)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


SEED_FLAG = flag_arg("seed", Seed, int)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

# records for the config file's top level and its data and winsorize sections,
# named for config_from_dict's messages
ConfigFile = make_record("config", [(name, Optional[dict], None) for name in (
    "model", "train", "schema", "split", "winsorize", "data")])
DataSection = make_record("data", [("subsample", Optional[Count], None),
                                   ("subsample_seed", Seed, 0)])
WinsorSection = make_record("winsorize", [("lower_quantile", float), ("upper_quantile", float)])


def read_config_file(path) -> dict:
    if path is None:
        return {}
    cfg = read_json_object(path, "config file")
    config_from_dict(ConfigFile, cfg)
    return cfg


def resolve_data_path(args) -> Path:
    if getattr(args, "data", None):
        return Path(args.data)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env) / DEFAULT_DATA_FILE
    raise UsageError(
        f"--data not given and {DATA_DIR_ENV} is unset; nothing to load"
    )


def read_schema(path: Path, cfg: dict) -> SchemaConfig:
    """The config's schema, checked against the header of the CSV at ``path``;
    without feature columns, every named non-label header column is a feature."""
    if not Path(path).is_file():
        raise DataError(f"no such data file: {path}")
    section = {"label_column": "label", **(cfg.get("schema") or {})}
    if not section.get("feature_columns"):
        label = section["label_column"]
        section["feature_columns"] = [c for c in read_header(path) if c and c != label]
    schema = SchemaConfig.from_dict(section)
    column_indices(path, schema)
    return schema


def data_section(cfg: dict) -> dict:
    """The config's data section, checked, as ``load_csv``'s keyword arguments."""
    data = config_from_dict(DataSection, cfg.get("data") or {})
    return {"subsample": data.subsample, "seed": data.subsample_seed}


def seeded_section(cfg: dict, name: str, seed_override) -> dict:
    """A copy of config section ``name`` with its seed replaced by ``--seed``."""
    section = dict(cfg.get(name) or {})
    if seed_override is not None:
        section["seed"] = int(seed_override)
    return section


def winsor_quantiles(cfg: dict):
    if not cfg.get("winsorize"):
        return None
    section = config_from_dict(WinsorSection, cfg["winsorize"])
    check_quantiles(section.lower_quantile, section.upper_quantile)
    return (float(section.lower_quantile), float(section.upper_quantile))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def blas_info() -> dict:
    """The BLAS a run used, for its manifest: numpy's build name and version,
    the caller's thread count and the count fits run at. Both counts are null
    when the library has no thread calls that ``blas`` knows."""
    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas.threads()
    return {"name": build.get("name"), "version": build.get("version"), "threads": threads,
            "fit_threads": None if threads is None else FIT_THREADS}


def write_manifest(out_dir: Path, command: str, args, resolved: dict,
                   data_path: Path | None, t0: float) -> None:
    manifest = {
        "blas": blas_info(),
        "command": command,
        "package_version": __version__,
        "resolved_config": resolved,
        "config_hash": stable_hash(resolved),
        "data_path": None if data_path is None else str(data_path),
        "data_sha256": None if data_path is None else sha256_file(data_path),
        "seed_override": getattr(args, "seed", None),
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    write_json(out_dir / "manifest.json", manifest)


def check_outputs(out: Path, names: tuple[str, ...]) -> None:
    """Raise now, before any fit, scoring or generation, the ``OSError`` that
    writing ``out/name`` would raise later: a directory in the file's place,
    or no write access."""
    for name in names:
        path = out / name
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not os.access(path if path.exists() else out, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


# ---------------------------------------------------------------------------
# run-directory commands: one skeleton, and a table row per command that
# declares its help, inputs, outputs, runner and own flags
# ---------------------------------------------------------------------------

class TrainingInputs(NamedTuple):
    data_path: Path
    resolved: dict  # the manifest's resolved config
    splits: Splits
    pre_stats: PreprocessStats
    model_cfg: ModelConfig
    train_cfg: TrainConfig


def training_inputs(args, cfg: dict) -> TrainingInputs:
    """Prepared splits and seeded model/train configs, resolved as every
    section that decides a fit: model, train, schema, split, winsorize, data,
    each checked before the CSV body is read (the model once the schema gives
    its width, the others before the data path)."""
    train_cfg = TrainConfig.from_dict(seeded_section(cfg, "train", args.seed))
    split_spec = config_from_dict(SplitSpec, seeded_section(cfg, "split", args.seed))
    quantiles = winsor_quantiles(cfg)
    data = data_section(cfg)
    data_path = resolve_data_path(args)
    schema = read_schema(data_path, cfg)
    model_cfg = ModelConfig.from_dict({**seeded_section(cfg, "model", args.seed),
                                       "n_features": len(schema.feature_columns)})
    frame = load_csv(data_path, schema, **data)
    splits, pre_stats = prepare_splits(frame, schema, split_spec, quantiles)
    resolved = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
                "schema": schema.to_dict(), "split": record_to_dict(split_spec),
                "winsorize": cfg.get("winsorize"), "data": cfg.get("data") or {}}
    return TrainingInputs(data_path, resolved, splits, pre_stats, model_cfg, train_cfg)


class CheckpointInputs(NamedTuple):
    data_path: Path
    resolved: dict  # the manifest's resolved config
    model: Model
    prepared: FeatureFrame


def checkpoint_inputs(args, cfg: dict) -> CheckpointInputs:
    """Checkpoint model plus the CSV pushed through its preprocessing, resolved
    as model and schema; the checkpoint's schema applies unless the config
    names feature columns."""
    model, header = load_checkpoint(args.checkpoint)
    if header["preprocess"] is None:
        raise ConfigError(f"checkpoint {args.checkpoint} lacks preprocessing statistics")
    schema_dict = header["extra"].get("schema")
    check_arg(f"checkpoint {args.checkpoint} extra key 'schema'", schema_dict, Optional[dict])
    if schema_dict and not (cfg.get("schema") or {}).get("feature_columns"):
        cfg = {**cfg, "schema": schema_dict}
    stats = PreprocessStats.from_dict(header["preprocess"])
    n_stats = len(stats.standardize.mean)  # PreprocessStats holds its parts to one count
    if n_stats != model.config.n_features:
        raise ConfigError(f"checkpoint {args.checkpoint} preprocessing statistics cover "
                          f"{n_stats} features, its model expects {model.config.n_features}")
    data = data_section(cfg)
    data_path = resolve_data_path(args)
    schema = read_schema(data_path, cfg)
    return CheckpointInputs(data_path, {"model": model.config.to_dict(),
                                        "schema": schema.to_dict()},
                            model, apply_preprocess(load_csv(data_path, schema, **data), stats))


# A runner takes (args, inputs, out dir), writes the command's own outputs and
# returns (report payload, the lines to print).

def _train(args, inputs: TrainingInputs, out: Path):
    model, report = train(inputs.model_cfg, inputs.train_cfg, inputs.splits)
    write_curves_csv(report, out / "curves.csv")
    save_checkpoint(out / "checkpoint.bin", model, preprocess=inputs.pre_stats.to_dict(),
                    extra={"schema": inputs.resolved["schema"]})
    test = report.final["test"]
    return report.to_dict(), [f"train: done in {report.epochs_run} epochs; "
                              f"test acc={test.acc:.4f} auc={test.auc:.4f} ks={test.ks:.4f}"]


def _rows(grid: Callable) -> Callable:
    """The runner of a command whose report is one row per fit: ``grid`` (a
    ``training`` sweep) gets the inputs' configs and splits and the command's flags."""
    def runner(args, inputs: TrainingInputs, out: Path):
        rows = grid(inputs.model_cfg, inputs.train_cfg, splits=inputs.splits, **own_flags(args))
        return {"rows": rows}, [_row_line(row) for row in rows]
    return runner


def _eval(args, inputs: CheckpointInputs, out: Path):
    loss, metrics = evaluate(inputs.model, inputs.prepared)
    n_rows = inputs.prepared.n_rows
    return ({"checkpoint": str(args.checkpoint), "n_rows": n_rows, "loss": loss,
             "metrics": metrics.to_dict()},
            [f"eval: n={n_rows} acc={metrics.acc:.4f} "
             f"auc={metrics.auc:.4f} ks={metrics.ks:.4f}"])


def _importance(args, inputs: CheckpointInputs, out: Path):
    report = permutation_importance(inputs.model, inputs.prepared, metric=args.metric,
                                    repeats=args.repeats,
                                    seed=0 if args.seed is None else args.seed)
    (out / "importance.csv").write_text(report.to_csv(), encoding="utf-8")
    top = report.features[0]
    return (report.to_dict(),
            [f"importance: baseline {report.metric}={report.baseline:.4f}; "
             f"top feature {top.feature} (drop {top.mean_drop:.4f})"])


class RunCommand(NamedTuple):
    help: str
    inputs: Callable  # (args, config) -> TrainingInputs | CheckpointInputs
    outputs: tuple[str, ...]  # files it writes besides report.json and manifest.json
    runner: Callable
    flags: tuple = ()  # (name, add_argument keywords) per own flag; the manifest records each


LRS_FLAG = ("lrs", {"type": flag_arg("lrs", tuple[Positive, ...], float),
                    "default": "0.005,0.003,0.002,0.001",
                    "help": "comma-separated learning rates (default: %(default)s)"})
OPTIMIZERS_FLAG = ("optimizers", {
    "type": flag_arg("optimizers", tuple[Optimizer, ...], str),
    "default": "sgd,adam", "help": "comma-separated optimizers (default: %(default)s)"})
RUN_COMMANDS = {
    "train": RunCommand("train one model", training_inputs,
                        ("curves.csv", "checkpoint.bin"), _train),
    "sweep-lr": RunCommand("learning-rate sensitivity table", training_inputs, (),
                           _rows(sweep_lr), (LRS_FLAG,)),
    "sweep-opt": RunCommand("optimizer x learning-rate grid", training_inputs, (),
                            _rows(sweep_optimizer), (LRS_FLAG, OPTIMIZERS_FLAG)),
    "ablate": RunCommand("cnn_only / transformer_only / hybrid table", training_inputs, (),
                         _rows(ablate)),
    "eval": RunCommand("evaluate a checkpoint on a CSV", checkpoint_inputs, (), _eval),
    "importance": RunCommand(
        "permutation feature importance", checkpoint_inputs, ("importance.csv",), _importance,
        (("metric", {"type": flag_arg("metric", Metric, str), "default": "auc",
                     "help": "score whose drop is measured (default: %(default)s)"}),
         ("repeats", {"type": flag_arg("repeats", Count, int), "default": 5,
                      "help": "shuffles per feature (default: %(default)s)"}))),
}
ROW_KINDS = ("sweep-lr", "sweep-opt", "ablate")  # commands whose report is one row per fit


def own_flags(args) -> dict:
    """The values of the running command's own flags, by name."""
    return {name: getattr(args, name) for name, _ in RUN_COMMANDS[args.command].flags}


def cmd_run(args) -> int:
    """Every run-directory command, its flags already parsed: read the inputs,
    make ``--out`` and check every output the command writes, run, then write
    report.json and manifest.json and print."""
    t0 = time.perf_counter()
    command = RUN_COMMANDS[args.command]
    cfg = read_config_file(args.config)
    inputs = command.inputs(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    check_outputs(out, ("report.json", *command.outputs, "manifest.json"))
    report, lines = command.runner(args, inputs, out)
    write_json(out / "report.json", {"kind": args.command, **report})
    write_manifest(out, args.command, args, {**inputs.resolved, **own_flags(args)},
                   inputs.data_path, t0)
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_synth(args) -> int:
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    meta_path = Path(str(out_path) + ".meta.json")
    check_outputs(out_path.parent, (out_path.name, meta_path.name))
    spec = synth_preset(args.spec, args.n_features)
    seed = 0 if args.seed is None else args.seed
    frame, bayes = synth_generate(args.n, args.n_features, seed, spec)

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([*frame.feature_names, "label"]) + "\n")
        for i in range(frame.n_rows):
            cells = [repr(float(v)) for v in frame.X[i]]
            fh.write(",".join([*cells, str(int(frame.y[i]))]) + "\n")

    meta = {
        "n": args.n,
        "n_features": args.n_features,
        "seed": seed,
        "spec": args.spec,
        "generator": record_to_dict(spec),
        "bayes_auc": auc(bayes, frame.y) if 0 < frame.y.sum() < frame.n_rows else None,
        "positive_rate": float(frame.y.mean()),
    }
    write_json(meta_path, meta)
    print(f"synth: wrote {frame.n_rows} rows to {out_path} "
          f"(bayes auc {meta['bayes_auc']})")
    return EXIT_OK


def row_label(row: dict) -> str:
    """A sweep or ablation row's name, as the commands and ``report`` print it."""
    return row.get("variant") or " ".join(
        f"{k}={row[k]}" for k in ("optimizer", "lr") if k in row)


def _row_line(row: dict) -> str:
    if row.get("status") != "ok":
        return f"{row_label(row)}: FAILED ({row.get('error', 'unknown')})"
    m = row["metrics"]["test"]
    return f"{row_label(row)}: acc={m['acc']:.4f} auc={m['auc']:.4f} ks={m['ks']:.4f}"


def report_lines(kind, payload: dict):
    """The lines ``report`` prints for a ``report.json`` of ``kind``."""
    if kind == "train":
        for split_name, m in payload["final"].items():
            yield (f"{split_name:6s} acc={m['acc']:.4f} auc={m['auc']:.4f} "
                   f"ks={m['ks']:.4f} (n_pos={m['n_pos']}, n_neg={m['n_neg']})")
        yield f"epochs_run={payload['epochs_run']} best_epoch={payload['best_epoch']}"
    elif kind in ROW_KINDS:
        yield from map(_row_line, payload["rows"])
    elif kind == "eval":
        m = payload["metrics"]
        yield (f"n={payload['n_rows']} loss={payload['loss']:.4f} "
               f"acc={m['acc']:.4f} auc={m['auc']:.4f} ks={m['ks']:.4f}")
    elif kind == "importance":
        for entry in payload["features"]:
            yield (f"{entry['feature']:24s} {entry['mean_drop']:+0.4f} "
                   f"(std {entry['std_drop']:.4f})")
    else:
        yield json.dumps(payload, indent=2, sort_keys=True)


def cmd_report(args) -> int:
    path = Path(args.run) / "report.json"
    if not path.exists():
        raise DataError(f"no report.json in {args.run}")
    payload = read_json_object(path, "report")
    kind = payload.get("kind", "unknown")
    try:
        lines = list(report_lines(kind, payload))
    except KeyError as exc:
        raise ConfigError(f"{kind} report {path} has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} report {path} holds a mistyped value: {exc}") from None
    print(f"# {kind} report ({path})")
    for line in lines:
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="creditnet",
                     description="Hybrid CNN+Transformer credit-default experiments")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    for name, command in RUN_COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="merged JSON config file")
        p.add_argument("--data", help=f"CSV path (default: ${DATA_DIR_ENV}/"
                                      f"{DEFAULT_DATA_FILE})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=SEED_FLAG, default=None,
                       help="override every seed in the run")
        if command.inputs is checkpoint_inputs:
            p.add_argument("--checkpoint", required=True, help="a train run's checkpoint.bin")
        for flag, spec in command.flags:
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a synthetic CSV with known Bayes score")
    p.add_argument("--n", type=flag_arg("n", SynthRows, int), required=True)
    p.add_argument("--n-features", type=flag_arg("n_features", Count, int), default=10)
    p.add_argument("--spec", type=flag_arg("spec", SynthPreset, str), default="strong-single",
                   help=f"one of {', '.join(SYNTH_PRESETS)}")
    p.add_argument("--seed", type=SEED_FLAG, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="pretty-print a run directory's report.json")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(func=cmd_report)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, DataError, LeakageError, UndefinedMetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ShapeError, StateError) as exc:  # the model refused its input
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # e.g. an --out that is a file, or a directory where a file goes
        print(f"path error: {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
