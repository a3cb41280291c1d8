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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, blas
from .data import (
    SYNTH_PRESETS,
    FeatureFrame,
    PreprocessStats,
    SchemaConfig,
    Splits,
    SplitSpec,
    apply_preprocess,
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
from .importance import permutation_importance
from .metrics import auc, evaluate_scores
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .records import check_arg, config_from_dict, make_record, read_json_object, record_to_dict
from .training import (
    FIT_THREADS,
    TrainConfig,
    ablate,
    bce_loss,
    predict_probs,
    stable_hash,
    sweep_lr,
    sweep_optimizer,
    train,
    write_curves_csv,
)

DATA_DIR_ENV = "CREDITNET_DATA_DIR"
DEFAULT_DATA_FILE = "cs-training.csv"
DEFAULT_LR_GRID = (0.005, 0.003, 0.002, 0.001)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def seed_arg(text: str) -> int:
    """``--seed``: an integer >= 0, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

# records for the config file's top level and its data and winsorize sections,
# named for config_from_dict's messages; load_csv checks subsample itself
ConfigFile = make_record("config", [(name, Optional[dict], None) for name in (
    "model", "train", "schema", "split", "winsorize", "data")])
DataSection = make_record("data", [("subsample", object, None), ("subsample_seed", int, 0)])
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


def load_frame(path: Path, cfg: dict):
    """Load a CSV with the config's schema; without feature columns, every
    named non-label header column is a feature."""
    if not Path(path).is_file():
        raise DataError(f"no such data file: {path}")
    data = config_from_dict(DataSection, cfg.get("data") or {})
    section = {"label_column": "label", **(cfg.get("schema") or {})}
    if not section.get("feature_columns"):
        label = section["label_column"]
        section["feature_columns"] = [c for c in read_header(path) if c and c != label]
    schema = SchemaConfig.from_dict(section)
    frame = load_csv(path, schema, subsample=data.subsample, seed=data.subsample_seed)
    return frame, schema


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


def prepare_out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def check_outputs(out: Path, names: tuple[str, ...]) -> None:
    """Raise now, before training, the ``OSError`` that writing ``out/name``
    would raise later: a directory in the file's place, or no write access."""
    for name in names:
        path = out / name
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not os.access(path if path.exists() else out, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


# ---------------------------------------------------------------------------
# the two command skeletons: train from a CSV, or score a checkpoint on one
# ---------------------------------------------------------------------------

class TrainingInputs(NamedTuple):
    t0: float
    cfg: dict
    out: Path
    data_path: Path
    schema: SchemaConfig
    split_spec: SplitSpec
    splits: Splits
    pre_stats: PreprocessStats
    model_cfg: ModelConfig
    train_cfg: TrainConfig


def training_inputs(args) -> TrainingInputs:
    """Config, out dir, prepared splits and seeded model/train configs."""
    t0 = time.perf_counter()
    cfg = read_config_file(args.config)
    out = prepare_out_dir(args)
    data_path = resolve_data_path(args)
    frame, schema = load_frame(data_path, cfg)
    split_spec = config_from_dict(SplitSpec, seeded_section(cfg, "split", args.seed))
    splits, pre_stats = prepare_splits(frame, schema, split_spec, winsor_quantiles(cfg))
    model_cfg = ModelConfig.from_dict({**seeded_section(cfg, "model", args.seed),
                                       "n_features": frame.n_features})
    train_cfg = TrainConfig.from_dict(seeded_section(cfg, "train", args.seed))
    return TrainingInputs(t0, cfg, out, data_path, schema, split_spec, splits,
                          pre_stats, model_cfg, train_cfg)


def checkpoint_inputs(args) -> tuple[float, Path, Model, Path, SchemaConfig, FeatureFrame]:
    """Checkpoint model plus the CSV pushed through its preprocessing; the
    checkpoint's schema applies unless the config names feature columns."""
    t0 = time.perf_counter()
    cfg = read_config_file(args.config)
    out = prepare_out_dir(args)
    model, header = load_checkpoint(args.checkpoint)
    if header["preprocess"] is None:
        raise ConfigError(f"checkpoint {args.checkpoint} lacks preprocessing statistics")
    schema_dict = header["extra"].get("schema")
    check_arg(f"checkpoint {args.checkpoint} extra key 'schema'", schema_dict, Optional[dict])
    if schema_dict and not (cfg.get("schema") or {}).get("feature_columns"):
        cfg = {**cfg, "schema": schema_dict}
    stats = PreprocessStats.from_dict(header["preprocess"])
    n_stats = len(stats.standardize.mean)  # apply_preprocess checks the others against it
    if n_stats != model.config.n_features:
        raise ConfigError(f"checkpoint {args.checkpoint} preprocessing statistics cover "
                          f"{n_stats} features, its model expects {model.config.n_features}")
    data_path = resolve_data_path(args)
    frame, schema = load_frame(data_path, cfg)
    return t0, out, model, data_path, schema, apply_preprocess(frame, stats)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    inputs = training_inputs(args)
    check_outputs(inputs.out, ("report.json", "curves.csv", "checkpoint.bin", "manifest.json"))
    model, report = train(inputs.model_cfg, inputs.train_cfg, inputs.splits)

    write_json(inputs.out / "report.json", {"kind": "train", **report.to_dict()})
    write_curves_csv(report, inputs.out / "curves.csv")
    save_checkpoint(inputs.out / "checkpoint.bin", model,
                    preprocess=inputs.pre_stats.to_dict(),
                    extra={"schema": inputs.schema.to_dict()})
    resolved = {
        "model": inputs.model_cfg.to_dict(),
        "train": inputs.train_cfg.to_dict(),
        "schema": inputs.schema.to_dict(),
        "split": record_to_dict(inputs.split_spec),
        "winsorize": inputs.cfg.get("winsorize"),
        "data": inputs.cfg.get("data") or {},
    }
    write_manifest(inputs.out, "train", args, resolved, inputs.data_path, inputs.t0)
    test = report.final["test"]
    print(f"train: done in {report.epochs_run} epochs; "
          f"test acc={test.acc:.4f} auc={test.auc:.4f} ks={test.ks:.4f}")
    return EXIT_OK


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}") from None
    if not values:
        raise UsageError(f"empty {what} list")
    return values


def _lr_rows(args, model_cfg, train_cfg, splits):
    lrs = _parse_float_list(args.lrs, "learning-rate")
    return sweep_lr(model_cfg, train_cfg, lrs, splits), {"lrs": lrs}


def _opt_rows(args, model_cfg, train_cfg, splits):
    lrs = _parse_float_list(args.lrs, "learning-rate")
    optimizers = [tok.strip() for tok in args.optimizers.split(",") if tok.strip()]
    rows = sweep_optimizer(model_cfg, train_cfg, lrs, splits, optimizers)
    return rows, {"lrs": lrs, "optimizers": optimizers}


def _ablate_rows(args, model_cfg, train_cfg, splits):
    return ablate(model_cfg, train_cfg, splits), {}


# command -> runner returning (rows, extra manifest fields)
ROW_COMMANDS = {"sweep-lr": _lr_rows, "sweep-opt": _opt_rows, "ablate": _ablate_rows}


def cmd_rows(args) -> int:
    """sweep-lr, sweep-opt and ablate: one training run per report row."""
    inputs = training_inputs(args)
    check_outputs(inputs.out, ("report.json", "manifest.json"))
    rows, extra = ROW_COMMANDS[args.command](args, inputs.model_cfg,
                                             inputs.train_cfg, inputs.splits)
    write_json(inputs.out / "report.json", {"kind": args.command, "rows": rows})
    write_manifest(inputs.out, args.command, args,
                   {"model": inputs.model_cfg.to_dict(),
                    "train": inputs.train_cfg.to_dict(), **extra},
                   inputs.data_path, inputs.t0)
    for row in rows:
        print(_row_line(row))
    return EXIT_OK


def cmd_eval(args) -> int:
    t0, out, model, data_path, schema, prepared = checkpoint_inputs(args)
    probs = predict_probs(model, prepared.X)
    loss, _ = bce_loss(probs, prepared.y)
    metrics = evaluate_scores(probs, prepared.y)
    write_json(out / "report.json", {
        "kind": "eval",
        "checkpoint": str(args.checkpoint),
        "n_rows": prepared.n_rows,
        "loss": loss,
        "metrics": metrics.to_dict(),
    })
    write_manifest(out, "eval", args, {"model": model.config.to_dict(),
                                       "schema": schema.to_dict()}, data_path, t0)
    print(f"eval: n={prepared.n_rows} acc={metrics.acc:.4f} "
          f"auc={metrics.auc:.4f} ks={metrics.ks:.4f}")
    return EXIT_OK


def cmd_importance(args) -> int:
    t0, out, model, data_path, _, prepared = checkpoint_inputs(args)
    report = permutation_importance(model, prepared, metric=args.metric,
                                    repeats=args.repeats,
                                    seed=0 if args.seed is None else args.seed)
    (out / "importance.csv").write_text(report.to_csv(), encoding="utf-8")
    write_json(out / "report.json", {"kind": "importance", **report.to_dict()})
    write_manifest(out, "importance", args, {"model": model.config.to_dict(),
                                             "metric": args.metric,
                                             "repeats": args.repeats},
                   data_path, t0)
    top = report.features[0]
    print(f"importance: baseline {report.metric}={report.baseline:.4f}; "
          f"top feature {top.feature} (drop {top.mean_drop:.4f})")
    return EXIT_OK


def cmd_synth(args) -> int:
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
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
    write_json(Path(str(out_path) + ".meta.json"), meta)
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
    elif kind in ROW_COMMANDS:
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

    def common(p, data=True):
        p.add_argument("--config", help="merged JSON config file")
        if data:
            p.add_argument("--data", help=f"CSV path (default: ${DATA_DIR_ENV}/"
                                          f"{DEFAULT_DATA_FILE})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=seed_arg, default=None,
                       help="override every seed in the run")

    p = sub.add_parser("train", help="train one model")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-lr", help="learning-rate sensitivity table")
    common(p)
    p.add_argument("--lrs", default=",".join(str(x) for x in DEFAULT_LR_GRID))
    p.set_defaults(func=cmd_rows)

    p = sub.add_parser("sweep-opt", help="optimizer x learning-rate grid")
    common(p)
    p.add_argument("--lrs", default=",".join(str(x) for x in DEFAULT_LR_GRID))
    p.add_argument("--optimizers", default="sgd,adam")
    p.set_defaults(func=cmd_rows)

    p = sub.add_parser("ablate", help="cnn_only / transformer_only / hybrid table")
    common(p)
    p.set_defaults(func=cmd_rows)

    p = sub.add_parser("importance", help="permutation feature importance")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metric", default="auc", choices=("auc", "accuracy"))
    p.add_argument("--repeats", type=int, default=5)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("synth", help="generate a synthetic CSV with known Bayes score")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-features", type=int, default=10)
    p.add_argument("--spec", default="strong-single",
                   help=f"one of {', '.join(SYNTH_PRESETS)}")
    p.add_argument("--seed", type=seed_arg, default=None)
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
