"""Command-line entry point: pretrain | adapt | sweep | report.

All randomness flows from a single seed; sweep entry i derives its seed
as splitmix64(seed, 1000 + i) unless it sets one. The COCA_OUT_DIR
environment variable overrides the default output root.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import harness, models
from .harness import RunConfig, run, sweep_points

class ConfigError(ValueError):
    pass


def validate_config(doc: dict) -> RunConfig:
    """The RunConfig that ``doc`` describes; its schema is the dataclass fields."""
    try:
        return RunConfig.from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def read_json(path: str):
    """The JSON document at ``path``; a key repeated in one object raises ConfigError."""
    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"invalid config: {path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    with open(path, "r", encoding="utf-8") as f:
        return json.load(f, object_pairs_hook=unique_keys)


def load_config(path: str, seed_override=None) -> RunConfig:
    cfg = validate_config(read_json(path))
    if seed_override is not None:
        cfg = replace(cfg, seed=int(seed_override))
    return cfg


def _out_dir(arg) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get("COCA_OUT_DIR", "."))


def _write_run(report, out: Path) -> None:
    """A run's outputs: report.json and metrics.csv in ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    (out / "metrics.csv").write_text(report.metrics_csv())


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _out_dir(args.out)
    pretrained, logs = harness.pretrain_models(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for i, model in enumerate(pretrained):
        models.save_checkpoint(model, str(out / f"model_{i}.ckpt"))
    (out / "training_log.json").write_text(
        json.dumps({"schema": 1, "config": cfg.to_dict(), "logs": logs},
                   sort_keys=True, indent=2) + "\n")
    print(f"wrote {len(pretrained)} checkpoint(s) to {out}")
    return 0


def cmd_adapt(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = _out_dir(args.out)
    loaded = None
    if args.checkpoints:
        loaded = []
        for i in range(len(cfg.models)):
            path = Path(args.checkpoints) / f"model_{i}.ckpt"
            if not path.exists():
                raise FileNotFoundError(f"missing checkpoint: {path}")
            loaded.append(models.load_checkpoint(str(path)))
    t0 = time.perf_counter()
    _write_run(run(cfg, models=loaded), out)
    (out / "timing.txt").write_text(f"{time.perf_counter() - t0:.3f}\n")
    print(f"wrote report.json and metrics.csv to {out}")
    return 0


_SUMMARY_COLUMNS = ("acc_anchor", "acc_aux", "acc_combined", "tau_final")


def _sweep_one(cfg_dict: dict, point: dict, index: int, out_dir: str) -> str:
    """Run sweep point ``index`` into run_XXX/; return its summary.csv line."""
    cfg = harness.point_config(RunConfig.from_dict(cfg_dict), point, index)
    report = run(cfg)
    name = f"run_{index:03d}"
    _write_run(report, Path(out_dir) / name)
    quoted = '"' + json.dumps(point, sort_keys=True).replace('"', '""') + '"'
    return ",".join([name, quoted] + [harness.fmt_number(getattr(report, c))
                                      for c in _SUMMARY_COLUMNS])


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    cfg = load_config(args.config, args.seed)
    grid = read_json(args.grid)
    try:  # reject a malformed grid or an invalid point before any run starts
        points = sweep_points(grid)
        for i, p in enumerate(points):
            harness.point_config(cfg, p, i)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    out = _out_dir(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_dict = cfg.to_dict()
    # every point's seed comes from its index, so the worker count never
    # changes results
    jobs = [(cfg_dict, p, i, str(out)) for i, p in enumerate(points)]
    lines = harness.parallel_map(_sweep_one, jobs, args.parallel)
    header = "run,point," + ",".join(_SUMMARY_COLUMNS)
    (out / "summary.csv").write_text("\n".join([header] + lines) + "\n")
    print(f"wrote {len(points)} run(s) and summary.csv to {out}")
    return 0


_PLOT_COLUMNS = ("acc_anchor", "acc_aux", "acc_combined", "tau", "L_total")


def cmd_report(args) -> int:
    root = Path(args.in_dir)
    metrics_files = sorted(root.rglob("metrics.csv"))
    if not metrics_files:
        raise FileNotFoundError(f"no metrics.csv found under {root}")
    out_lines = ["series,x,y"]
    for path in metrics_files:
        name = path.parent.relative_to(root).as_posix()
        name = name if name != "." else path.parent.name
        with open(path, newline="", encoding="utf-8") as f:
            rows = csv.DictReader(f)
            if rows.fieldnames != harness.CSV_HEADER.split(","):
                raise ValueError(f"{path}: header is not {harness.CSV_HEADER!r}")
            for row in rows:
                if None in row or None in row.values():   # too many or too few fields
                    raise ValueError(f"{path}: line {rows.line_num} does not have the "
                                     f"header's {len(rows.fieldnames)} fields")
                for col in _PLOT_COLUMNS:
                    if row[col] != "NA":
                        out_lines.append(f"{name}/{col},{row['batch']},{row[col]}")
    out_path = Path(args.plot_data)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(out_lines) + "\n")
    print(f"wrote plot data for {len(metrics_files)} run(s) to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pretrain source models and save checkpoints")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("adapt", help="run one adaptation stream")
    p.add_argument("config")
    p.add_argument("--checkpoints", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("sweep", help="Cartesian-product sweep over config overrides")
    p.add_argument("config")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate run outputs into plot-ready series")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--plot-data", dest="plot_data", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
