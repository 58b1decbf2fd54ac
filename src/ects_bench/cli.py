"""Command-line entry point.

Subcommands:
  prepare  convert a train/test file pair into a dataset directory with a
           manifest, optionally z-normalizing and/or imbalancing
  screen   run the information-gain dataset screen against a manifest
  run      execute a benchmark config and write all reports
  report   recompute derived reports from an existing results directory

Each subcommand imports the modules it runs when it runs, so `--help` loads
no numpy and `report` loads no fitting or ingestion code.

Exit codes: 0 success, 1 config error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, DataError, NumericError


def _cmd_prepare(args) -> int:
    from . import data

    dataset = data.load_dataset(args.train, args.test, args.name or "")
    if args.znorm:
        dataset = data.znormalize_dataset(dataset)
    if args.imbalance is not None:
        labels = dataset.train.labels.tolist()
        minority = min(set(labels), key=labels.count)
        dataset = data.make_imbalanced(dataset, minority, args.imbalance, args.seed)
    manifest = data.save_dataset(dataset, args.out)
    print(f"wrote {os.path.join(args.out, manifest['train_file'])} ({len(dataset.train)} series), "
          f"{os.path.join(args.out, manifest['test_file'])} ({len(dataset.test)} series), "
          f"K={dataset.num_classes}")
    return 0


def _cmd_screen(args) -> int:
    from . import classify, data

    dataset = data.load_manifest(args.manifest)
    gain_half, gain_full, accepted = classify.information_gain_screen(dataset, seed=args.seed)
    print(f"auc_gain_half={gain_half:.4f} auc_gain_full={gain_full:.4f} "
          f"accepted={'yes' if accepted else 'no'}")
    return 0


def _cmd_run(args) -> int:
    from . import bench, report

    config = bench.parse_config(args.config)
    report.check_output_dir(config.output_dir)
    bundle = bench.run_benchmark(config)
    written = report.write_reports(bundle, config.output_dir, emit_svg=args.svg)
    for path in written:
        print(path)
    for name, reason in bundle.skipped:
        print(f"skipped {name}: {reason}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from . import report

    timelines = report.load_timelines_json(os.path.join(args.results, "timelines.json"))
    # The bundle holds the only reference to the records while the reports are written.
    bundle = report.bundle_from_records(
        report.load_records_csv(os.path.join(args.results, "records.csv"), timelines), timelines)
    for path in report.write_reports(bundle, args.out, emit_svg=args.svg):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ects-bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest and preprocess a dataset")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="")
    p.add_argument("--znorm", action="store_true")
    p.add_argument("--imbalance", type=float, default=None, metavar="FRACTION")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("screen", help="information-gain dataset screen")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("run", help="run a benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="recompute reports from raw records")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "imbalance", None) is not None and not 0.0 < args.imbalance < 1.0:  # NaN fails too
            raise ConfigError(f"--imbalance must be in (0, 1), got {args.imbalance}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
