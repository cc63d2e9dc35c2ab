"""Command-line entry point: synth / extract / train / loocv."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import load_config
from .dataset import load_sequence, scan_dataset
from .errors import GestrecError
from .evaluation import class_of, render_summary, run_loocv, train_from_config, write_report
from .features import (
    FEATURE_KINDS,
    extract_features,
    feature_filename,
    load_feature_dir,
    write_feature_file,
)
from .network import Sample, save_checkpoint
from .synth import builtin_scripts, export_dhg_tree, generate_dataset, parse_scripts


def _report_error(command: str, message) -> None:
    print(f"gestrec {command}: error: {message}", file=sys.stderr)


def _add_config_arg(parser):
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value overrides for pipeline defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gestrec",
        description="Skeleton-based dynamic hand gesture recognition pipeline")
    parser.add_argument("--version", action="version", version=f"gestrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic DHG-format dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scripts", type=Path, default=None,
                   help="gesture script config (default: built-in archetypes)")

    p = sub.add_parser("extract", help="extract feature files from a dataset tree")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--features", default=",".join(FEATURE_KINDS),
                   help="comma-separated subset of: global,finger,skeleton")
    _add_config_arg(p)

    p = sub.add_parser("train", help="train a classifier from extracted features")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--classes", type=int, choices=(14, 28), default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--log", type=Path, default=None,
                   help="epoch log CSV (default: <out>.log.csv)")
    _add_config_arg(p)

    p = sub.add_parser("loocv", help="leave-one-subject-out cross-validation")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--classes", type=int, choices=(14, 28), default=14)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    _add_config_arg(p)
    return parser


def cmd_synth(args) -> int:
    scripts = parse_scripts(args.scripts) if args.scripts else builtin_scripts()
    sequences = generate_dataset(scripts, args.subjects, args.trials, args.seed)
    export_dhg_tree(sequences, args.out)
    print(f"wrote {len(sequences)} sequences "
          f"({len(scripts)} scripts x {args.subjects} subjects x {args.trials} trials) "
          f"to {args.out}")
    return 0


def cmd_extract(args, parser) -> int:
    kinds = tuple(k.strip() for k in args.features.split(",") if k.strip())
    for kind in kinds:
        if kind not in FEATURE_KINDS:
            parser.error(f"unknown feature kind: {kind!r} (choose from {FEATURE_KINDS})")
    if not kinds or len(set(kinds)) < len(kinds):
        parser.error(f"--features must name each kind once: {args.features!r}")
    config = load_config(args.config)
    index = scan_dataset(args.dataset)
    args.out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for entry in index.entries:
        # A bad or unreadable sequence is reported and skipped; an OSError on
        # output aborts.
        try:
            streams = extract_features(load_sequence(entry), config, kinds=kinds)
        except (GestrecError, OSError) as e:
            reason = getattr(e, "strerror", None) or str(e)
            if not reason.startswith(str(entry.path)):
                reason = f"{entry.path}: {reason}"
            _report_error(args.command, reason)
            failed += 1
            continue
        for kind in kinds:
            name = feature_filename(entry.gesture, entry.finger, entry.subject,
                                    entry.trial, kind)
            write_feature_file(args.out / name, kind, streams[kind],
                               entry.gesture, entry.finger, entry.subject, entry.trial)
    print(f"extracted {len(kinds)} x {len(index) - failed} feature files to {args.out}")
    return 1 if failed else 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    grouped = load_feature_dir(args.features, kinds=config.branches)
    samples = [
        Sample(streams, class_of(meta["gesture"], meta["finger"], args.classes))
        for meta, streams in grouped
    ]
    model, log = train_from_config(config, samples, args.classes, args.seed,
                                   record_accuracy=True)
    save_checkpoint(model, args.out)
    log_path = args.log or Path(str(args.out) + ".log.csv")
    rows = ["epoch,loss,train_accuracy,grad_norm_mean,grad_norm_max,clipped_fraction,seconds"]
    rows += [f"{e.epoch},{e.loss:.6f},{e.accuracy:.6f},{e.grad_norm_mean:.6f},"
             f"{e.grad_norm_max:.6f},{e.clipped_fraction:.6f},{e.seconds:.3f}" for e in log]
    log_path.write_text("\n".join(rows) + "\n")
    print(f"trained on {len(samples)} sequences for {len(log)} epochs; "
          f"final train accuracy {log[-1].accuracy:.4f}")
    print(f"checkpoint: {args.out}\nepoch log: {log_path}")
    return 0


def cmd_loocv(args) -> int:
    config = load_config(args.config)
    index = scan_dataset(args.dataset)
    sequences = [load_sequence(e) for e in index.entries]
    report = run_loocv(sequences, config, classes=args.classes, seed=args.seed,
                       progress=print)
    write_report(report, args.out)
    print()
    print(render_summary(report), end="")
    print(f"report files in {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "extract":
            return cmd_extract(args, parser)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "loocv":
            return cmd_loocv(args)
    except (GestrecError, OSError) as e:
        _report_error(args.command, e)
        return 1
    raise AssertionError("unreachable")


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
