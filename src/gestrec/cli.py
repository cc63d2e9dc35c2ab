"""Command-line entry point: synth / extract / train / loocv."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from . import __version__
from .config import load_config
from .dataset import load_sequence, scan_dataset
from .errors import GestrecError
from .evaluation import class_of, render_summary, run_loocv, train_from_config, write_report
from .features import extract_features, feature_filename, load_feature_dir, write_feature_file
from .network import Sample, save_checkpoint
from .synth import builtin_scripts, export_dhg_tree, generate_dataset, parse_scripts


def _report_error(command: str, message) -> None:
    print(f"gestrec {command}: error: {message}", file=sys.stderr)


def _report_skipped(command: str, index) -> bool:
    """Report each skeleton file `scan_dataset` skipped; True if there was one."""
    for path in index.skipped:
        _report_error(command, f"{path}: not in a numbered "
                               "gesture_<g>/finger_<f>/subject_<s>/essai_<t> directory")
    return bool(index.skipped)


def _check_output(path: Path, directory: bool = False) -> None:
    """Refuse, before any work, a file path that is a directory or has no directory
    to go in, or a directory path (made with its parents) that is, or is under, a file."""
    if directory:
        found = next(p for p in (path, *path.parents) if p.exists())
        code = 0 if found.is_dir() else errno.EEXIST if found == path else errno.ENOTDIR
    else:
        found = path if path.is_dir() else path.parent
        code = errno.EISDIR if found == path else 0 if found.is_dir() else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), str(found))


def non_negative_int(text: str) -> int:
    """The `--seed` type: numpy's generators refuse a negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return value


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
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--scripts", type=Path, default=None,
                   help="gesture script config (default: built-in archetypes)")

    p = sub.add_parser("extract", help="extract feature files from a dataset tree")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_arg(p)

    p = sub.add_parser("train", help="train a classifier from extracted features")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--classes", type=int, choices=(14, 28), default=14)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--log", type=Path, default=None,
                   help="epoch log CSV (default: <out>.log.csv)")
    _add_config_arg(p)

    p = sub.add_parser("loocv", help="leave-one-subject-out cross-validation")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--classes", type=int, choices=(14, 28), default=14)
    p.add_argument("--seed", type=non_negative_int, default=0)
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


def cmd_extract(args) -> int:
    config = load_config(args.config)
    index = scan_dataset(args.dataset)
    args.out.mkdir(parents=True, exist_ok=True)
    failed = 0
    skipped = _report_skipped(args.command, index)
    for entry in index.entries:
        # A bad or unreadable sequence is reported and skipped; an OSError on
        # output aborts.
        try:
            streams = extract_features(load_sequence(entry), config)
        except (GestrecError, OSError) as e:
            reason = getattr(e, "strerror", None) or str(e)
            if not reason.startswith(str(entry.path)):
                reason = f"{entry.path}: {reason}"
            _report_error(args.command, reason)
            failed += 1
            continue
        for kind, stream in streams.items():
            name = feature_filename(entry.gesture, entry.finger, entry.subject,
                                    entry.trial, kind)
            write_feature_file(args.out / name, kind, stream,
                               entry.gesture, entry.finger, entry.subject, entry.trial)
    print(f"extracted {len(config.branches)} x {len(index) - failed} feature files to {args.out}")
    return 1 if failed or skipped else 0


def cmd_train(args) -> int:
    log_path = args.log or Path(str(args.out) + ".log.csv")
    if log_path.resolve() == args.out.resolve():
        raise GestrecError(f"--log and --out name the same file: {args.out}")
    _check_output(args.out)
    _check_output(log_path)
    config = load_config(args.config)
    grouped = load_feature_dir(args.features, config.branches)
    samples = [
        Sample(streams, class_of(meta["gesture"], meta["finger"], args.classes))
        for meta, streams in grouped
    ]
    model, log = train_from_config(config, samples, args.classes, args.seed,
                                   record_accuracy=True)
    save_checkpoint(model, args.out)
    rows = ["epoch,loss,train_accuracy,grad_norm_mean,grad_norm_max,clipped_fraction,seconds"]
    rows += [f"{e.epoch},{e.loss:.6f},{e.accuracy:.6f},{e.grad_norm_mean:.6f},"
             f"{e.grad_norm_max:.6f},{e.clipped_fraction:.6f},{e.seconds:.3f}" for e in log]
    log_path.write_text("\n".join(rows) + "\n")
    print(f"trained on {len(samples)} sequences for {len(log)} epochs; "
          f"final train accuracy {log[-1].accuracy:.4f}")
    print(f"checkpoint: {args.out}\nepoch log: {log_path}")
    return 0


def cmd_loocv(args) -> int:
    _check_output(args.out, directory=True)
    config = load_config(args.config)
    index = scan_dataset(args.dataset)
    if _report_skipped(args.command, index):
        return 1
    sequences = [load_sequence(e) for e in index.entries]
    report = run_loocv(sequences, config, classes=args.classes, seed=args.seed,
                       progress=print)
    write_report(report, args.out)
    print()
    print(render_summary(report), end="")
    print(f"report files in {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "extract":
            return cmd_extract(args)
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
