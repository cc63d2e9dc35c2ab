"""gestrec benchmark: one command for every workload.

    python3 perfbench/run.py --workload {recognize,loocv,extract} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from the seed, measures for at least S seconds,
checks every output, prints a readable report and, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones from a traced run (see README.md). Exits 1 when a
check fails and 2 when the gestrec sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def add_source_path() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    src = ROOT / "src"
    if not (src / "gestrec" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def percentile_ms(latencies_s, pct) -> float:
    return float(np.percentile(latencies_s, pct)) * 1e3


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 outdir: Path, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and check one workload; returns the full result.

    `workdir` holds the workload's files; traced runs write their spans
    under `outdir`/traces.
    """
    from tracing import LAYERS, Tracer, layer_metrics
    from workloads import describe_env

    workdir.mkdir(parents=True, exist_ok=True)
    info = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "env": describe_env()}
    if not trace:
        setup_times = []
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        probe = Tracer()
        probe.install(workload.probes)
        try:
            m = workload.measure(state, seconds, workload.min_samples, probe)
        finally:
            probe.uninstall()
        accuracy, errors = workload.check(state, m)
        lat = m.latencies_s
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (m.items / m.wall_s, "1/s"),
            "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
            "latency_tail_ms": (percentile_ms(lat, workload.tail_pct), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info.update(setup_times_s=setup_times, latency_samples=len(lat),
                    tail_percentile=workload.tail_pct)
    else:
        setup_tracer = Tracer()
        setup_tracer.install(LAYERS)
        try:
            state = workload.setup(seed, workdir)
        finally:
            setup_tracer.uninstall()
        # Alternate untraced and traced rounds of the same fixed work, so that
        # drift in machine speed falls on both sides of the overhead figure.
        items = workload.unit_items(state)
        tracer, plain_wall, traced_wall, errors = Tracer(), 0.0, 0.0, []
        attempted = failed = 0
        for _ in range(workload.trace_rounds):
            probe = Tracer()
            probe.install(workload.probes)
            try:
                plain = workload.measure(state, 0, items, probe)
            finally:
                probe.uninstall()
            tracer.install(LAYERS)
            try:
                m = workload.measure(state, 0, items, tracer)
            finally:
                tracer.uninstall()
            if not workload.same_outputs(plain, m):
                errors.append("traced and untraced runs gave different outputs")
            plain_wall += plain.wall_s
            traced_wall += m.wall_s
            attempted += m.attempted
            failed += m.failed
        accuracy, check_errors = workload.check(state, m)
        errors += check_errors
        m.attempted, m.failed = attempted, failed
        metrics = layer_metrics(setup_tracer, tracer)
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - plain_wall) / plain_wall, "%")
        info.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                    trace_rounds=workload.trace_rounds)
        for label, t in (("setup", setup_tracer), ("measure", tracer)):
            t.dump(outdir / "traces" / f"{workload.name}-seed{seed}-{label}.json",
                   {"workload": workload.name, "seed": seed, "phase": label})
    if m.failed:
        errors.append(f"{m.failed} of {m.attempted} operations failed")
    info.update(accuracy=accuracy, error_rate=m.failed / max(m.attempted, 1), errors=errors)
    return {
        "correct": not errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def report(result: dict) -> str:
    info = result["info"]
    lines = [f"workload {info['workload']}  seed {info['seed']}  trace {info['trace']}",
             "env " + json.dumps(info["env"], sort_keys=True)]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if "latency_samples" in info:
        lines.append(f"  latency samples {info['latency_samples']}, "
                     f"tail is p{info['tail_percentile']}")
        lines.append(f"  setup repeats (s) {', '.join(f'{t:.4f}' for t in info['setup_times_s'])}")
    else:
        lines.append(f"  untraced {info['untraced_wall_s']:.4f} s, traced "
                     f"{info['traced_wall_s']:.4f} s for the same work "
                     f"in {info['trace_rounds']} alternating rounds")
    lines.append(f"  {'accuracy':<48} {info['accuracy']:>14.6g} ratio")
    lines.append(f"  {'error_rate':<48} {info['error_rate']:>14.6g} ratio "
                 f"({result['failed']} of {result['attempted']} failed)")
    lines += [f"  CHECK FAILED: {e}" for e in info["errors"]] or ["  all checks passed"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("recognize", "loocv", "extract"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not add_source_path():
        print(f"perfbench: no gestrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    outdir = HERE / "_work"
    workdir = outdir / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                              bool(args.trace), workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = outdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(report(result))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
