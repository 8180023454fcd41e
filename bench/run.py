"""Benchmark runner: one workload, one process, one op at a time.

    python3 bench/run.py --workload grid-scan --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory.  The workload seed selects the sampling seed the program
receives; the inputs themselves are fixed (see NOTES.md).  Every answer is
checked against `bench/oracle.json`.

With `--trace 0` it repeats whole passes over the workload's ops for about
`--seconds` seconds and reports the end-to-end metrics.  With `--trace 1` it
runs a warm-up pass, then alternates untraced and traced passes, and
reports the per-layer metrics per traced pass together with the tracing
overhead.  Human-readable lines
and a JSON summary (run facts, op count, fail_frac, tail latencies, exact
counts) come first; the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))


def sampling_seed(workload: str, seed: int) -> int:
    """The seed handed to the program, derived from the workload seed."""
    digest = hashlib.sha256(f"neurovar-bench:{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def import_package():
    """Import neurovar from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "neurovar" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'neurovar'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import neurovar

    if Path(neurovar.__file__).resolve().parent != SRC / "neurovar":
        sys.exit(f"error: imported neurovar from {neurovar.__file__}, not from {SRC}")


def run_facts() -> dict:
    """Machine and run facts recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "neurovar").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter importing neurovar and building inputs.

    No timeout: with one, `subprocess` polls the child in sleeps of up to
    50 ms, which quantizes the measurement.
    """
    start = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)],
                   check=True)
    return perf_counter() - start


def percentile_ms(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000.0


def run_passes(wl, seconds: float, host, after_pass):
    """Whole passes until the next one would overrun `seconds` (at least one).

    The host's speed is sampled before the first pass, between ops and after
    every pass.  Returns the passes and, per pass, its wall time outside the
    ops and the samples (scan set-up, report emission) and when it started
    and ended.
    """
    passes, walls, outside, spans = [], [], [], []
    host.sample(force=True)
    while not walls or sum(walls) + walls[-1] <= seconds:
        sampled = len(host.seconds)
        start = perf_counter()
        passes.append(wl.run_pass(pause=host.sample))
        end = perf_counter()
        walls.append(end - start)
        in_ops = sum(op.seconds for op in passes[-1])
        outside.append(end - start - sum(host.seconds[sampled:]) - in_ops)
        spans.append((start, end))
        host.sample(force=True)
        after_pass()
    return passes, outside, spans


def median_pass(passes, outside) -> tuple[dict, float]:
    """Each op's median time over the run's passes, and the median time
    spent outside the ops.

    The host this benchmark was tuned on runs the same code at speeds up
    to 2x apart, for seconds to minutes at a time.  With six or more passes
    a run, per-op medians varied least from run to run of the estimators
    tried (total rate, per-op median, per-op fastest, per-op slowest,
    slowest pass); host-speed scaling removes changes that outlast a run.
    """
    by_key = {}
    for ops in passes:
        for op in ops:
            by_key.setdefault(op.key, []).append(op.seconds)
    return {k: statistics.median(v) for k, v in by_key.items()}, statistics.median(outside)


def end_to_end(wl, args) -> tuple[list, dict, dict]:
    """Untraced passes, with one fresh-interpreter set-up timed after each
    pass (and more after the last, up to SETUP_REPEATS) so that the set-up
    samples spread over the run like the op samples do.

    Op and set-up times are scaled to the reference host speed
    (hostspeed.py); the unscaled `ops_per_s` and `op_ms_p50` go to the
    summary.
    """
    import hostspeed

    host = hostspeed.HostSpeed()
    setups = []

    def time_setup():
        start = perf_counter()
        seconds = setup_seconds(args.workload, args.seed)
        host.sample(force=True)
        setups.append(seconds * host.scale(start, start + seconds))

    passes, outside, spans = run_passes(wl, args.seconds, host, time_setup)
    while len(setups) < SETUP_REPEATS:
        time_setup()

    def scaled(op):
        factor = host.scale(op.start, op.start + op.seconds)
        return dataclasses.replace(op, seconds=op.seconds * factor)

    scaled_passes = [[scaled(op) for op in ops] for ops in passes]
    scaled_outside = [t * host.scale(*span) for t, span in zip(outside, spans)]
    by_key, out = median_pass(scaled_passes, scaled_outside)
    raw_by_key, raw_out = median_pass(passes, outside)
    latencies = [op.seconds for ops in scaled_passes for op in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(by_key) / (sum(by_key.values()) + out),
        "op_ms_p50": statistics.median(by_key.values()) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    extra = {
        "setup_samples": len(setups),
        "unscaled_ops_per_s": len(raw_by_key) / (sum(raw_by_key.values()) + raw_out),
        "unscaled_op_ms_p50": statistics.median(raw_by_key.values()) * 1000.0,
        "host_samples": len(host.seconds),
        "host_kernel_ms_p50": statistics.median(host.seconds) * 1000.0,
    }
    if len(latencies) >= 100:
        extra["op_ms_p90"] = percentile_ms(latencies, 0.90)
    if len(latencies) >= 1000:
        extra["op_ms_p99"] = percentile_ms(latencies, 0.99)
    return passes, metrics, extra


def per_layer(wl, args, out_dir) -> tuple[list, dict, dict]:
    """A warm-up pass, then untraced and traced passes in turn; metrics per
    traced pass.

    The tracer is installed around each traced pass only.  The overhead is
    the median over the pairs of the traced pass's wall time minus that of
    the untraced pass just before it, so that changes in host speed slower
    than a pair cancel out.  The warm-up pass fills the package's caches
    (`network` keeps the coefficient maps of recent architectures), so that
    both passes of every pair find them in the same state.
    """
    import tracing

    tracer = tracing.Tracer()
    start = perf_counter()
    passes, snapshots, pairs = [wl.run_pass()], [], []
    warm_up = perf_counter() - start
    while not pairs or warm_up + sum(map(sum, pairs)) + sum(pairs[-1]) <= args.seconds:
        start = perf_counter()
        passes.append(wl.run_pass())
        untraced = perf_counter() - start
        tracer.install()
        try:
            start = perf_counter()
            passes.append(wl.run_pass(tracer.begin_op))
            traced = perf_counter() - start
        finally:
            tracer.uninstall()
        snapshots.append(tracer.layer_totals())
        pairs.append((untraced, traced))
    tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    per_pass = [{k: v - (snapshots[i - 1][k] if i else 0) for k, v in snap.items()}
                for i, snap in enumerate(snapshots)]
    n = len(snapshots)
    metrics = {k: v // n if isinstance(v, int) and v % n == 0 else v / n
               for k, v in snapshots[-1].items()}
    metrics["scan.rows"] = sum(op.key.startswith("scan:") for op in passes[0])
    useful = metrics.pop("rank.useful_jacobians")
    metrics["rank.useful_jacobian_ratio"] = useful / metrics["rank.jacobians"] if useful else 0.0
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
    extra = {
        "exact_counts": {name: per_pass[0][name] for name in tracing.EXACT_COUNTS},
        "counts_repeat_across_passes": all(
            p[name] == per_pass[0][name] for p in per_pass for name in tracing.EXACT_COUNTS),
        "untraced_pass_s": statistics.median(u for u, _ in pairs),
        "traced_pass_s": statistics.median(t for _, t in pairs),
    }
    return passes, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid-scan", "deep-dims", "exact-lab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("NV_SEED", "NV_THREADS"):
        os.environ.pop(var, None)
    # One core for the run and its set-up children: the host's cores change
    # speed separately, and the host-speed samples measure this one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_package()
    import workloads
    from workloads import BenchError

    seed = sampling_seed(args.workload, args.seed)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](seed, out_dir)
        return 0

    facts = run_facts()
    try:
        oracle = workloads.load_oracle()
        wl = workloads.WORKLOADS[args.workload](seed, out_dir)
        if args.trace == 0:
            passes, metrics, extra = end_to_end(wl, args)
        else:
            passes, metrics, extra = per_layer(wl, args, out_dir)
    except BenchError as exc:
        sys.exit(f"error: {exc}")

    ops = [op for p in passes for op in p + workloads.missing_ops(p, oracle, wl.oracle_prefixes)]
    failures = [(op.key, why) for op in ops if (why := workloads.check(op, oracle))]
    answers = {op.key: op.answer for op in passes[0]}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "sampling_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "ops": len(ops),
        "ops_per_pass": len(passes[0]),
        "fail_frac": len(failures) / len(ops),
        "failures": failures[:20],
        "answers_sha256": hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest(),
        **facts,
        **extra,
    }
    summary["loadavg_end"] = list(os.getloadavg())
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:10s} {'fail_frac':28s} {summary['fail_frac']:>16.6g} ratio"
          f"  ({len(failures)} of {len(ops)} ops)")
    for key in ("op_ms_p90", "op_ms_p99"):
        if key in summary:
            print(f"{args.workload:10s} {key:28s} {summary[key]:>16.6g} ms")
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
