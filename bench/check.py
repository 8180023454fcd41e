"""Repeatability checks for the benchmark itself.

    python3 bench/check.py seeds
    python3 bench/check.py spread

`seeds` runs every workload traced at seed 1 twice and at seed 2 once.  The answers must match on all three runs; the exact counts must
repeat between the two same-seed runs, and `rank.jacobians` across seeds
(generic rank does not depend on the seed).  Only timings may differ.

`spread` runs every workload untraced at seeds 1 to 10 and reports, for each
end-to-end metric, the distance between the first and third quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json.  A spread
above its bound is flagged (setup_s is reported but not flagged: its bound
limits the change of its median, not its spread).

Every run lasts BENCHMARK.json's run_seconds.
Both exit 1 when a check fails.  Raw results go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
JACOBIANS_ACROSS_SEEDS = "rank.jacobians"
TWO_SEEDS = (1, 2)
SPREAD_SEEDS = range(1, 11)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (summary, result)."""
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def check_seeds() -> int:
    first, second = TWO_SEEDS
    problems = []
    record = {}
    for wl in WORKLOADS:
        a1, r1 = run(wl, first, 1)
        a2, _ = run(wl, first, 1)
        b, _ = run(wl, second, 1)
        record[wl] = [a1, a2, b]
        for s in (a1, a2, b):
            if s["fail_frac"]:
                problems.append(f"{wl} seed {s['seed']}: failures {s['failures']}")
        if len({s["answers_sha256"] for s in (a1, a2, b)}) != 1:
            problems.append(f"{wl}: answers differ between runs")
        if a1["exact_counts"] != a2["exact_counts"]:
            problems.append(f"{wl}: counts drift at seed {first}: "
                            f"{a1['exact_counts']} vs {a2['exact_counts']}")
        for s in (a1, a2, b):
            if not s["counts_repeat_across_passes"]:
                problems.append(f"{wl} seed {s['seed']}: counts drift between passes")
        if a1["exact_counts"][JACOBIANS_ACROSS_SEEDS] != b["exact_counts"][JACOBIANS_ACROSS_SEEDS]:
            problems.append(f"{wl}: {JACOBIANS_ACROSS_SEEDS} differs across seeds "
                            f"{first} and {second}")
        print(f"{wl:10s} answers {a1['answers_sha256'][:12]}  counts {a1['exact_counts']}  "
              f"overhead {r1['metrics']['trace.overhead_s']['value']:.3f} s/pass")
    (BENCH_DIR / "out" / "check-seeds.json").write_text(json.dumps(record, indent=1))
    for p in problems:
        print("DRIFT:", p)
    print("two-seed check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def check_spread() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    flagged = False
    raw = {}
    for wl in WORKLOADS:
        values = {name: [] for name in bounds}
        for seed in SPREAD_SEEDS:
            summary, result = run(wl, seed, 0)
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect: {summary['failures']}")
                flagged = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[wl] = values
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "ok" if spread <= bounds[name] or name == "setup_s" else "WIDE"
            flagged |= mark == "WIDE"
            print(f"{wl:10s} {name:12s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  {mark}")
    (BENCH_DIR / "out" / "check-spread.json").write_text(json.dumps(raw, indent=1))
    return 1 if flagged else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("seeds", "spread"))
    args = parser.parse_args()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    return check_seeds() if args.mode == "seeds" else check_spread()


if __name__ == "__main__":
    sys.exit(main())
