"""Record the reference answers in bench/oracle.json.

    python3 bench/make_oracle.py

Runs one pass of every workload at two sampling seeds and keeps an answer
only when both seeds agree, the op raised nothing, the sampled dimension
stays within its proven upper bound, every rational rank equals the
prime-field rank of the same architecture, and the test suite's headline
dimensions come out as pinned.  Run it only on a commit whose answers are
trusted: every later run is checked against what it writes.
"""

from __future__ import annotations

import json
import sys

import run

ORACLE_SEEDS = (1729, 4242)


def main() -> int:
    run.import_package()
    import workloads
    from neurovar.network import validate
    from neurovar.rank import neurovariety_stats

    out_dir = run.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    oracle, problems = {}, []
    for name, cls in workloads.WORKLOADS.items():
        per_seed = []
        for seed in ORACLE_SEEDS:
            ops = cls(seed, out_dir).run_pass()
            problems += [f"{op.key}: {op.error}" for op in ops if op.error]
            per_seed.append({op.key: op.answer for op in ops})
            print(f"{name} seed {seed}: {len(ops)} ops, {sum(o.seconds for o in ops):.1f} s",
                  file=sys.stderr)
        first, second = per_seed
        problems += [f"{k}: seed answers differ {first[k]} vs {second.get(k)}"
                     for k in first if first[k] != second.get(k)]
        oracle.update(first)

    for key, answer in oracle.items():
        if answer and "dim_actual" in answer and answer["dim_actual"] > answer["expdim_applicable"]:
            problems.append(f"{key}: dim_actual above expdim_applicable")
    for widths, degrees in workloads.LAB_RATIONAL:
        key = workloads.arch_key(widths, degrees)
        prime_rank = neurovariety_stats(validate(widths, degrees), seed=ORACLE_SEEDS[0]).dim_actual
        if oracle["rational:" + key] != {"rank": prime_rank}:
            problems.append(f"rational:{key}: rank differs from prime-field rank {prime_rank}")
    for key, dim in workloads.HEADLINE.items():
        if oracle.get(key, {}).get("dim_actual") != dim:
            problems.append(f"{key}: headline dimension is not {dim}")

    if problems:
        print("not written:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(oracle)} answers to {workloads.ORACLE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
