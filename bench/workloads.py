"""The benchmark's workloads: their inputs, their ops and the check on each answer.

Every op returns an answer that is checked against `oracle.json`, which holds
the answers recorded at the commit that defined the benchmark, keyed by input
and not by seed (generic ranks do not depend on the sampling seed).  NOTES.md
gives the reason for each workload.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

from neurovar.domains import RATIONALS
from neurovar.network import gauge_fix, validate

# `neurovar.scan` is shadowed by the `scan` function the package re-exports.
cli, rank, scan, veronese = (
    importlib.import_module(f"neurovar.{name}") for name in ("cli", "rank", "scan", "veronese")
)

BENCH_DIR = Path(__file__).resolve().parent
ORACLE_PATH = BENCH_DIR / "oracle.json"

# Headline values pinned by the test suite (acceptance criteria 1, 2, 3, 10).
HEADLINE = {
    "scan:2,3,2,1/4,3": 8,
    "scan:2,3,2,1/3,3": 7,
    "scan:2,2,2,1/3,3": 5,
    "scan:2,2,2,2/3,3": 6,
}

# grid-scan: the criterion-9 family cut to widths <= 3 and at most 60 ambient
# coordinates (459 rows); the rows this drops belong to deep-dims' regime.
GRID_SPEC = dict(depths=(2, 3), min_width=1, max_width=3, max_out_width=2,
                 min_degree=2, max_degree=4, tries=10, max_free=64, max_ambient=60)

# deep-dims: the n0 = 4, D = 12..16 tail of the criterion-9 grid plus one
# depth-4 net, each run through `neurovar dims` with its default 10 tries.
# Two reach full rank on their first trial; the other three use all ten.
DEEP_DIMS = (
    ((4, 2, 3, 2), (4, 4)),  # 1936 x 13, the tallest Jacobian
    ((4, 1, 4, 2), (3, 4)),  # width-1 bottleneck
    ((4, 2, 3, 1), (3, 4)),  # attains its expected 10 of 11 free weights
    ((4, 3, 4, 1), (3, 4)),  # 20 free weights, full rank
    ((3, 4, 4, 4, 1), (2, 2, 2)),  # depth 4
)

# exact-lab: the --confirm-rational rank, image relations and criterion-8 cells.
LAB_RATIONAL = (
    ((4, 4, 4, 1), (2, 3)),
    ((3, 3, 3, 1), (3, 3)),
    ((4, 4, 2, 1), (2, 2)),
    ((4, 3, 2, 1), (2, 2)),
    ((3, 3, 2, 1), (3, 2)),
    ((3, 3, 3, 2), (2, 2)),
)
LAB_RATIONAL_TRIES = 3
LAB_CHAINS = (
    (3, (2, 2)), (2, (2, 2, 2)), (2, (2, 5)), (2, (6, 2)),
    (2, (7, 2)), (2, (8, 2)), (4, (2, 2)),
)
# The criterion-8 grid without its two largest cells (3 variables, 5 or 6
# cubics), which alone take half of the grid's time.
LAB_POWER_CELLS = tuple((nv, k, s) for nv in (2, 3) for k in range(2, 7) for s in (1, 2, 3)
                        if (nv, k, s) not in ((3, 5, 3), (3, 6, 3)))
POWER_TRIALS = 50


def arch_key(widths, degrees) -> str:
    return ",".join(map(str, widths)) + "/" + ",".join(map(str, degrees))


class BenchError(Exception):
    """The benchmark cannot measure this program (not a wrong answer)."""


@dataclass
class Op:
    key: str
    start: float
    seconds: float
    answer: dict | None = None
    error: str | None = None


def _arch_answer(record: dict) -> dict:
    bound = record["expdim_refined"] if record["expdim_refined"] is not None else record["expdim"]
    return {
        "dim_actual": record["dim_actual"],
        "defective": record["defective"],
        "verdict": record["verdict"],
        "expdim_applicable": bound,
    }


def _no_op(*args) -> None:
    pass


class GridScan:
    """`scan()` over a fixed slice of the criterion-9 family, then the JSON report."""

    name = "grid-scan"
    oracle_prefixes = ("scan:",)

    def __init__(self, seed: int, out_dir: Path):
        prime = rank.auto_prime_field(seed).p
        self.spec = scan.ScanSpec(**GRID_SPEC, seed=seed, prime=prime)
        self.report_path = out_dir / "scan.json"

    def run_pass(self, begin_op=_no_op, pause=_no_op) -> list[Op]:
        # One row starts where scan asks for its verdict and ends where scan
        # asks for the next one (the last row ends when scan returns).
        # `pause` runs between the two and is not part of either row.
        starts, ends = [], []
        inner = scan.theorem_verdict

        def timed_verdict(arch):
            if starts:
                ends.append(perf_counter())
            pause()
            begin_op("scan:" + arch_key(arch.widths, arch.degrees))
            starts.append(perf_counter())
            return inner(arch)

        scan.theorem_verdict = timed_verdict
        try:
            rows = scan.scan(self.spec, workers=1)
            ends.append(perf_counter())
        finally:
            scan.theorem_verdict = inner
        text = scan.emit_report(rows, "json", path=str(self.report_path))
        if len(starts) != len(rows):
            raise BenchError(f"scan asked for {len(starts)} verdicts for {len(rows)} rows; "
                             "the row-latency hook no longer matches scan()")
        ops = []
        for rec, start, end in zip(json.loads(text), starts, ends):
            key = "scan:" + arch_key(rec["arch"], rec["degrees"])
            if rec["dim_actual"] is None:
                ops.append(Op(key, start, end - start, error=str(rec["verdict"])))
            else:
                ops.append(Op(key, start, end - start, _arch_answer(rec)))
        return ops


def _timed_ops(calls, begin_op, pause) -> list[Op]:
    """Run each (key, fn) once, `pause` before each; fn returns the op's answer."""
    ops = []
    for key, fn in calls:
        pause()
        begin_op(key)
        start = perf_counter()
        try:
            answer = fn()
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            ops.append(Op(key, start, perf_counter() - start,
                          error=f"{type(exc).__name__}: {exc}"))
            continue
        ops.append(Op(key, start, perf_counter() - start, answer))
    return ops


def _dims(argv, out: Path) -> dict:
    out.unlink(missing_ok=True)
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dims exited with {code}")
    return _arch_answer(json.loads(out.read_text()))


def _rational_rank(gmap, seed) -> dict:
    return {"rank": rank.generic_rank(gmap, tries=LAB_RATIONAL_TRIES, seed=seed,
                                      domain=RATIONALS)[0]}


def _relations(cv, seed) -> dict:
    return {"kernel_dim": len(veronese.image_linear_relations(cv, seed=seed))}


def _power_cell(nvars, count, form_degree, seed) -> dict:
    report = veronese.power_threshold_scan(nvars, count, form_degree,
                                           trials=POWER_TRIALS, seed=seed)
    return {"independent": report.independent}


class DeepDims:
    """`neurovar dims --json --out` in-process on large architectures."""

    name = "deep-dims"
    oracle_prefixes = ("dims:",)

    def __init__(self, seed: int, out_dir: Path):
        out = out_dir / "dims.json"
        self.calls = []
        for widths, degrees in DEEP_DIMS:
            validate(widths, degrees)
            argv = ["dims", "-n", ",".join(map(str, widths)), "-d", ",".join(map(str, degrees)),
                    "--seed", str(seed), "--json", "--out", str(out)]
            self.calls.append(("dims:" + arch_key(widths, degrees), partial(_dims, argv, out)))

    def run_pass(self, begin_op=_no_op, pause=_no_op) -> list[Op]:
        return _timed_ops(self.calls, begin_op, pause)


class ExactLab:
    """Rational ranks (Bareiss), image relations (nullspace) and power cells."""

    name = "exact-lab"
    oracle_prefixes = ("rational:", "relations:", "power:")

    def __init__(self, seed: int, out_dir: Path):
        self.calls = [("rational:" + arch_key(w, d),
                       partial(_rational_rank, gauge_fix(validate(w, d)), seed))
                      for w, d in LAB_RATIONAL]
        self.calls += [(f"relations:{n}/" + ",".join(map(str, ds)),
                        partial(_relations, veronese.composite_veronese(n, ds), seed))
                       for n, ds in LAB_CHAINS]
        self.calls += [(f"power:{nv}/{k}/{s}", partial(_power_cell, nv, k, s, seed))
                       for nv, k, s in LAB_POWER_CELLS]

    def run_pass(self, begin_op=_no_op, pause=_no_op) -> list[Op]:
        return _timed_ops(self.calls, begin_op, pause)


WORKLOADS = {w.name: w for w in (GridScan, DeepDims, ExactLab)}


def load_oracle() -> dict:
    oracle = json.loads(ORACLE_PATH.read_text())
    for key, dim in HEADLINE.items():
        if oracle.get(key, {}).get("dim_actual") != dim:
            raise BenchError(f"oracle.json does not pin {key} at dimension {dim}")
    return oracle


def missing_ops(ops: list[Op], oracle: dict, prefixes) -> list[Op]:
    """A failed op for every recorded input of the workload that a pass did
    not answer, so that a pass which shrinks its own input list fails."""
    seen = {op.key for op in ops}
    return [Op(key, 0.0, 0.0, error="recorded input missing from the pass")
            for key in oracle if key.startswith(prefixes) and key not in seen]


def check(op: Op, oracle: dict) -> str | None:
    """Why the op's answer is wrong, or None when it is right."""
    if op.error is not None:
        return op.error
    want = oracle.get(op.key)
    if want is None:
        return "no recorded answer for this input"
    if op.answer != want:
        return f"answer {op.answer} != recorded {want}"
    if "dim_actual" in op.answer and op.answer["dim_actual"] > op.answer["expdim_applicable"]:
        return "dim_actual exceeds the proven upper bound expdim_applicable"
    return None
