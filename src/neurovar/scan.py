"""Grid scans over bounded architecture families and report serialization.

A scan enumerates every architecture inside the requested bounds (sorted by
depth, widths, degrees), runs the dimension sampler and the theorem verdict
on each, and flags disagreements between prediction and sampling.  Reports
serialize to JSON or CSV with a fixed column set; all values are exact
(integers, strings, booleans), primes are decimal strings, and re-running a
scan with the same spec and seed reproduces every row.
"""

import io
import json
import os
import time
from itertools import product
from typing import NamedTuple

from . import poly
from .errors import NeurovarError
from .network import Architecture, validate
from .rank import (DEFAULT_SEED, DEFAULT_TRIES, DimReport, neurovariety_stats, resolve_domain,
                   sampling_steps)
from .theory import (
    LAST_VERONESE_DEFECTIVE,
    PREDICTED_IDENTIFIABLE,
    PREDICTED_NON_DEFECTIVE,
    Verdict,
    necessity_scope,
    theorem_verdict,
)

REPORT_KEYS = (
    "arch",
    "degrees",
    "expdim",
    "expdim_refined",
    "dim_actual",
    "fiber_dim",
    "defective",
    "verdict",
    "trials",
    "seed",
    "domain",
    "prime",
    "pivot",
    "wall_ms",
)


class ScanSpec(NamedTuple):
    """Bounds and sampling parameters for an exhaustive scan.

    Architectures with more free weights than `max_free`, more ambient
    coordinates than `max_ambient` or sampling work past `poly.WORK_CAP` are
    skipped before any sampling; the defaults keep a full small-architecture
    sweep within minutes while covering every worked example.  A spec is an
    immutable `NamedTuple`: read the defaults off `ScanSpec()`, since the
    class attributes are the field getters.
    """

    depths: tuple[int, ...] = (2, 3)
    min_width: int = 1
    max_width: int = 4
    max_out_width: int = 2
    min_degree: int = 2
    max_degree: int = 4
    tries: int = DEFAULT_TRIES
    seed: int = DEFAULT_SEED
    field: str = "prime"
    prime: int | None = None
    max_free: int = 64
    max_ambient: int = 20_000

    def validate_bounds(self) -> None:
        if self.min_width < 1 or self.max_width < self.min_width:
            raise ValueError("width bounds must satisfy 1 <= min <= max")
        if self.min_degree < 2 or self.max_degree < self.min_degree:
            raise ValueError("degree bounds must satisfy 2 <= min <= max")
        if not self.depths:
            raise ValueError("depths must list at least one depth")
        if any(L < 2 for L in self.depths):
            raise ValueError("scans cover depths L >= 2")
        if self.max_out_width < 1:
            raise ValueError("max_out_width must be >= 1")
        if self.max_free < 0:
            raise ValueError(f"max_free must be >= 0, got {self.max_free}")
        if self.max_ambient < 1:
            raise ValueError(f"max_ambient must be >= 1, got {self.max_ambient}")
        if self.field not in ("prime", "rational"):
            raise ValueError("field must be 'prime' or 'rational'")


class ScanRow(NamedTuple):
    """One architecture's scan outcome.

    `agreement` is False only when a non-defectiveness or identifiability
    prediction was contradicted by sampling, or when an in-scope row whose
    last Veronese is defective sampled non-defective (the table part of
    necessity).  A failed room inequality is not flagged: it is sufficient,
    not necessary, and rows that fail it may attain their expected dimension.
    A row is an immutable `NamedTuple`, equal to the tuple of its fields;
    `to_record` gives its report columns.
    """

    arch: Architecture
    report: DimReport | None
    verdict: Verdict | None
    agreement: bool
    wall_ms: int
    error: str | None = None

    def to_record(self) -> dict:
        verdict = self.verdict.label() if self.verdict else self.error
        return {**report_record(self.arch, self.report, verdict), "wall_ms": self.wall_ms}


def report_record(arch: Architecture, report: DimReport | None, verdict: str | None) -> dict:
    """The REPORT_KEYS columns of one architecture except `wall_ms`, in order.

    This is the whole `neurovar dims --json` record and, with `wall_ms`
    added, a scan row; the report's columns are None when `report` is None.
    `pivot` is the index of every output's pivot coefficient, always 0
    (x0^D): a number for one output, a list for several.
    """
    values = {"arch": list(arch.widths), "degrees": list(arch.degrees), "verdict": verdict}
    if report is not None:
        values.update(
            expdim=report.expdim_general,
            expdim_refined=report.expdim_refined,
            dim_actual=report.dim_actual,
            fiber_dim=report.fiber_dim,
            defective=report.defective,
            trials=report.trials,
            seed=report.seed,
            domain=report.domain_kind,
            prime=str(report.prime) if report.prime is not None else None,
            pivot=0 if arch.n_out == 1 else [0] * arch.n_out,
        )
    return {key: values.get(key) for key in REPORT_KEYS if key != "wall_ms"}


def grid_architectures(spec: ScanSpec) -> tuple[list[Architecture], int]:
    """All architectures inside the bounds, each once, sorted by (L, widths,
    degrees), and the number skipped because their sampling passes the cap.
    AmbientTooLarge when the grid does, at 16*L steps per candidate of depth
    L, its width and degree counts raised only to a power that passes it."""
    spec.validate_bounds()
    widths = range(spec.min_width, spec.max_width + 1)
    degrees = range(spec.min_degree, spec.max_degree + 1)
    outs = range(1, min(spec.max_width, spec.max_out_width) + 1)
    e = poly.WORK_CAP.bit_length() + 1  # bounds may pass len()'s range
    poly.refuse_past_cap("scan grid", sum(
        16 * L * (outs.stop - 1) * (widths.stop - widths.start) ** min(L, e)
        * (degrees.stop - degrees.start) ** min(L - 1, e) for L in set(spec.depths)))
    archs, past_cap = [], 0
    for L in sorted(set(spec.depths)):
        for hidden in product(widths, repeat=L):
            for out in outs:
                for ds in product(degrees, repeat=L - 1):
                    arch = validate(hidden + (out,), ds)
                    if arch.free_weight_count > spec.max_free:
                        continue
                    if poly.past_cap(sampling_steps(arch, spec.tries)):
                        past_cap += 1
                    elif arch.n_out * arch.ambient_per_output <= spec.max_ambient:
                        archs.append(arch)
    return archs, past_cap


def agreement_flag(verdict: Verdict, report: DimReport, arch: Architecture) -> bool:
    """Check prediction vs sampling: the sufficient conditions forward, and
    the table part of necessity (see `necessity_scope`) back."""
    if verdict.kind in (PREDICTED_NON_DEFECTIVE, PREDICTED_IDENTIFIABLE) and report.defective:
        return False
    return not (necessity_scope(arch) and verdict.kind == LAST_VERONESE_DEFECTIVE
                and not report.defective)


def _compute_row(args) -> ScanRow:
    arch, tries, seed, domain = args
    start = time.perf_counter()
    try:
        verdict = theorem_verdict(arch)
        report = neurovariety_stats(arch, tries=tries, seed=seed, domain=domain)
        wall = int((time.perf_counter() - start) * 1000)
        return ScanRow(arch, report, verdict, agreement_flag(verdict, report, arch), wall)
    except NeurovarError as exc:
        wall = int((time.perf_counter() - start) * 1000)
        return ScanRow(arch, None, None, True, wall, error=f"{type(exc).__name__}: {exc}")


def scan(spec: ScanSpec, workers: int | None = None) -> list[ScanRow]:
    """Run the grid scan; deterministic given the spec, whatever the schedule."""
    return scan_architectures(spec, grid_architectures(spec)[0], workers)


def scan_architectures(spec: ScanSpec, archs: list[Architecture],
                       workers: int | None = None) -> list[ScanRow]:
    """One row per architecture of `archs`, sampled with the spec's tries,
    seed and field, in order.

    Per-row errors are recorded in the row rather than aborting the scan.
    The rows run on `workers` processes, by default one per CPU this
    process may run on (bound it with `taskset`), capped at those CPUs and
    at the number of rows; one worker runs serially, in this process.  Rows
    do not depend on the schedule.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    domain = resolve_domain(spec.field, spec.prime, spec.seed)
    jobs = [(arch, spec.tries, spec.seed, domain) for arch in archs]
    workers = min(cpus if workers is None else workers, cpus, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_compute_row, jobs, chunksize=8))
    else:
        rows = [_compute_row(job) for job in jobs]
    return rows


# -- serialization ---------------------------------------------------------------


def _record_of(row) -> dict:
    if isinstance(row, ScanRow):
        record = row.to_record()
    else:
        record = dict(row)
    return {key: record.get(key) for key in REPORT_KEYS}


def _csv_cell(key: str, value) -> str:
    if value is None:
        return ""
    if key in ("arch", "degrees"):
        return ",".join(str(v) for v in value)
    if key == "pivot" and isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_report(rows, fmt: str = "json", path: str | None = None) -> str:
    """Serialize rows (ScanRow objects or parsed records) to JSON or CSV.

    Returns the serialized text; writes it to `path` when given.  Emission is
    byte-stable: identical rows produce identical bytes.
    """
    records = [_record_of(r) for r in rows]
    if fmt == "json":
        text = json.dumps(records, indent=2) + "\n"
    elif fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(REPORT_KEYS)
        for rec in records:
            writer.writerow([_csv_cell(k, rec[k]) for k in REPORT_KEYS])
        text = buf.getvalue()
    else:
        raise ValueError("format must be 'json' or 'csv'")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text
