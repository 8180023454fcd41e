"""Grid scans, report serialization, and the command-line surface."""

import concurrent.futures
import json
import math
import os
import re
import shlex
import time
import types
from pathlib import Path

import pytest

from support import parse_report, run_cli

import neurovar.cli as cli_module
import neurovar.poly as poly_module
import neurovar.rank as rank_module
import neurovar.scan as scan_module
import neurovar.veronese as veronese_module
from neurovar.cli import main
from neurovar.errors import AmbientTooLarge
from neurovar.network import gauge_fix, validate
from neurovar.scan import (
    REPORT_KEYS,
    ScanSpec,
    emit_report,
    grid_architectures,
    scan,
)
from neurovar.theory import ah_secant_defective


# -- scan ---------------------------------------------------------------------------


def test_neurovar_scan_names_the_module():
    # The package root re-exports nothing, so no `scan` function shadows it.
    import neurovar.scan as scan_module

    assert isinstance(scan_module, types.ModuleType)
    assert scan_module.scan is scan


def test_scan_depth_three_grid_contains_defective_row():
    spec = ScanSpec(
        depths=(3,), min_width=1, max_width=3, max_out_width=1,
        min_degree=2, max_degree=4, tries=10, seed=1729,
    )
    rows = scan(spec)
    match = [
        r for r in rows
        if r.arch.widths == (2, 3, 2, 1) and r.arch.degrees == (3, 3)
    ]
    assert len(match) == 1
    row = match[0]
    assert row.report.defective is True
    assert row.report.dim_actual == 7
    assert row.verdict.label() == "RoomFails(1)"
    assert row.agreement is True


def test_scan_depth_two_rows_reproduce_secant_classification():
    spec = ScanSpec(
        depths=(2,), min_width=1, max_width=5, max_out_width=2,
        min_degree=2, max_degree=4, tries=10, seed=1729,
    )
    rows = scan(spec)
    checked = 0
    for row in rows:
        if row.arch.n_out != 1 or 1 in row.arch.widths[:2]:
            continue
        n0, n1 = row.arch.widths[0], row.arch.widths[1]
        d1 = row.arch.degrees[0]
        assert row.report.defective == ah_secant_defective(n0, d1, n1), row.arch.label()
        checked += 1
    assert checked >= 40


def test_scan_empty_grid():
    spec = ScanSpec(depths=(3,), min_width=4, max_width=4, max_out_width=1,
                    min_degree=2, max_degree=2, max_free=1)
    assert scan(spec) == []


def test_grid_architectures_sorted_and_filtered():
    spec = ScanSpec(depths=(2, 3), max_width=3, max_out_width=2, max_degree=3,
                    max_free=20, max_ambient=500)
    archs = grid_architectures(spec)[0]
    keys = [(a.depth, a.widths, a.degrees) for a in archs]
    assert keys == sorted(keys)
    assert all(a.free_weight_count <= 20 for a in archs)
    assert all(a.n_out * a.ambient_per_output <= 500 for a in archs)


def test_scan_rerun_is_identical_up_to_wall_time():
    spec = ScanSpec(depths=(2,), max_width=3, max_out_width=1, max_degree=3,
                    tries=5, seed=42)
    rows_a = scan(spec)
    rows_b = scan(spec)
    strip = lambda r: (r.arch, r.report, r.verdict and r.verdict.label(), r.agreement, r.error)
    assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]


def test_scan_parallel_schedule_matches_serial():
    spec = ScanSpec(depths=(2,), max_width=3, max_out_width=1, max_degree=3,
                    tries=5, seed=42)
    serial = scan(spec, workers=1)
    parallel = scan(spec, workers=4)
    strip = lambda r: (r.arch, r.report, r.verdict and r.verdict.label(), r.agreement)
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


@pytest.mark.parametrize("cpus, expected", [(1, None), (2, 2), (64, 4), (None, None)])
def test_scan_clamps_worker_count(cpus, expected, monkeypatch):
    # One worker per CPU the process may use, whatever the machine has,
    # capped at the 4 rows; an explicit count is capped the same way.  The
    # fake pool maps in-process, so no process is started here.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    spec = ScanSpec(depths=(2,), max_width=2, max_out_width=1, max_degree=2,
                    tries=3, seed=11)
    serial = scan(spec, workers=1)
    assert len(serial) == 4
    # scan() imports the executor only when it uses one, so the fake replaces
    # it where that import finds it.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    if cpus is None:  # no affinity mask on the platform, and no CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:  # a `taskset` mask narrower than the machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
    rows = scan(spec)
    explicit = scan(spec, workers=3)
    assert sizes == ([] if expected is None else [expected, min(expected, 3)])
    strip = lambda r: (r.arch, r.report, r.verdict, r.agreement)
    assert [strip(r) for r in rows] == [strip(r) for r in explicit] == [strip(r) for r in serial]


# -- emit/parse -----------------------------------------------------------------------


def _small_rows():
    spec = ScanSpec(depths=(2,), max_width=2, max_out_width=2, max_degree=3,
                    tries=4, seed=7)
    return scan(spec)


def test_emit_report_schema_keys():
    rows = _small_rows()
    records = json.loads(emit_report(rows, fmt="json"))
    assert records
    for rec in records:
        assert tuple(rec.keys()) == REPORT_KEYS
        assert isinstance(rec["arch"], list)
        assert isinstance(rec["defective"], bool)
        assert rec["prime"] is None or isinstance(rec["prime"], str)
        assert isinstance(rec["wall_ms"], int)


def test_emit_report_empty():
    assert emit_report([], fmt="json") == "[]\n"
    csv_text = emit_report([], fmt="csv")
    assert csv_text.splitlines() == [",".join(REPORT_KEYS)]


def test_report_round_trip_json(tmp_path):
    rows = _small_rows()
    path = tmp_path / "report.json"
    text = emit_report(rows, fmt="json", path=str(path))
    assert path.read_text() == text
    parsed = parse_report(text, fmt="json")
    again = emit_report(parsed, fmt="json")
    assert again == text


def test_report_round_trip_csv():
    rows = _small_rows()
    text = emit_report(rows, fmt="csv")
    parsed = parse_report(text, fmt="csv")
    again = emit_report(parsed, fmt="csv")
    assert again == text


def test_emit_report_bad_path():
    with pytest.raises(OSError):
        emit_report(_small_rows(), fmt="json", path="/nonexistent-dir/report.json")


# -- CLI -----------------------------------------------------------------------------


def test_cli_dims_json_schema_and_values():
    proc = run_cli("dims", "-n", "2,3,2,1", "-d", "4,3", "--seed", "1729", "--json")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert list(record.keys()) == [
        "arch", "degrees", "expdim", "expdim_refined", "dim_actual", "fiber_dim",
        "defective", "verdict", "trials", "seed", "domain", "prime", "pivot",
    ]
    assert record["arch"] == [2, 3, 2, 1]
    assert record["expdim"] == 8
    assert record["dim_actual"] == 8
    assert record["defective"] is False
    assert record["verdict"] == "PredictedNonDefective"
    assert record["pivot"] == 0
    assert isinstance(record["prime"], str)


def test_cli_dims_human_readable():
    proc = run_cli("dims", "-n", "2,2,2,1", "-d", "3,3", "--seed", "3")
    assert proc.returncode == 0
    assert "dim_actual        5" in proc.stdout
    assert "defective         false" in proc.stdout


def test_cli_dims_rational_field():
    proc = run_cli("dims", "-n", "2,2,2,1", "-d", "3,3", "--field", "rational",
                   "--tries", "2", "--json")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["domain"] == "rational"
    assert record["prime"] is None
    assert record["dim_actual"] == 5


def test_cli_dims_confirm_rational():
    proc = run_cli("dims", "-n", "2,2,2,1", "-d", "3,3", "--confirm-rational", "--json")
    assert proc.returncode == 0


def test_cli_dims_invalid_architecture_exit_code():
    proc = run_cli("dims", "-n", "2,2,1", "-d", "1")
    assert proc.returncode == 2
    assert "d_1" in proc.stderr


def test_cli_check_identifiable():
    proc = run_cli("check", "-n", "2,2,2,2", "-d", "3,3", "--json")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["verdict"] == "PredictedIdentifiable"
    assert record["condition3"]["holds"] is True
    assert all(level["holds"] for level in record["room"])


def test_cli_check_room_failure():
    proc = run_cli("check", "-n", "2,3,2,1", "-d", "3,3", "--json")
    record = json.loads(proc.stdout)
    assert record["verdict"] == "RoomFails(1)"
    assert record["room"][0] == {"layer": 1, "lhs": 4, "rhs": 4, "holds": False}


def test_cli_relations_double_conic():
    proc = run_cli("relations", "-n", "2", "-d", "2,2", "--json")
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["kernel_dim"] == 1
    assert record["ambient"] == 6


def test_cli_veronese_secant():
    proc = run_cli("veronese-secant", "-n", "3", "-d", "4", "-s", "5", "--json")
    record = json.loads(proc.stdout)
    assert record["dim"] == 13
    assert record["expected_dim"] == 14
    assert record["defective"] is True
    assert record["table_defective"] is True


def test_cli_power_indep():
    proc = run_cli("power-indep", "--vars", "2", "--count", "3", "--form-degree", "1",
                   "--trials", "20", "--json")
    record = json.loads(proc.stdout)
    assert record["power"] == 2
    assert record["independent"] == 20
    assert record["all_independent"] is True


def test_cli_scan_small_grid(tmp_path):
    out = tmp_path / "rows.json"
    proc = run_cli(
        "scan", "--depths", "2", "--max-width", "2", "--max-out", "1",
        "--max-degree", "3", "--tries", "4", "--seed", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert records
    assert all(tuple(r.keys()) == REPORT_KEYS for r in records)


def test_cli_reports_are_deterministic():
    args = ("dims", "-n", "2,3,2,1", "-d", "3,3", "--seed", "1729", "--json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_agreement_flag_reports_necessity_findings():
    # The strict room inequality is sufficient but not necessary: this
    # architecture fails it at the first level yet attains its expected
    # dimension.  That is a necessity finding (criterion 9 pins it), not a
    # disagreement, so no row of the grid is flagged.
    spec = ScanSpec(depths=(3,), min_width=2, max_width=2, max_out_width=1,
                    min_degree=2, max_degree=3, tries=10, seed=1729)
    rows = scan(spec)
    assert all(r.agreement for r in rows)
    row = next(
        r for r in rows
        if r.arch.widths == (2, 2, 2, 1) and r.arch.degrees == (2, 3)
    )
    assert row.report.defective is False
    assert row.verdict.label() == "RoomFails(1)"


def test_emit_report_three_named_examples():
    # The three depth-3 headline architectures, scanned together, reproduce
    # the acceptance numbers row for row.
    spec = ScanSpec(depths=(3,), min_width=2, max_width=3, max_out_width=1,
                    min_degree=3, max_degree=4, tries=10, seed=1729)
    rows = scan(spec)
    records = {
        (tuple(r["arch"]), tuple(r["degrees"])): r
        for r in json.loads(emit_report(rows, fmt="json"))
    }
    guiding = records[((2, 3, 2, 1), (4, 3))]
    assert (guiding["expdim"], guiding["dim_actual"], guiding["defective"]) == (8, 8, False)
    room_fail = records[((2, 3, 2, 1), (3, 3))]
    assert (room_fail["expdim"], room_fail["dim_actual"], room_fail["fiber_dim"]) == (8, 7, 1)
    assert room_fail["defective"] is True
    depth3 = records[((2, 2, 2, 1), (3, 3))]
    assert (depth3["expdim_refined"], depth3["dim_actual"], depth3["defective"]) == (5, 5, False)
    for rec in (guiding, room_fail, depth3):
        assert rec["pivot"] == 0
        assert rec["domain"] == "prime"


def test_cli_dims_io_error_exit_code():
    proc = run_cli("dims", "-n", "2,2,1", "-d", "2", "--json",
                   "--out", "/nonexistent-dir/report.json")
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write "), proc.stderr


def test_cli_scan_respects_worker_env(monkeypatch, capsys):
    # The CPUs the process may use size the pool: one runs in-process, two
    # start two workers, and the report is the same up to wall time.
    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    argv = ["scan", "--depths", "2", "--max-width", "2", "--max-out", "1",
            "--max-degree", "2", "--tries", "3", "--seed", "11"]
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        reports.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in records])
    assert sizes == [2]
    assert len(reports[0]) == 4 and reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "-n", "2,2,1", "-d", "2", "--prime", "15"],
        ["dims", "-n", "2,2,1", "-d", "2", "--prime", "abc"],
        ["dims", "-n", "2,x,1", "-d", "2"],
        ["dims", "-n", "2,2,1", "-d", "2", "--tries", "0"],
        ["scan", "--depths", "1"],
        ["veronese-secant", "-n", "3", "-d", "4", "-s", "0"],
        ["check", "-n", "2,1"],
        ["power-indep", "--vars", "1", "--count", "2", "--form-degree", "2"],
        ["power-indep", "--vars", "2", "--count", "3", "--form-degree", "0"],
        ["power-indep", "--vars", "2", "--count", "0", "--form-degree", "1"],
        ["power-indep", "--vars", "2", "--count", "2", "--form-degree", "1", "--power", "-1"],
        ["scan", "--depths", ""],
        ["power-indep", "--vars", "0", "--count", "2", "--form-degree", "1"],
        ["power-indep", "--vars", "2", "--count", "2", "--form-degree", "-1"],
        ["dims", "-n", "2,2,1", "-d", "2", "--prime", "2"],
        ["dims", "-n", "2,3,2,1", "-d", "4,3", "--prime", "3"],
        ["scan", "--depths", "2", "--max-width", "2", "--prime", "5"],
        ["veronese-secant", "-n", "3", "-d", "4", "-s", "5", "--prime", "101"],
        ["dims", "-n", "2,2,1", "-d", "2", "--field", "rational", "--prime", "15"],
        ["scan", "--max-free", "-1"],
        ["scan", "--max-ambient", "-5"],
        ["dims", "-n", "2,2,1", "-d", "2", "--prime", "318665857834031151167461"],
        ["dims", "-n", "2,2,1", "-d", "2", "--prime", "3317044064679887385961981"],
        ["veronese-secant", "-n", "0", "-d", "3", "-s", "2"],
        ["veronese-secant", "-n", "3", "-d", "1", "-s", "2"],
    ],
    ids=["prime-15", "prime-abc", "widths-x", "tries-0", "depths-1", "secant-0",
         "check-depth-1", "power-vars-1", "power-form-degree-0", "power-count-0",
         "power-negative", "depths-empty", "power-vars-0", "power-form-degree-negative",
         "dims-prime-2", "dims-prime-3", "scan-prime-5", "secant-prime-101", "rational-prime",
         "scan-max-free-negative", "scan-max-ambient-negative", "prime-pseudoprime-to-37",
         "prime-past-primality-range", "secant-nvars-0", "secant-deg-1"],
)
def test_cli_bad_input_is_one_line_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # A bad --prime value is named in its error.
    if "--prime" in argv:
        assert argv[argv.index("--prime") + 1] in err, err
    if "--field" in argv:
        assert "--field" in err and "--prime" in err, err
    # A Veronese's error names its own arguments, not the network it samples.
    if argv[0] == "veronese-secant":
        assert "width" not in err and "activation" not in err, err


def test_cli_rational_field_accepts_prime_auto(capsys):
    # 'auto' is the flag's default, so it names no prime.
    argv = ["dims", "-n", "2,2,1", "-d", "2", "--field", "rational", "--json"]
    assert main(argv + ["--prime", "auto"]) == 0
    with_auto = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_auto
    assert json.loads(with_auto)["domain"] == "rational"


@pytest.mark.parametrize("degrees", ["60,60", "5,40"])
def test_cli_relations_refuses_ambient_past_cap(degrees, monkeypatch, capsys):
    # A chain past the cap is refused from its stage sizes alone: listing a
    # stage's monomials, or computing relations on it, would not finish.
    def unreachable(*args, **kwargs):
        raise AssertionError("stages listed or relations computed past the cap")

    monkeypatch.setattr(veronese_module, "monomials_of_degree", unreachable)
    monkeypatch.setattr(cli_module, "image_linear_relations", unreachable)
    assert main(["relations", "-n", "2", "-d", degrees]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: n=2 d={degrees}: about 10^") and err.count("\n") == 1, err
    assert err.endswith(f" steps of work, past the cap of {poly_module.WORK_CAP}\n"), err


def test_cli_power_indep_refuses_form_space_past_cap(monkeypatch, capsys):
    # Counted, not listed: exit 1 with one line naming the inputs.
    def unlisted(*args):
        raise AssertionError("monomials listed for a form space past the cap")

    monkeypatch.setattr(veronese_module, "monomials_of_degree", unlisted)
    assert main(["power-indep", "--vars", "20", "--count", "2", "--form-degree", "20",
                 "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: vars=20 and form degree=20: ") and err.count("\n") == 1, err


def _unlisted(*args):
    raise AssertionError("output monomials listed or counted by a binomial past the cap")


@pytest.mark.parametrize("argv", [
    ["dims", "-n", "10,10,10,1", "-d", "10,10"],
    ["dims", "-n", "3,2,1", "-d", "100000", "--json"],
    ["dims", "-n", "8,6,4,1", "-d", "5,4", "--confirm-rational"],
    ["dims", "-n", "6,4,3,1", "-d", "4,4", "--field", "rational"],
    ["veronese-secant", "-n", "100", "-d", "100", "-s", "2"],
])
def test_cli_refuses_outputs_past_the_monomial_cap(argv, monkeypatch, capsys):
    # Counted before the forward pass lists a monomial or any binomial is
    # formed: exit 1 with one line; these ran until killed before the cap.
    monkeypatch.setattr(rank_module, "monomials_of_degree", _unlisted)
    monkeypatch.setattr(math, "comb", _unlisted)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: n=(") and err.count("\n") == 1, err
    assert err.endswith(f" steps of work, past the cap of {poly_module.WORK_CAP}\n"), err


def test_block_ranks_refuses_outputs_past_the_monomial_cap(monkeypatch):
    # One trial on binom(100002, 2) = 5,000,150,001 output monomials, each
    # run through 78 products: about 6.4e12 steps.
    gmap = gauge_fix(validate((3, 2, 1), (10**5,)))
    monkeypatch.setattr(rank_module, "monomials_of_degree", _unlisted)
    monkeypatch.setattr(math, "comb", _unlisted)
    with pytest.raises(AmbientTooLarge, match=r"^n=\(3,2,1\) d=\(100000\): about 10\^13 steps"):
        rank_module.block_ranks(gmap, (1, 1), rank_module.CERTIFICATE_FIELD)


def test_monomial_cap_admits_every_pinned_architecture():
    # The largest output (M = 969) and the largest estimate (the criterion-9
    # row (4,4,4,2)/(4,4) at 10 tries) of the tests and the benchmark.
    largest = validate((4, 2, 3, 2), (4, 4))
    assert largest.ambient_per_output == 969
    assert rank_module.sampling_steps(largest, rank_module.DEFAULT_TRIES) <= poly_module.WORK_CAP
    costliest = validate((4, 4, 4, 2), (4, 4))
    assert rank_module.sampling_steps(costliest, rank_module.DEFAULT_TRIES) <= poly_module.WORK_CAP
    assert rank_module.sampling_steps(validate((6, 2, 2, 1), (3, 3)), 1) <= poly_module.WORK_CAP


@pytest.mark.parametrize("argv", [
    ["dims", "-n", "40,40,1", "-d", "2"],
    ["veronese-secant", "-n", "40", "-d", "2", "-s", "400"],
    ["power-indep", "--vars", "60", "--count", "60", "--form-degree", "3", "--trials", "1"],
    ["check", "-n", "1000000,3,1", "-d", "1000000"],
    ["check", "-n", "100000,3,1", "-d", "100000", "--json"],
])
def test_cli_refuses_work_past_the_cap_at_once(argv, monkeypatch, capsys):
    # Each ran past 20 s, or (the --json check) failed to print a binomial of
    # over 4,300 digits; now each is one line and exit 1 from its estimate,
    # with nothing listed and no binomial formed.
    monkeypatch.setattr(rank_module, "monomials_of_degree", _unlisted)
    monkeypatch.setattr(veronese_module, "monomials_of_degree", _unlisted)
    monkeypatch.setattr(math, "comb", _unlisted)
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.err.endswith(f" steps of work, past the cap of {poly_module.WORK_CAP}\n")


def test_scan_skips_rows_past_the_work_cap(capsys):
    # The single row (2,2,1)/(20001) would take about 2e8 steps over 10 tries:
    # it is skipped like a row past --max-free, not reported as an error.
    argv = ["scan", "--depths", "2", "--min-width", "2", "--max-width", "2", "--max-out", "1",
            "--min-degree", "20001", "--max-degree", "20001", "--max-ambient", "100000"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == []
    assert captured.err == ("scanned 0 architectures: 0 disagreements, 0 errors, "
                            "1 skipped past the work cap\n")


def test_grid_architectures_counts_rows_past_the_cap(work_cap):
    spec = ScanSpec(depths=(2,), min_width=2, max_width=2, max_out_width=1, max_degree=3)
    small, large = (validate((2, 2, 1), (d,)) for d in (2, 3))
    steps = rank_module.sampling_steps(small, spec.tries)
    assert steps < rank_module.sampling_steps(large, spec.tries)
    work_cap(steps)
    assert grid_architectures(spec) == ([small], 1)
    assert [row.arch for row in scan(spec, workers=1)] == [small]


def test_cli_scan_defaults_are_scan_spec_defaults(monkeypatch, capsys):
    specs = []
    monkeypatch.setattr(cli_module, "scan_architectures",
                        lambda spec, archs: specs.append(spec) or [])
    assert main(["scan"]) == 0
    assert specs == [ScanSpec()]


def test_cli_scan_walks_the_grid_once(monkeypatch, capsys):
    # The rows and the count skipped past the cap come from one walk.
    calls = []

    def counted(spec):
        calls.append(spec)
        return grid_architectures(spec)

    monkeypatch.setattr(scan_module, "grid_architectures", counted)
    monkeypatch.setattr(cli_module, "grid_architectures", counted)
    argv = ["scan", "--depths", "2", "--max-width", "2", "--max-out", "1", "--max-degree", "3"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 8
    assert len(calls) == 1


def _readme_cli_examples():
    """The `neurovar ...` lines of the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme, re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("neurovar ")]


def test_readme_cli_examples_run():
    # Every example but the full scan, so the documented flags stay real.
    examples = [argv for argv in _readme_cli_examples() if argv[0] != "scan"]
    assert {argv[0] for argv in examples} == {
        "dims", "check", "veronese-secant", "power-indep", "relations"
    }
    for argv in examples:
        proc = run_cli(*argv)
        assert proc.returncode == 0, (argv, proc.stderr)
