"""Grid scans, report serialization, and the command-line surface."""

import concurrent.futures
import json
import math
import os
import re
import shlex
import types
from pathlib import Path

import pytest

from support import run_cli

import neurovar.cli as cli_module
import neurovar.rank as rank_module
import neurovar.veronese as veronese_module
from neurovar.cli import main
from neurovar.errors import AmbientTooLarge
from neurovar.network import gauge_fix, validate
from neurovar.scan import (
    REPORT_KEYS,
    ScanSpec,
    emit_report,
    grid_architectures,
    parse_report,
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
    archs = grid_architectures(spec)
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


@pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 4), (None, None)])
def test_scan_clamps_worker_count(cpus, expected, monkeypatch):
    # NV_THREADS=100000 must not reach the executor, which would start every
    # worker at the first submit; the fake pool maps in-process, so no
    # process is started here.
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
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("NV_THREADS", "100000")
    rows = scan(spec)
    assert sizes == ([] if expected is None else [expected])
    strip = lambda r: (r.arch, r.report, r.verdict, r.agreement)
    assert [strip(r) for r in rows] == [strip(r) for r in serial]


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


def test_cli_env_seed_override():
    a = run_cli("dims", "-n", "2,2,1", "-d", "2", "--seed", "1", "--json",
                env_extra={"NV_SEED": "777"})
    b = run_cli("dims", "-n", "2,2,1", "-d", "2", "--seed", "2", "--json",
                env_extra={"NV_SEED": "777"})
    assert json.loads(a.stdout)["seed"] == 777
    assert a.stdout == b.stdout


def test_cli_reports_are_deterministic():
    args = ("dims", "-n", "2,3,2,1", "-d", "3,3", "--seed", "1729", "--json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_agreement_flag_reports_necessity_findings():
    # The strict room inequality is sufficient but not necessary: this
    # architecture fails it at the first level yet attains its expected
    # dimension, and the scan surfaces the disagreement instead of hiding it.
    spec = ScanSpec(depths=(3,), min_width=2, max_width=2, max_out_width=1,
                    min_degree=2, max_degree=3, tries=10, seed=1729)
    rows = scan(spec)
    flagged = {
        (r.arch.widths, r.arch.degrees)
        for r in rows
        if not r.agreement
    }
    assert ((2, 2, 2, 1), (2, 3)) in flagged
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


def test_cli_scan_respects_worker_env():
    args = ("scan", "--depths", "2", "--max-width", "2", "--max-out", "1",
            "--max-degree", "2", "--tries", "3", "--seed", "11")
    serial = run_cli(*args, env_extra={"NV_THREADS": "1"})
    threaded = run_cli(*args, env_extra={"NV_THREADS": "2"})
    assert serial.returncode == threaded.returncode == 0

    def strip_wall(text):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in json.loads(text)]

    assert strip_wall(serial.stdout) == strip_wall(threaded.stdout)


@pytest.mark.parametrize(
    "argv, env",
    [
        (["dims", "-n", "2,2,1", "-d", "2", "--prime", "15"], {}),
        (["dims", "-n", "2,2,1", "-d", "2", "--prime", "abc"], {}),
        (["dims", "-n", "2,x,1", "-d", "2"], {}),
        (["dims", "-n", "2,2,1", "-d", "2", "--tries", "0"], {}),
        (["scan", "--depths", "1"], {}),
        (["veronese-secant", "-n", "3", "-d", "4", "-s", "0"], {}),
        (["scan", "--depths", "2", "--max-width", "2", "--max-out", "1"], {"NV_THREADS": "abc"}),
        (["check", "-n", "2,1"], {}),
        (["dims", "-n", "2,2,1", "-d", "2"], {"NV_SEED": "abc"}),
        (["power-indep", "--vars", "1", "--count", "2", "--form-degree", "2"], {}),
        (["power-indep", "--vars", "2", "--count", "3", "--form-degree", "0"], {}),
        (["power-indep", "--vars", "2", "--count", "0", "--form-degree", "1"], {}),
        (["power-indep", "--vars", "2", "--count", "2", "--form-degree", "1", "--power", "-1"],
         {}),
        (["scan", "--depths", ""], {}),
        (["power-indep", "--vars", "0", "--count", "2", "--form-degree", "1"], {}),
        (["power-indep", "--vars", "2", "--count", "2", "--form-degree", "-1"], {}),
        (["dims", "-n", "2,2,1", "-d", "2", "--prime", "2"], {}),
        (["dims", "-n", "2,3,2,1", "-d", "4,3", "--prime", "3"], {}),
        (["scan", "--depths", "2", "--max-width", "2", "--prime", "5"], {}),
        (["veronese-secant", "-n", "3", "-d", "4", "-s", "5", "--prime", "101"], {}),
        (["dims", "-n", "2,2,1", "-d", "2", "--field", "rational", "--prime", "15"], {}),
        (["scan", "--max-free", "-1"], {}),
        (["scan", "--max-ambient", "-5"], {}),
    ],
    ids=["prime-15", "prime-abc", "widths-x", "tries-0", "depths-1", "secant-0", "threads-abc",
         "check-depth-1", "seed-abc", "power-vars-1", "power-form-degree-0", "power-count-0",
         "power-negative", "depths-empty", "power-vars-0", "power-form-degree-negative",
         "dims-prime-2", "dims-prime-3", "scan-prime-5", "secant-prime-101", "rational-prime",
         "scan-max-free-negative", "scan-max-ambient-negative"],
)
def test_cli_bad_input_is_one_line_error(argv, env, monkeypatch, capsys):
    monkeypatch.delenv("NV_SEED", raising=False)
    monkeypatch.delenv("NV_THREADS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # A bad environment variable or --prime value is named in its error.
    assert all(key in err for key in env), err
    if "--prime" in argv:
        assert argv[argv.index("--prime") + 1] in err, err
    if "--field" in argv:
        assert "--field" in err and "--prime" in err, err


def test_cli_rational_field_accepts_prime_auto(monkeypatch, capsys):
    # 'auto' is the flag's default, so it names no prime.
    monkeypatch.delenv("NV_SEED", raising=False)
    argv = ["dims", "-n", "2,2,1", "-d", "2", "--field", "rational", "--json"]
    assert main(argv + ["--prime", "auto"]) == 0
    with_auto = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_auto
    assert json.loads(with_auto)["domain"] == "rational"


@pytest.mark.parametrize("degrees", ["60,60", "5,20"])
def test_cli_relations_refuses_ambient_past_cap(degrees, monkeypatch, capsys):
    # A stage past the cap is refused from its size alone: enumerating its
    # monomials, or computing relations on it, would not finish.
    enumerate_monomials = veronese_module.monomials_of_degree

    def bounded(nvars, deg):
        count = math.comb(nvars - 1 + deg, deg)
        assert count <= veronese_module.AMBIENT_CAP, f"enumerated {count} monomials"
        return enumerate_monomials(nvars, deg)

    def unreachable(*args, **kwargs):
        raise AssertionError("relations computed on an ambient past the cap")

    monkeypatch.setattr(veronese_module, "monomials_of_degree", bounded)
    monkeypatch.setattr(cli_module, "image_linear_relations", unreachable)
    assert main(["relations", "-n", "2", "-d", degrees]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage ambient ") and err.count("\n") == 1, err


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
    assert f"past the sampling cap {rank_module.OUTPUT_MONOMIAL_CAP}" in err


def test_block_ranks_refuses_outputs_past_the_monomial_cap(monkeypatch):
    gmap = gauge_fix(validate((3, 2, 1), (10**5,)))
    monkeypatch.setattr(rank_module, "monomials_of_degree", _unlisted)
    with pytest.raises(AmbientTooLarge, match="at least 100002 monomials of degree 100000, past"):
        rank_module.block_ranks(gmap, (1, 1), rank_module.CERTIFICATE_FIELD)


def test_monomial_cap_admits_every_pinned_architecture():
    # The tests, the golden files and the benchmark answers reach M = 969.
    assert rank_module.OUTPUT_MONOMIAL_CAP >= 969
    largest = validate((4, 2, 3, 2), (4, 4))
    assert largest.ambient_per_output == 969
    rank_module._check_output_size(largest)
    rank_module._check_output_size(validate((6, 2, 2, 1), (3, 3)))


def test_cli_scan_defaults_are_scan_spec_defaults(monkeypatch, capsys):
    monkeypatch.delenv("NV_SEED", raising=False)
    specs = []
    monkeypatch.setattr(cli_module, "scan", lambda spec: specs.append(spec) or [])
    assert main(["scan"]) == 0
    assert specs == [ScanSpec()]


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
