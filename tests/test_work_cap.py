"""The one work cap: every pinned input is admitted, and no argv makes the
command line hang, crash or print more than its one-line error."""

import contextlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neurovar.cli import _int_list, build_parser, main
from neurovar.network import validate
from neurovar.poly import WORK_CAP
from neurovar.rank import sampling_steps
from neurovar.scan import ScanSpec, grid_architectures
from neurovar.theory import verdict_steps
from neurovar.veronese import power_scan_steps, relations_steps
from test_golden_outputs import CASES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def _arch(key: str):
    widths, degrees = key.split(":", 1)[1].split("/")
    return validate(_int_list(widths), _int_list(degrees))


def _golden_steps(argv) -> int:
    """The estimate the verb of `argv` checks against the cap."""
    args = build_parser().parse_args(argv)
    if args.command == "dims":
        arch = validate(_int_list(args.widths), _int_list(args.degrees))
        confirm = args.confirm_rational and args.field == "prime"
        return sampling_steps(arch, args.tries + 3 * confirm)
    if args.command == "check":
        return verdict_steps(validate(_int_list(args.widths), _int_list(args.degrees)))
    if args.command == "veronese-secant":
        return sampling_steps(validate((args.nvars, args.secant, 1), (args.deg,)), args.tries)
    if args.command == "power-indep":
        return power_scan_steps(args.vars, args.count, args.form_degree, args.trials,
                                args.find_min)
    if args.command == "relations":
        return relations_steps(args.nvars, _int_list(args.degrees))
    assert args.command == "scan", args.command
    spec = ScanSpec(depths=tuple(_int_list(args.depths)), max_width=args.max_width)
    assert grid_architectures(spec)[1] == 0
    return 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_command_is_within_the_cap(name):
    assert _golden_steps(CASES[name]) <= WORK_CAP


def test_every_benchmark_input_is_within_the_cap():
    work = _bench_workloads()
    oracle = json.loads((BENCH / "oracle.json").read_text())
    keys = {prefix: [k for k in oracle if k.startswith(prefix)]
            for prefix in ("scan:", "dims:", "rational:", "relations:", "power:")}
    assert [len(keys[p]) for p in keys] == [459, 5, 6, 7, 28]
    rows, past_cap = grid_architectures(ScanSpec(**work.GRID_SPEC))
    assert past_cap == 0 and len(rows) == 459
    assert {work.arch_key(a.widths, a.degrees) for a in rows} == {k[5:] for k in keys["scan:"]}
    for key in keys["scan:"] + keys["dims:"]:
        assert sampling_steps(_arch(key), 10) <= WORK_CAP, key
    for key in keys["rational:"]:
        assert sampling_steps(_arch(key), work.LAB_RATIONAL_TRIES) <= WORK_CAP, key
    for key in keys["relations:"]:
        n, degrees = key.split(":")[1].split("/")
        assert relations_steps(int(n), _int_list(degrees)) <= WORK_CAP, key
    for key in keys["power:"]:
        nvars, count, form_degree = map(int, key.split(":")[1].split("/"))
        steps = power_scan_steps(nvars, count, form_degree, work.POWER_TRIALS, False)
        assert steps <= WORK_CAP, key


# -- fuzzing the command line with a lowered cap ------------------------------------

_INTS = st.one_of(st.integers(-2, 6), st.integers(7, 60),
                  st.sampled_from([10**6, 10**12, 10**30, 2**61 - 1]))
_NUMBER = _INTS.map(str) | st.sampled_from(["", "x", "1.5", "--", "0x10"])
_LIST = (st.lists(_INTS, max_size=5).map(lambda vs: ",".join(map(str, vs)))
         | st.sampled_from(["", ",", "2,,3", "2;3", "a,b", " 3 , 2 "]))
_PRIME = st.sampled_from(["auto", "2", "3", "7", "101", "7919", "15", "abc",
                          str(2**61 - 1), str(10**30 + 57)])
_SAMPLING = {"--tries": _NUMBER, "--seed": _NUMBER, "--prime": _PRIME,
             "--field": st.sampled_from(["prime", "rational", "real"])}
_FLAGS = {
    "dims": {"-n": _LIST, "-d": _LIST, **_SAMPLING, "--confirm-rational": None, "--json": None},
    "check": {"-n": _LIST, "-d": _LIST, "--json": None},
    "scan": {"--depths": _LIST, "--min-width": _NUMBER, "--max-width": _NUMBER,
             "--max-out": _NUMBER, "--min-degree": _NUMBER, "--max-degree": _NUMBER,
             "--max-free": _NUMBER, "--max-ambient": _NUMBER, **_SAMPLING, "--csv": None},
    "veronese-secant": {"-n": _NUMBER, "-d": _NUMBER, "-s": _NUMBER, **_SAMPLING,
                        "--json": None},
    "power-indep": {"--vars": _NUMBER, "--count": _NUMBER, "--form-degree": _NUMBER,
                    "--trials": _NUMBER, "--power": _NUMBER, "--find-min": None,
                    "--seed": _NUMBER, "--json": None},
    "relations": {"-n": _NUMBER, "-d": _LIST, "--seed": _NUMBER, "--json": None},
}


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_FLAGS)))
    flags = draw(st.lists(st.sampled_from(sorted(_FLAGS[verb])), unique=True))
    argv = [verb]
    for flag in flags:
        values = _FLAGS[verb][flag]
        argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "7"])))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_cli_fuzz_ends_in_a_documented_code_and_one_line(argv, work_cap):
    # A cap of 2,000 steps admits only tiny computations, so every argv ends
    # at once: in a report, a one-line refusal or a one-line input error.
    work_cap(2_000)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help-like exits only
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("  disagreement: ")]
    assert len(lines) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        assert re.match(r"(error|warning): ", lines[0]), (argv, lines)
