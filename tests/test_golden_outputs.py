"""Byte-identity of the command-line reports.

Each case runs `neurovar.cli.main` in-process and compares its stdout with a
recorded file in tests/golden/.  The scan's `wall_ms` column is a timing, so
it is blanked before the comparison.  A change that alters any of these bytes
changes a reported answer or its format.  `python tests/test_golden_outputs.py`
records the cases that have no file yet and leaves existing files alone; to
re-pin a file when changed bytes are the intent, delete it first.
"""

import contextlib
import csv
import io
import sys
from pathlib import Path

import pytest

from neurovar.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_HEADLINE = ("2,3,2,1/4,3", "2,3,2,1/3,3", "2,2,2,1/3,3", "2,2,2,2/3,3")

CASES = {
    **{
        f"dims-{arch.replace(',', '').replace('/', '-')}{suffix}": [
            "dims", "-n", arch.split("/")[0], "-d", arch.split("/")[1], *flags
        ]
        for arch in _HEADLINE
        for suffix, flags in (("", []), ("-json", ["--json"]))
    },
    "dims-4232-44-json": ["dims", "-n", "4,2,3,2", "-d", "4,4", "--json"],
    "dims-34441-222": ["dims", "-n", "3,4,4,4,1", "-d", "2,2,2"],
    "dims-34441-222-rational-json": ["dims", "-n", "3,4,4,4,1", "-d", "2,2,2", "--field",
                                     "rational", "--json"],
    "dims-4142-34": ["dims", "-n", "4,1,4,2", "-d", "3,4"],
    "dims-4231-34": ["dims", "-n", "4,2,3,1", "-d", "3,4"],
    "dims-4341-34": ["dims", "-n", "4,3,4,1", "-d", "3,4"],
    "dims-4441-23-rational-json": ["dims", "-n", "4,4,4,1", "-d", "2,3", "--field", "rational",
                                   "--json"],
    "dims-2321-33-rational": ["dims", "-n", "2,3,2,1", "-d", "3,3", "--field", "rational"],
    "dims-4421-22-rational": ["dims", "-n", "4,4,2,1", "-d", "2,2", "--field", "rational"],
    "dims-2222-33-confirm-json": ["dims", "-n", "2,2,2,2", "-d", "3,3", "--confirm-rational", "--json"],
    "check-2221-23": ["check", "-n", "2,2,2,1", "-d", "2,3"],
    "check-351-4": ["check", "-n", "3,5,1", "-d", "4"],
    "check-4142-34-json": ["check", "-n", "4,1,4,2", "-d", "3,4", "--json"],
    "check-2222-33-json": ["check", "-n", "2,2,2,2", "-d", "3,3", "--json"],
    "check-3332-22": ["check", "-n", "3,3,3,2", "-d", "2,2"],
    "check-3332-22-json": ["check", "-n", "3,3,3,2", "-d", "2,2", "--json"],
    "veronese-secant-5-3-7":["veronese-secant", "-n", "5", "-d", "3", "-s", "7"],
    "veronese-secant-3-4-5-rational": ["veronese-secant", "-n", "3", "-d", "4", "-s", "5",
                                       "--field", "rational"],
    "power-indep-3-4-2-find-min-json": ["power-indep", "--vars", "3", "--count", "4",
                                        "--form-degree", "2", "--find-min", "--json"],
    "power-indep-3-6-2": ["power-indep", "--vars", "3", "--count", "6", "--form-degree", "2"],
    "power-indep-2-6-3-json": ["power-indep", "--vars", "2", "--count", "6",
                               "--form-degree", "3", "--json"],
    "power-indep-2-5-1-power-2": ["power-indep", "--vars", "2", "--count", "5",
                                  "--form-degree", "1", "--power", "2"],
    "power-indep-3-5-2-find-min-trials-10": ["power-indep", "--vars", "3", "--count", "5",
                                             "--form-degree", "2", "--find-min",
                                             "--trials", "10"],
    "relations-3-22": ["relations", "-n", "3", "-d", "2,2"],
    "relations-3-22-json": ["relations", "-n", "3", "-d", "2,2", "--json"],
    "relations-2-222": ["relations", "-n", "2", "-d", "2,2,2"],
    "scan-d2-w3-csv": ["scan", "--depths", "2", "--max-width", "3", "--csv"],
}


def _blank_wall_ms(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_ms")
    for row in rows[1:]:
        row[col] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _stdout(argv, capsys) -> str:
    assert main(argv) == 0
    out = capsys.readouterr().out
    return _blank_wall_ms(out) if "--csv" in argv else out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _stdout(CASES[name], capsys) == expected


def test_repeated_depth_scans_each_architecture_once(capsys):
    bounds = ["--max-width", "2", "--max-out", "1", "--max-degree", "2", "--csv"]
    outputs = []
    for depths in ("2", "2,2"):
        assert main(["scan", "--depths", depths, *bounds]) == 0
        captured = capsys.readouterr()
        outputs.append(_blank_wall_ms(captured.out))
        assert captured.err.startswith("scanned 4 architectures: "), captured.err
    assert outputs[0] == outputs[1]


def _record() -> list[str]:
    """Write the current stdout of each case that has no file in GOLDEN yet;
    return the names written."""
    GOLDEN.mkdir(exist_ok=True)
    written = []
    for name, argv in sorted(CASES.items()):
        path = GOLDEN / f"{name}.out"
        if path.exists():
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        text = buf.getvalue()
        path.write_text(_blank_wall_ms(text) if "--csv" in argv else text, encoding="utf-8")
        written.append(name)
    return written


def test_record_writes_missing_files_only(monkeypatch, tmp_path):
    recorded = GOLDEN
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "CASES", {
        "relations-3-22": CASES["relations-3-22"],
        "power-indep-2-5-1-power-2": CASES["power-indep-2-5-1-power-2"],
    })
    stale = tmp_path / "relations-3-22.out"
    stale.write_text("stale\n", encoding="utf-8")
    assert _record() == ["power-indep-2-5-1-power-2"]
    assert stale.read_text(encoding="utf-8") == "stale\n"
    assert (tmp_path / "power-indep-2-5-1-power-2.out").read_bytes() == \
        (recorded / "power-indep-2-5-1-power-2.out").read_bytes()


if __name__ == "__main__":
    for name in _record():
        print(f"wrote {name}.out")
