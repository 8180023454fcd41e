"""Shared fixtures for the test suite: transcribed golden data, CLI driver, report parser."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from neurovar.poly import SparsePoly
from neurovar.scan import REPORT_KEYS
from oracle import weight_name

# Shorthand for weight names in golden data: a01 -> w1_0_1, b10 -> w2_1_0, ...
_LAYER_OF = {"a": 1, "b": 2, "c": 3}


def term(ring, coeff, spec):
    """Build coeff * monomial from shorthand like '2 a00^2 a10^2 b00 b01 c00'."""
    exps = [0] * ring.nvars
    for token in spec.split():
        if "^" in token:
            name, e = token.split("^")
            e = int(e)
        else:
            name, e = token, 1
        wname = weight_name(_LAYER_OF[name[0]], int(name[1]), int(name[2]))
        exps[ring.index(wname)] += e
    return SparsePoly(ring, {tuple(exps): Fraction(coeff)})


def poly_from_terms(ring, terms):
    acc = ring.zero()
    for coeff, spec in terms:
        acc = acc + term(ring, coeff, spec)
    return acc


def expected_quartic_coefficients(ring):
    """Golden coefficients of the (2,2,2,1),(2,2) network, transcribed term
    by term from the worked quartic example."""
    s0 = [
        (1, "a00^4 b00^2 c00"), (1, "a00^4 b10^2 c01"),
        (2, "a00^2 a10^2 b00 b01 c00"), (2, "a00^2 a10^2 b10 b11 c01"),
        (1, "a10^4 b01^2 c00"), (1, "a10^4 b11^2 c01"),
    ]
    s1 = [
        (4, "a00^3 a01 b00^2 c00"), (4, "a00^3 a01 b10^2 c01"),
        (4, "a00^2 a10 a11 b00 b01 c00"), (4, "a00^2 a10 a11 b10 b11 c01"),
        (4, "a00 a01 a10^2 b00 b01 c00"), (4, "a00 a01 a10^2 b10 b11 c01"),
        (4, "a10^3 a11 b01^2 c00"), (4, "a10^3 a11 b11^2 c01"),
    ]
    s2 = [
        (6, "a00^2 a01^2 b00^2 c00"), (6, "a00^2 a01^2 b10^2 c01"),
        (2, "a00^2 a11^2 b00 b01 c00"), (2, "a00^2 a11^2 b10 b11 c01"),
        (8, "a00 a01 a10 a11 b00 b01 c00"), (8, "a00 a01 a10 a11 b10 b11 c01"),
        (2, "a01^2 a10^2 b00 b01 c00"), (2, "a01^2 a10^2 b10 b11 c01"),
        (6, "a10^2 a11^2 b01^2 c00"), (6, "a10^2 a11^2 b11^2 c01"),
    ]
    s3 = [
        (4, "a00 a01^3 b00^2 c00"), (4, "a00 a01^3 b10^2 c01"),
        (4, "a00 a01 a11^2 b00 b01 c00"), (4, "a00 a01 a11^2 b10 b11 c01"),
        (4, "a01^2 a10 a11 b00 b01 c00"), (4, "a01^2 a10 a11 b10 b11 c01"),
        (4, "a10 a11^3 b01^2 c00"), (4, "a10 a11^3 b11^2 c01"),
    ]
    s4 = [
        (1, "a01^4 b00^2 c00"), (1, "a01^4 b10^2 c01"),
        (2, "a01^2 a11^2 b00 b01 c00"), (2, "a01^2 a11^2 b10 b11 c01"),
        (1, "a11^4 b01^2 c00"), (1, "a11^4 b11^2 c01"),
    ]
    return [poly_from_terms(ring, s) for s in (s0, s1, s2, s3, s4)]


def reference_rank(rows, p=0):
    """Rank and reduced row echelon rows: over Q in fractions (p = 0), else mod p.

    An independent oracle: plain Gauss-Jordan, separate from the package's
    echelon kernel and its full-rank certificates."""
    if p:
        m = [[v % p for v in row] for row in rows]
        div = lambda a, b: a * pow(b, p - 2, p) % p
    else:
        m = [[Fraction(v) for v in row] for row in rows]
        div = lambda a, b: a / b
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [div(v, m[rank][col]) for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                if p:
                    m[i] = [v % p for v in m[i]]
        rank += 1
    return rank, m[:rank]


def tctc_gauge_mask():
    """Gauge pinning the first layer's off-diagonal to 1 (standard elsewhere),
    so that at a11 = a22 = 0 the two first-layer forms are exactly (y, x)."""
    return (((0, 1), (1, 0)), ((0, 1), (1, 1)), ((0, 1),))


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None):
    """Run `python -m neurovar` on this checkout's source, whatever the caller's
    PYTHONPATH."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "neurovar", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _csv_value(key: str, cell: str):
    if cell == "":
        return None
    if key in ("arch", "degrees"):
        return [int(v) for v in cell.split(",")] if cell else []
    if key == "pivot":
        if ";" in cell:
            return [int(v) for v in cell.split(";")]
        return int(cell)
    if key == "defective":
        return cell == "true"
    if key in ("expdim", "expdim_refined", "dim_actual", "fiber_dim", "trials", "seed", "wall_ms"):
        return int(cell)
    return cell


def parse_report(text: str, fmt: str = "json") -> list[dict]:
    """Parse a report of `neurovar.scan.emit_report` back into its records."""
    if fmt == "json":
        return [{k: rec.get(k) for k in REPORT_KEYS} for rec in json.loads(text)]
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != REPORT_KEYS:
            raise ValueError("unexpected CSV header")
        out = []
        for row in reader:
            rec = {k: _csv_value(k, cell) for k, cell in zip(header, row)}
            # degrees may legitimately be empty for depth-1 networks
            if rec["degrees"] is None:
                rec["degrees"] = []
            out.append(rec)
        return out
    raise ValueError("format must be 'json' or 'csv'")
