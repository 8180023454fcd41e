"""Spans and counts recorded around calls into the neurovar package.

Nothing under `src/` is changed: the tracer replaces public functions (and
two `SparsePoly`/`PrimeField` methods) with wrappers, in every `neurovar`
module that holds a reference to them, so that calls made inside the package
go through the wrappers too.  Each wrapped call becomes one span
(name, start, end, parent, op id); polynomial products and powers are too
numerous for one span each and are aggregated into counts and time on the
enclosing span instead.  Self time is a span's duration minus the time of
its children, where the aggregated polynomial time counts as a child.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from neurovar.errors import PivotVanishes

# `neurovar.scan` is shadowed by the `scan` function the package re-exports,
# so the modules are fetched by their full names.
cli, domains, network, poly, rank, scan, theory, veronese = (
    importlib.import_module(f"neurovar.{name}")
    for name in ("cli", "domains", "network", "poly", "rank", "scan", "theory", "veronese")
)

# Span record fields.
NAME, START, END, PARENT, OP, CHILD_S, MUL_CALLS, MUL_PAIRS, MUL_S, POW_CALLS = range(10)

# Per-layer metrics, in the order BENCHMARK.json lists them.  Values are per
# pass over the workload's op list.
LAYER_METRICS = (
    ("scan.rows", "count"),
    ("scan.self_s", "s"),
    ("scan.emit_s", "s"),
    ("scan.emit_bytes", "bytes"),
    ("theory.verdict_calls", "count"),
    ("theory.verdict_s", "s"),
    ("network.gauge_calls", "count"),
    ("network.gauge_s", "s"),
    ("rank.jacobians", "count"),
    ("rank.useful_jacobian_ratio", "ratio"),
    ("rank.pivot_retries", "count"),
    ("rank.jacobian_self_s", "s"),
    ("rank.elim_calls", "count"),
    ("rank.elim_s", "s"),
    ("rank.elim_cells", "count"),
    ("poly.mul_calls", "count"),
    ("poly.mul_pairs", "count"),
    ("poly.mul_s", "s"),
    ("poly.pow_calls", "count"),
    ("veronese.relations_s", "s"),
    ("veronese.kernel_dim_sum", "count"),
    ("veronese.power_instances", "count"),
    ("veronese.power_s", "s"),
    ("cli.main_self_s", "s"),
    ("domains.prime_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly across two traced runs at the same seed.
EXACT_COUNTS = (
    "rank.jacobians",
    "rank.pivot_retries",
    "rank.elim_cells",
    "poly.mul_calls",
    "poly.mul_pairs",
    "theory.verdict_calls",
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "neurovar" or name.startswith("neurovar."))]


class Patches:
    """Replaces a function in every package module that references it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def set_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; `install` wraps the package's layer entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.poly_depth = 0
        self.best: list[int] = []  # best rank so far, per open generic_rank call
        self.jacobians = 0
        self.useful = 0
        self.pivot_retries = 0
        self.elim_cells = 0
        self.kernel_dim_sum = 0
        self.emit_bytes = 0
        self.patches = Patches()

    # -- wrappers -------------------------------------------------------------

    def _open(self, name):
        stack = self.stack
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, 0.0, 0, 0, 0.0, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = end = perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += end - rec[START]

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _jacobian(self, fn):
        def wrapper(*args, **kwargs):
            rec = self._open("rank.jacobian_at")
            try:
                sample = fn(*args, **kwargs)
            except PivotVanishes:
                self.pivot_retries += 1
                raise
            finally:
                self._close(rec)
            self.jacobians += 1
            if not self.best or sample.rank > self.best[-1]:
                self.useful += 1
                if self.best:
                    self.best[-1] = sample.rank
            return sample

        wrapper.__wrapped__ = fn
        return wrapper

    def _generic_rank(self, fn):
        def wrapper(*args, **kwargs):
            self.best.append(-1)
            rec = self._open("rank.generic_rank")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                self.best.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _exact_rank(self, fn):
        def wrapper(matrix, *args, **kwargs):
            if matrix:
                self.elim_cells += len(matrix) * len(matrix[0])
            rec = self._open("rank.exact_rank")
            try:
                return fn(matrix, *args, **kwargs)
            finally:
                self._close(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def _poly(self, fn, is_mul):
        spans, stack = self.spans, self.stack

        def wrapper(a, b):
            self.poly_depth += 1
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                dt = perf_counter() - start
                self.poly_depth -= 1
                if stack:
                    rec = spans[stack[-1]]
                    if not self.poly_depth:
                        rec[CHILD_S] += dt
                    if is_mul:
                        rec[MUL_CALLS] += 1
                        rec[MUL_PAIRS] += len(a.terms) * len(b.terms)
                        rec[MUL_S] += dt
                    else:
                        rec[POW_CALLS] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        p = self.patches

        def on_emit(args, text):
            self.emit_bytes += len(text.encode())

        def on_relations(args, basis):
            self.kernel_dim_sum += len(basis)

        for name, fn, after in (
            ("scan.scan", scan.scan, None),
            ("scan.emit_report", scan.emit_report, on_emit),
            ("theory.verdict", theory.theorem_verdict, None),
            ("rank.stats", rank.neurovariety_stats, None),
            ("network.gauge", network.gauge_fix, None),
            ("veronese.relations", veronese.image_linear_relations, on_relations),
            ("veronese.power", veronese.power_threshold_scan, None),
            ("veronese.power_instance", veronese.power_independence, None),
            ("cli.main", cli.main, None),
            ("domains.prime", domains.random_prime, None),
        ):
            p.replace(fn, self.span(name, fn, after))
        p.replace(rank.jacobian_at, self._jacobian(rank.jacobian_at))
        p.replace(rank.generic_rank, self._generic_rank(rank.generic_rank))
        p.replace(rank.exact_rank, self._exact_rank(rank.exact_rank))
        p.replace(poly.poly_pow, self._poly(poly.poly_pow, False))
        p.set_attr(domains.PrimeField, "__init__",
                   self.span("domains.prime", domains.PrimeField.__init__))
        p.set_attr(poly.SparsePoly, "__mul__", self._poly(poly.SparsePoly.__mul__, True))

    def uninstall(self) -> None:
        self.patches.undo()

    def begin_op(self, op_id) -> None:
        """Tag the spans that follow with the op they serve."""
        self.op = op_id

    # -- results --------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum((r[END] - r[START] - r[CHILD_S] for r in self.spans if r[NAME] == name), 0.0)

    def calls(self, name: str) -> int:
        return sum(1 for r in self.spans if r[NAME] == name)

    def layer_totals(self) -> dict:
        """Totals over everything traced so far, keyed by metric name.

        `scan.rows`, the useful-Jacobian ratio and the tracing overhead are
        left to the runner, which owns the rows, the passes and the clock.
        """
        spans = self.spans
        return {
            "scan.self_s": self.self_seconds("scan.scan"),
            "scan.emit_s": self.self_seconds("scan.emit_report"),
            "scan.emit_bytes": self.emit_bytes,
            "theory.verdict_calls": self.calls("theory.verdict"),
            "theory.verdict_s": self.self_seconds("theory.verdict"),
            "network.gauge_calls": self.calls("network.gauge"),
            "network.gauge_s": self.self_seconds("network.gauge"),
            "rank.jacobians": self.jacobians,
            "rank.useful_jacobians": self.useful,
            "rank.pivot_retries": self.pivot_retries,
            "rank.jacobian_self_s": self.self_seconds("rank.jacobian_at"),
            "rank.elim_calls": self.calls("rank.exact_rank"),
            "rank.elim_s": self.self_seconds("rank.exact_rank"),
            "rank.elim_cells": self.elim_cells,
            "poly.mul_calls": sum(r[MUL_CALLS] for r in spans),
            "poly.mul_pairs": sum(r[MUL_PAIRS] for r in spans),
            "poly.mul_s": sum(r[MUL_S] for r in spans),
            "poly.pow_calls": sum(r[POW_CALLS] for r in spans),
            "veronese.relations_s": self.self_seconds("veronese.relations"),
            "veronese.kernel_dim_sum": self.kernel_dim_sum,
            "veronese.power_instances": self.calls("veronese.power_instance"),
            "veronese.power_s": self.self_seconds("veronese.power")
            + self.self_seconds("veronese.power_instance"),
            "cli.main_self_s": self.self_seconds("cli.main"),
            "domains.prime_s": self.self_seconds("domains.prime"),
        }

    def write_spans(self, path) -> None:
        """One JSON object per span; poly aggregates ride on their parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.spans:
                fh.write(json.dumps({
                    "name": r[NAME], "start": r[START], "end": r[END], "parent": r[PARENT],
                    "op": r[OP], "self_s": r[END] - r[START] - r[CHILD_S],
                    "mul_calls": r[MUL_CALLS], "mul_pairs": r[MUL_PAIRS],
                    "mul_s": r[MUL_S], "pow_calls": r[POW_CALLS],
                }) + "\n")

