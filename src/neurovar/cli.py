"""Command-line surface: dimension reports, verdicts, scans, and lab utilities.

Verbs:
    dims             sampled dimension report for one architecture
    check            theorem-condition verdict with its evidence
    scan             exhaustive grid scan with disagreement flags
    veronese-secant  sampled secant dimension of a Veronese variety
    power-indep      random power-independence trials
    relations        linear relations on a composite Veronese image

Exit codes (each error one `error:` line on stderr): 0 success, 1 failed
--confirm-rational re-check or estimated work past `poly.WORK_CAP` (`scan`
skips such rows, counting them on stderr), 2 invalid input, 3 sampling
exhausted, 4 I/O error.
Reports depend on the arguments alone: every --seed defaults to
`rank.DEFAULT_SEED`, and `scan` runs one worker per CPU the process may use
(bound them with `taskset`), with the same rows on any schedule.
"""

from __future__ import annotations

import argparse
import json
import sys

from .domains import RATIONALS
from .errors import ArchitectureError, NeurovarError, SamplingExhausted
from .network import gauge_fix, validate
from .poly import refuse_past_cap
from .rank import (
    DEFAULT_SEED,
    DEFAULT_TRIES,
    derive_seed,
    generic_rank,
    neurovariety_stats,
    resolve_domain,
    sampling_steps,
)
from .scan import ScanSpec, emit_report, grid_architectures, report_record, scan_architectures
from .theory import expected_secant_dim, ah_secant_defective, theorem_verdict, verdict_steps
from .veronese import composite_veronese, empirical_secant_dim, image_linear_relations, power_threshold_scan


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _prime_arg(text: str) -> int | None:
    """The --prime value: None for 'auto', else the modulus."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--prime must be 'auto' or an integer, got {text!r}") from None


def _add_sampling_args(sub):
    sub.add_argument("--tries", type=int, default=DEFAULT_TRIES)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    sub.add_argument("--field", choices=("prime", "rational"), default="prime")
    sub.add_argument("--prime", default="auto", help="'auto' or an explicit prime modulus")


def _add_output_args(sub):
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--out", default=None, help="write output to this path")


def _emit(args, record: dict, lines: list[str]) -> None:
    """Write `record` as indented JSON with --json, else `lines`, one per line,
    to stdout or the --out path."""
    text = (json.dumps(record, indent=2) if args.json else "\n".join(lines)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {args.out}: {exc}") from exc


def cmd_dims(args) -> int:
    arch = validate(_int_list(args.widths), _int_list(args.degrees or ""))
    domain = resolve_domain(args.field, _prime_arg(args.prime), args.seed)
    refuse_past_cap(arch.label(), sampling_steps(arch, args.tries + 3 * args.confirm_rational))
    report = neurovariety_stats(arch, tries=args.tries, seed=args.seed, domain=domain)
    verdict_label = theorem_verdict(arch).label() if arch.depth >= 2 else "NotApplicable"

    if args.confirm_rational and args.field == "prime":
        confirm_seed = derive_seed(args.seed, "confirm-rational")
        rational_rank, _ = generic_rank(
            gauge_fix(arch), tries=3, seed=confirm_seed, domain=RATIONALS
        )
        if rational_rank != report.dim_actual:
            print(
                f"warning: rational re-check rank {rational_rank} != "
                f"prime-field rank {report.dim_actual}",
                file=sys.stderr,
            )
            return 1

    record = report_record(arch, report, verdict_label)
    lines = [
        f"architecture      {arch.label()}",
        f"expdim            {report.expdim_general}",
        f"expdim_refined    {report.expdim_refined if report.expdim_refined is not None else '-'}",
        f"dim_actual        {report.dim_actual}",
        f"fiber_dim         {report.fiber_dim}",
        f"defective         {str(report.defective).lower()}",
        f"verdict           {verdict_label}",
        f"trials/seed       {report.trials}/{report.seed}",
        f"domain            {report.domain_kind}"
        + (f" (p={report.prime})" if report.prime is not None else ""),
        f"pivot             {record['pivot']}",
        f"witness           {report.witness}",
    ]
    _emit(args, record, lines)
    return 0


def cmd_check(args) -> int:
    arch = validate(_int_list(args.widths), _int_list(args.degrees or ""))
    refuse_past_cap(arch.label(), verdict_steps(arch))
    verdict = theorem_verdict(arch)
    q, c3 = verdict.ah_query, verdict.condition3
    record = {
        "arch": list(arch.widths),
        "degrees": list(arch.degrees),
        "verdict": verdict.label(),
        "room": [lv._asdict() for lv in verdict.room],
        "last_veronese": {"nvars": q[0], "deg": q[1], "secant_order": q[2],
                          "defective": verdict.ah_defective},
        "condition3": c3._asdict() if c3 is not None else None,
    }
    lines = [f"architecture      {arch.label()}", f"verdict           {verdict.label()}"]
    for lv in verdict.room:
        cmp = "<" if lv.holds else ">="
        lines.append(f"room level {lv.layer}      {lv.lhs} {cmp} {lv.rhs}")
    lines.append(
        f"last Veronese     V^{q[0]-1}_{q[1]} secant order {q[2]}: "
        + ("defective" if verdict.ah_defective else "not defective")
    )
    if c3 is not None:
        lines.append(
            f"condition (iii)   single-output expdim {c3.single_output_expdim} "
            f"vs parameters {c3.parameter_count}: {'holds' if c3.holds else 'fails'}"
        )
    _emit(args, record, lines)
    return 0


def cmd_scan(args) -> int:
    spec = ScanSpec(
        depths=tuple(_int_list(args.depths)),
        min_width=args.min_width,
        max_width=args.max_width,
        max_out_width=args.max_out,
        min_degree=args.min_degree,
        max_degree=args.max_degree,
        tries=args.tries,
        seed=args.seed,
        field=args.field,
        prime=_prime_arg(args.prime),
        max_free=args.max_free,
        max_ambient=args.max_ambient,
    )
    archs, past_cap = grid_architectures(spec)
    rows = scan_architectures(spec, archs)
    text = emit_report(rows, fmt="csv" if args.csv else "json", path=args.out)
    if args.out is None:
        sys.stdout.write(text)
    disagreements = [r for r in rows if not r.agreement]
    errors = sum(1 for r in rows if r.error)
    print(f"scanned {len(rows)} architectures: {len(disagreements)} disagreements, "
          f"{errors} errors, {past_cap} skipped past the work cap", file=sys.stderr)
    for r in disagreements:
        print(f"  disagreement: {r.arch.label()}", file=sys.stderr)
    return 3 if errors else 0


def cmd_veronese_secant(args) -> int:
    domain = resolve_domain(args.field, _prime_arg(args.prime), args.seed)
    dim = empirical_secant_dim(
        args.nvars, args.deg, args.secant, tries=args.tries, seed=args.seed, domain=domain
    )
    expected = expected_secant_dim(args.nvars, args.deg, args.secant)
    record = {
        "nvars": args.nvars,
        "deg": args.deg,
        "secant_order": args.secant,
        "expected_dim": expected,
        "dim": dim,
        "defective": dim < expected,
        "table_defective": ah_secant_defective(args.nvars, args.deg, args.secant),
        "trials": args.tries,
        "seed": args.seed,
        "domain": domain.kind,
        "prime": str(domain.p) if domain.p else None,
    }
    _emit(args, record, [
        f"Sec_{args.secant}(V^{args.nvars - 1}_{args.deg}): dim {dim} "
        f"(expected {expected}) -> " + ("defective" if record["defective"] else "not defective")
    ])
    return 0


def cmd_power_indep(args) -> int:
    report = power_threshold_scan(
        args.vars,
        args.count,
        args.form_degree,
        args.trials,
        seed=args.seed,
        power=args.power,
        find_min_power=args.find_min,
    )
    record = {
        "vars": report.nvars,
        "count": report.count,
        "form_degree": report.form_degree,
        "power": report.power,
        "trials": report.trials,
        "independent": report.independent,
        "all_independent": report.all_independent,
        "min_powers": list(report.min_powers) if report.min_powers is not None else None,
        "seed": args.seed,
    }
    _emit(args, record, [
        f"{report.independent}/{report.trials} instances independent at power r={report.power}"
    ])
    return 0


def cmd_relations(args) -> int:
    cv = composite_veronese(args.nvars, _int_list(args.degrees))
    relations = [f"-1*z{c} + 1*z{f}" for c, f in image_linear_relations(cv, seed=args.seed)]
    record = {
        "nvars": args.nvars,
        "degrees": _int_list(args.degrees),
        "ambient": cv.ambient,
        "kernel_dim": len(relations),
        "relations": relations,
        "seed": args.seed,
    }
    lines = [f"ambient coordinates: {cv.ambient}", f"kernel dimension: {len(relations)}"]
    _emit(args, record, lines + [f"  {rel}" for rel in relations])
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input, reported by `main`
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neurovar",
        description="Exact dimension computations for polynomial neural network varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    dims = subs.add_parser("dims", help="sampled dimension report for one architecture")
    dims.add_argument("-n", "--widths", required=True, help="comma-separated widths n0,n1,...")
    dims.add_argument("-d", "--degrees", default="", help="comma-separated degrees d1,...")
    _add_sampling_args(dims)
    dims.add_argument(
        "--confirm-rational",
        action="store_true",
        help="re-verify the sampled rank over the rationals",
    )
    _add_output_args(dims)
    dims.set_defaults(func=cmd_dims)

    check = subs.add_parser("check", help="theorem-condition verdict with evidence")
    check.add_argument("-n", "--widths", required=True)
    check.add_argument("-d", "--degrees", default="")
    _add_output_args(check)
    check.set_defaults(func=cmd_check)

    sc = subs.add_parser("scan", help="exhaustive scan over bounded architectures")
    spec = ScanSpec()
    sc.add_argument("--depths", default=",".join(map(str, spec.depths)), help="comma-separated depths L")
    sc.add_argument("--min-width", type=int, default=spec.min_width)
    sc.add_argument("--max-width", type=int, default=spec.max_width)
    sc.add_argument("--max-out", type=int, default=spec.max_out_width, help="output width bound")
    sc.add_argument("--min-degree", type=int, default=spec.min_degree)
    sc.add_argument("--max-degree", type=int, default=spec.max_degree)
    sc.add_argument("--max-free", type=int, default=spec.max_free, help="free-weight pre-filter")
    sc.add_argument("--max-ambient", type=int, default=spec.max_ambient, help="ambient pre-filter")
    _add_sampling_args(sc)
    sc.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    sc.add_argument("--out", default=None)
    sc.set_defaults(func=cmd_scan)

    vs = subs.add_parser("veronese-secant", help="sampled secant dimension of a Veronese")
    vs.add_argument("-n", "--nvars", type=int, required=True, help="variable count")
    vs.add_argument("-d", "--deg", type=int, required=True, help="Veronese degree")
    vs.add_argument("-s", "--secant", type=int, required=True, help="secant order")
    _add_sampling_args(vs)
    _add_output_args(vs)
    vs.set_defaults(func=cmd_veronese_secant)

    pi = subs.add_parser("power-indep", help="power independence of random forms")
    pi.add_argument("--vars", type=int, required=True, help="number of variables")
    pi.add_argument("--count", type=int, required=True, help="number of forms k")
    pi.add_argument("--form-degree", type=int, required=True, help="common degree s")
    pi.add_argument("--trials", type=int, default=50)
    pi.add_argument("--power", type=int, default=None, help="power r (default k-1)")
    pi.add_argument("--find-min", action="store_true", help="record minimal independent power")
    pi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_args(pi)
    pi.set_defaults(func=cmd_power_indep)

    rel = subs.add_parser("relations", help="linear relations on a composite Veronese image")
    rel.add_argument("-n", "--nvars", type=int, required=True, help="source variable count")
    rel.add_argument("-d", "--degrees", required=True, help="comma-separated stage degrees")
    rel.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_args(rel)
    rel.set_defaults(func=cmd_relations)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ArchitectureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NeurovarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
