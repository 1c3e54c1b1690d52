"""Command-line interface and benchmark harness.

Subcommands:
    csm       full class, Euler characteristic, and presentation report
    euler     Euler characteristic only
    chow      Chow presentation summary (relations, graded dimensions)
    validate  run fan validation and report the outcome
    bench     timing table over a suite of builder fans

A fan comes from exactly one of ``--fan FILE`` or ``--builder SPEC``
(``pn=N``, ``hirzebruch=R``, ``wps=q0,q1,...``; ``*`` joins product
factors).  Each subcommand accepts only the flags it reads.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .chow import build_presentation, graded_dimensions
from .csm import csm_result, euler_characteristic
from .errors import InternalError, ValidationError
from .fan import Fan, hirzebruch, is_smooth, multiplicity, product, projective_space, weighted_projective
from .formats import parse_fan_file, render_class

__all__ = ["main", "console_main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the documented
    # contract reserves 2 for validation problems, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _builder_fan(spec: str) -> Fan:
    """Build a fan from a builder spec, e.g. ``pn=6`` or ``pn=5*pn=6``."""
    parts = spec.split("*")
    fans = []
    for part in parts:
        name, _, arg = part.partition("=")
        name = name.strip()
        if name not in ("pn", "hirzebruch", "wps"):
            raise UsageError(f"unknown builder {name!r} (expected pn, hirzebruch, or wps)")
        try:
            values = [int(q) for q in arg.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad builder argument in {part!r}: {exc}") from exc
        if name == "wps":
            fans.append(weighted_projective(values))
        elif len(values) != 1:
            raise UsageError(f"builder {name!r} takes a single integer, got {arg!r}")
        elif name == "pn":
            fans.append(projective_space(values[0]))
        else:
            fans.append(hirzebruch(values[0]))
    fan = fans[0]
    for f in fans[1:]:
        fan = product(fan, f)
    return fan


def _resolve_fan(args) -> tuple[Fan, str]:
    if args.fan:
        fan, name = parse_fan_file(args.fan, validate=not args.trust_input)
        return fan, name or args.fan
    return _builder_fan(args.builder), args.builder


def _parse_elim(arg: str | None):
    if arg is None:
        return None
    try:
        return tuple(int(t) for t in arg.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --elim-cone value {arg!r}: {exc}") from exc


def _fan_summary(fan: Fan) -> dict:
    return {
        "dim": fan.ambient_dim,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "smooth": is_smooth(fan),
    }


def _describe(source: str, summary: dict) -> str:
    return (
        f"{source} (dim {summary['dim']}, {summary['rays']} rays, "
        f"{summary['max_cones']} maximal cones, "
        f"{'smooth' if summary['smooth'] else 'singular'})"
    )


def _variables(indices) -> str:
    return ", ".join(f"x{i}" for i in indices)


def _singular_cones(fan: Fan) -> list[tuple[tuple[int, ...], int]]:
    mults = ((c.ray_indices, multiplicity(fan, c)) for c in fan.max_cones)
    return sorted((idx, m) for idx, m in mults if m != 1)


def _run_report(args) -> tuple[dict, str]:
    """The csm report as a JSON-ready dict and as human text."""
    fan, source = _resolve_fan(args)
    elim = _parse_elim(args.elim_cone)
    t0 = time.perf_counter()
    pres = build_presentation(fan, elim)
    t1 = time.perf_counter()
    csm_str = None
    if args.euler_only:
        euler = euler_characteristic(
            fan, True, pres, force_hnf=args.force_hnf, threads=args.threads
        )
    else:
        result = csm_result(fan, pres, force_hnf=args.force_hnf, threads=args.threads)
        csm_str = render_class(result.csm_class)
        euler = result.euler
    t2 = time.perf_counter()
    summary = _fan_summary(fan)
    eliminated, kept = pres.elim_cone.ray_indices, pres.kept
    dims = graded_dimensions(pres)
    singular = _singular_cones(fan)
    report = {
        "source": source,
        "fan": summary,
        "presentation": {
            "eliminated": list(eliminated),
            "kept": list(kept),
            "graded_dimensions": list(dims),
        },
        "singular_cones": [{"cone": list(c), "mult": m} for c, m in singular],
        "csm": csm_str,
        "euler": euler,
        "timings": {"chow_seconds": t1 - t0, "class_seconds": t2 - t1},
    }
    lines = [
        f"fan: {_describe(source, summary)}",
        f"eliminated: {_variables(eliminated)}; kept: {_variables(kept)}",
        f"graded dimensions: {' '.join(map(str, dims))}",
    ]
    if singular:
        lines.append(
            "singular cones: "
            + ", ".join(f"({','.join(map(str, c))}) mult {m}" for c, m in singular)
        )
    if csm_str is not None:
        lines.append(f"c_SM = {csm_str}")
    lines.append(f"chi = {euler}")
    lines.append(f"timing: chow ring {t1 - t0:.3f}s, class {t2 - t1:.3f}s")
    return report, "\n".join(lines)


def _cmd_csm(args) -> int:
    report, text = _run_report(args)
    print(json.dumps(report, indent=2) if args.json else text)
    return 0


def _cmd_euler(args) -> int:
    fan, _ = _resolve_fan(args)
    elim = _parse_elim(args.elim_cone)
    pres = build_presentation(fan, elim)
    chi = euler_characteristic(fan, True, pres, force_hnf=args.force_hnf, threads=args.threads)
    print(json.dumps({"euler": chi}) if args.json else chi)
    return 0


def _cmd_chow(args) -> int:
    fan, source = _resolve_fan(args)
    elim = _parse_elim(args.elim_cone)
    t0 = time.perf_counter()
    pres = build_presentation(fan, elim)
    dt = time.perf_counter() - t0
    nonfaces = [render_class({tuple((j, 1) for j in s): Fraction(1)}) for s in pres.nonfaces]
    relations = [
        render_class({((j, 1),): Fraction(c) for j, c in enumerate(form) if c})
        for form in pres.linear_forms
    ]
    subst = {f"x{ray}": render_class(cls) for ray, cls in sorted(pres.substitution.items())}
    dims = graded_dimensions(pres)
    summary = _fan_summary(fan)
    if args.json:
        report = {
            "source": source,
            "fan": summary,
            "presentation": {
                "nonfaces": nonfaces,
                "linear_relations": relations,
                "eliminated": list(pres.elim_cone.ray_indices),
                "kept": list(pres.kept),
                "substitution": subst,
                "graded_dimensions": list(dims),
            },
            "timings": {"chow_seconds": dt},
        }
        print(json.dumps(report, indent=2))
        return 0
    print(f"fan: {_describe(source, summary)}")
    print(f"stanley-reisner non-faces: {', '.join(nonfaces)}")
    print(f"linear relations: {', '.join(relations)}")
    print(f"eliminated: {_variables(pres.elim_cone.ray_indices)}; kept: {_variables(pres.kept)}")
    print("substitution: " + ", ".join(f"{v} = {s}" for v, s in subst.items()))
    print(f"graded dimensions: {' '.join(map(str, dims))}")
    print(f"timing: chow ring {dt:.3f}s")
    return 0


def _cmd_validate(args) -> int:
    fan, source = _resolve_fan(args)
    verdict = "skipped (trusted input)" if args.trust_input else "passed"
    summary = _fan_summary(fan)
    if args.json:
        print(json.dumps({"source": source, "validation": verdict, **summary}))
    else:
        print(f"validation {verdict}: {_describe(source, summary)}")
    return 0


_BENCH_DEFAULTS = [
    "pn=6",
    "pn=5*pn=6",
    "pn=5*pn=8",
    "pn=6*pn=7",
    "pn=4*pn=4*pn=4",
    "hirzebruch=1",
    "hirzebruch=5",
    "hirzebruch=10",
    "wps=1,1,2",
    "wps=1,1,3",
    "pn=1*pn=1*pn=1*pn=1*pn=1*pn=1*pn=1",
    "pn=1*pn=1*pn=1*pn=1*pn=1*pn=1*pn=1*pn=1",
]


def _cmd_bench(args) -> int:
    specs = args.only or _BENCH_DEFAULTS
    rows = []
    for spec in specs:
        row = {"input": spec}
        fan = _builder_fan(spec)
        t0 = time.perf_counter()
        build_presentation(fan)
        row["chow_seconds"] = time.perf_counter() - t0
        if args.euler_only:
            fresh = _builder_fan(spec)
            fp = build_presentation(fresh)
            t0 = time.perf_counter()
            chi = euler_characteristic(fresh, True, fp, threads=args.threads)
            row["euler_only_seconds"] = time.perf_counter() - t0
            row["chi"] = chi
        else:
            # Fresh fans per path so cached multiplicities cannot leak
            # between the timed runs.
            fresh = _builder_fan(spec)
            fp = build_presentation(fresh)
            t0 = time.perf_counter()
            res_fast = csm_result(fresh, fp, threads=args.threads)
            row["csm_fast_seconds"] = time.perf_counter() - t0

            fresh = _builder_fan(spec)
            fp = build_presentation(fresh)
            t0 = time.perf_counter()
            res_forced = csm_result(fresh, fp, force_hnf=True, threads=args.threads)
            row["csm_forced_seconds"] = time.perf_counter() - t0
            if res_fast.csm_class != res_forced.csm_class:
                raise InternalError(f"fast/forced path mismatch for {spec}")

            fresh = _builder_fan(spec)
            fp = build_presentation(fresh)
            t0 = time.perf_counter()
            chi = euler_characteristic(fresh, True, fp, threads=args.threads)
            row["euler_only_seconds"] = time.perf_counter() - t0
            row["chi"] = chi
        rows.append(row)

    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    cols = ["input", "chow_seconds", "csm_fast_seconds", "csm_forced_seconds", "euler_only_seconds", "chi"]
    if args.euler_only:
        cols = ["input", "chow_seconds", "euler_only_seconds", "chi"]
    header = {"input": "input", "chow_seconds": "chow(s)", "csm_fast_seconds": "csm fast(s)",
              "csm_forced_seconds": "csm forced(s)", "euler_only_seconds": "euler-only(s)", "chi": "chi"}
    widths = {c: max(len(header[c]), *(len(_cell(r.get(c))) for r in rows)) for c in cols}
    print("  ".join(header[c].ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_cell(r.get(c)).ljust(widths[c]) for c in cols))
    return 0


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, to share it between subcommands."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*names, **kwargs)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it takes about 20 times as long as a parse."""
    json_flag = _flag("--json", action="store_true", help="machine-readable output")
    threads = _flag("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker threads for per-cone work (results are identical for any value)")
    elim_cone = _flag("--elim-cone", metavar="I1,..,IN", default=None,
                      help="maximal cone whose variables are eliminated "
                           "(default: lexicographically smallest)")
    force_hnf = _flag("--force-hnf", action="store_true",
                      help="compute every cone multiplicity even for smooth fans, "
                           "where each is otherwise taken to be 1")

    fansrc = argparse.ArgumentParser(add_help=False)
    group = fansrc.add_mutually_exclusive_group(required=True)
    group.add_argument("--fan", metavar="FILE", help="fan file to read")
    group.add_argument("--builder", metavar="SPEC",
                       help="builder spec: pn=N | hirzebruch=R | wps=q0,q1,... ('*' joins factors)")
    fansrc.add_argument("--trust-input", action="store_true",
                        help="skip fan validation (completeness is then unchecked)")

    parser = _Parser(
        prog="toric-csm",
        description="Exact Chern-Schwartz-MacPherson classes and Euler characteristics "
                    "of complete simplicial toric varieties, from fan data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    csm = sub.add_parser("csm", parents=[fansrc, elim_cone, force_hnf, json_flag, threads],
                         help="compute the class and chi")
    csm.add_argument("--euler-only", action="store_true",
                     help="skip the class; compute only the Euler characteristic")
    sub.add_parser("euler", parents=[fansrc, elim_cone, force_hnf, json_flag, threads],
                   help="compute only chi")
    sub.add_parser("chow", parents=[fansrc, elim_cone, json_flag],
                   help="show the Chow presentation")
    sub.add_parser("validate", parents=[fansrc, json_flag], help="validate a fan")
    bench = sub.add_parser("bench", parents=[json_flag, threads], help="run the timing suite")
    bench.add_argument("--only", action="append", metavar="SPEC",
                       help="restrict the suite to these builder specs (repeatable)")
    bench.add_argument("--euler-only", action="store_true",
                       help="time only the Euler-characteristic path")
    return parser


_COMMANDS = {
    "csm": _cmd_csm,
    "euler": _cmd_euler,
    "chow": _cmd_chow,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"toric-csm: error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"toric-csm: validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"toric-csm: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError and anything else unexpected
        print(f"toric-csm: internal error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
