"""Command-line interface.

Subcommands:
    csm       full class, Euler characteristic, and presentation report
    euler     Euler characteristic only
    chow      Chow presentation summary (relations, graded dimensions)
    validate  run fan validation and report the outcome

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
from json.encoder import encode_basestring_ascii

from .chow import build_presentation, graded_dimensions
from .csm import csm_result, euler_characteristic
from .errors import ValidationError, int_text
from .fan import Fan, hirzebruch, is_smooth, multiplicity, product, projective_space, weighted_projective
from .formats import _int_of, parse_fan_file, render_class

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
            values = [_int_of(q) for q in arg.split(",")]
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
        fan, name = parse_fan_file(args.fan)
        return fan, name or args.fan
    return _builder_fan(args.builder), args.builder


def _parse_elim(arg: str | None):
    if arg is None:
        return None
    try:
        return tuple(_int_of(t) for t in arg.split(","))
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


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, the same text, for values built of
    dicts with str keys, lists, str, int, finite float, bool and None.

    ``json.dumps`` with an indent runs the pure-Python encoder, whose
    nested closures leave cyclic garbage behind on every call; this
    leaves none.  Like that encoder, it collects small pieces in one list
    and joins them once, so it builds no large intermediate string.
    """
    parts: list[str] = []
    _json_pieces(value, "\n", parts)
    return "".join(parts)


def _json_pieces(value, indent: str, parts: list[str]) -> None:
    """Append the pieces of ``value``'s text to ``parts``; ``indent`` is
    the newline and indentation that precede its closing bracket."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int_text(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for key, item in value.items():
            parts += (sep, inner, encode_basestring_ascii(key), ": ")
            _json_pieces(item, inner, parts)
            sep = ","
        parts += (indent, "}") if value else ("{}",)
    elif isinstance(value, list):
        inner, sep = indent + "  ", "["
        for item in value:
            parts += (sep, inner)
            _json_pieces(item, inner, parts)
            sep = ","
        parts += (indent, "]") if value else ("[]",)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _run_report(args) -> tuple[dict, str]:
    """The csm report as a JSON-ready dict and as human text."""
    fan, source = _resolve_fan(args)
    elim = _parse_elim(args.elim_cone)
    t0 = time.perf_counter()
    pres = build_presentation(fan, elim)
    t1 = time.perf_counter()
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
            + ", ".join(f"({','.join(map(str, c))}) mult {int_text(m)}" for c, m in singular)
        )
    lines.append(f"c_SM = {csm_str}")
    lines.append(f"chi = {euler}")
    lines.append(f"timing: chow ring {t1 - t0:.3f}s, class {t2 - t1:.3f}s")
    return report, "\n".join(lines)


def _cmd_csm(args) -> int:
    report, text = _run_report(args)
    print(_json_text(report) if args.json else text)
    return 0


def _cmd_euler(args) -> int:
    fan, _ = _resolve_fan(args)
    elim = _parse_elim(args.elim_cone)
    pres = build_presentation(fan, elim)
    chi = euler_characteristic(fan, pres)
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
        print(_json_text(report))
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
    summary = _fan_summary(fan)
    if args.json:
        print(json.dumps({"source": source, "validation": "passed", **summary}))
    else:
        print(f"validation passed: {_describe(source, summary)}")
    return 0


def _thread_count(arg: str) -> int:
    try:
        count = _int_of(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


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
    threads = _flag("--threads", type=_thread_count, default=os.cpu_count() or 1,
                    help="worker threads for per-cone work (results are identical for any value)")
    elim_cone = _flag("--elim-cone", metavar="I1,..,IN", default=None,
                      help="maximal cone whose variables are eliminated "
                           "(default: lexicographically smallest)")
    force_hnf = _flag("--force-hnf", action="store_true",
                      help="compute every cone multiplicity; faces of unimodular maximal "
                           "cones are otherwise taken to be unimodular")

    fansrc = argparse.ArgumentParser(add_help=False)
    group = fansrc.add_mutually_exclusive_group(required=True)
    group.add_argument("--fan", metavar="FILE", help="fan file to read")
    group.add_argument("--builder", metavar="SPEC",
                       help="builder spec: pn=N | hirzebruch=R | wps=q0,q1,... ('*' joins factors)")

    parser = _Parser(
        prog="toric-csm",
        description="Exact Chern-Schwartz-MacPherson classes and Euler characteristics "
                    "of complete simplicial toric varieties, from fan data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("csm", parents=[fansrc, elim_cone, force_hnf, json_flag, threads],
                   help="compute the class and chi")
    sub.add_parser("euler", parents=[fansrc, elim_cone, json_flag], help="compute only chi")
    sub.add_parser("chow", parents=[fansrc, elim_cone, json_flag],
                   help="show the Chow presentation")
    sub.add_parser("validate", parents=[fansrc, json_flag], help="validate a fan")
    return parser


_COMMANDS = {
    "csm": _cmd_csm,
    "euler": _cmd_euler,
    "chow": _cmd_chow,
    "validate": _cmd_validate,
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
