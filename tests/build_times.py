"""Time ``build_presentation``, or with ``--nonfaces`` only
``chow.stanley_reisner_nonfaces``, on the ROADMAP's Baseline fans for
several source trees, each in its own subprocess, in interleaved rounds.
With ``--formats`` it times the formats layer instead: ``parse_fan_text``
on each fan's text and ``render_class`` on its csm class, as two rows.
With ``--validate`` it times validation alone: ``Fan(dim, rays, cones)``
on each fan's raw rays and maximal cones.

    python tests/build_times.py --src A/src --src B/src [--rounds 5] [--seed 1] [--nonfaces | --formats | --validate] [--fan 'P^3 + 20' ...]

Each round times every fan under every tree, one after the other, each
in a fresh interpreter that imports ``toriccsm`` from that tree's
``src``; the tree that goes first alternates from round to round.  In
one run the fan is built (or validated, or parsed, or its class
rendered) again and again until half a second has passed, at least
once, and the fastest pass counts.

The report gives, per fan and tree, the min-max of those times over the
rounds; for every tree after the first, the ratio of its time to the
first tree's in the same round (median and min-max over the rounds), and
in how many rounds it was faster.

The fans are named as in ROADMAP's Baseline: ``P^n + k`` is
``helpers.stellar_fan(n, k, 1)``, and a product is written with ``*``.
The names of the perfbench workloads stand for every file of that
workload that ``--seed`` generates (default 1, the seed of ROADMAP's
Baseline; the benchmark runs seed 0), each built under its
``--elim-cone``, timed as one sum.  The
text ``--formats`` parses is the file's; for any other fan it is
``render_fan``'s.  A build of P^3 + 60, P^4 + 40 or P^2 + 100 takes
seconds to minutes; their non-face listing alone takes well under a
second.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("wide-presentation", "deep-cones", "singular-batch")
FANS = (
    "(P1)^10",
    "(P1)^12",
    "pn=4*pn=4*pn=4",
    "wps=1,1,3*pn=5*pn=6",
    "P^3 + 12",
    "P^3 + 20",
    "P^4 + 20",
    "P^5 + 10",
    "P^3 + 30",
    "P^3 + 60",
    "P^4 + 40",
    "P^2 + 100",
    "P^3 + 120",
    *WORKLOADS,
)
BUDGET_S = 0.5
# the rows each kind of timing reports per fan, after the fan's name
PARTS = {"build": ("",), "nonfaces": ("",), "validate": ("",), "formats": (" parse", " render")}


def _cases(name: str, tc, seed: int) -> list[tuple]:
    """(fan, elimination cone or None, fan text) of every build the fan
    name stands for, with ``toriccsm`` imported as ``tc``; a workload's
    files are those of ``seed``."""
    from helpers import stellar_fan

    if name in WORKLOADS:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        with tempfile.TemporaryDirectory() as workdir:
            rounds = workloads.generate(tc, name, seed, Path(workdir))
            texts = [
                ((Path(workdir) / case.file).read_text(), case.elim_cone)
                for cases in rounds
                for case in cases
            ]
        return [(tc.formats.parse_fan_text(text)[0], elim, text) for text, elim in texts]
    if name.startswith("P^"):
        n, k = name[2:].split(" + ")
        fan = stellar_fan(int(n), int(k), 1)
    else:
        spec = "*".join(["pn=1"] * int(name[5:])) if name.startswith("(P1)^") else name
        fan = tc.cli._builder_fan(spec)
    return [(fan, None, tc.render_fan(fan))]


def _fastest(timed, cases: list[tuple]) -> float:
    """Fastest pass of ``timed`` over every argument tuple, in seconds."""
    best, start = float("inf"), time.perf_counter()
    while best == float("inf") or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter()
        for args in cases:
            timed(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _worker(name: str, kind: str = "build", seed: int = 1) -> list[float]:
    """Fastest times of the fan, one per row of ``PARTS[kind]``: its
    build, its non-face listing, its validation, or the parse of its text
    and the rendering of its csm class."""
    import toriccsm as tc
    import toriccsm.cli  # noqa: F401

    cases = _cases(name, tc, seed)
    if kind == "build":
        return [_fastest(tc.build_presentation, [(fan, elim) for fan, elim, _ in cases])]
    if kind == "nonfaces":
        return [_fastest(tc.chow.stanley_reisner_nonfaces, [(fan,) for fan, _, _ in cases])]
    if kind == "validate":
        raw = [(fan.ambient_dim, fan.rays, [c.ray_indices for c in fan.max_cones]) for fan, _, _ in cases]
        return [_fastest(tc.Fan, raw)]
    classes = [(tc.csm_result(fan, tc.build_presentation(fan, elim)).csm_class,) for fan, elim, _ in cases]
    return [
        _fastest(tc.parse_fan_text, [(text,) for _, _, text in cases]),
        _fastest(tc.render_class, classes),
    ]


def _run(src: str, name: str, kind: str, seed: int) -> list[float]:
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {str(ROOT / 'tests')!r}]; "
        f"import build_times; print(*build_times._worker({name!r}, {kind!r}, {seed!r}))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return [float(t) for t in done.stdout.split()]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True, help="a tree's src directory")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the workloads' files")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--nonfaces", action="store_const", dest="kind", const="nonfaces",
                      default="build", help="time the non-face listing alone")
    kind.add_argument("--formats", action="store_const", dest="kind", const="formats",
                      help="time parse_fan_text and render_class")
    kind.add_argument("--validate", action="store_const", dest="kind", const="validate",
                      help="time Fan(dim, rays, cones) alone")
    parser.add_argument("--fan", action="append", choices=FANS, help="default: every fan")
    args = parser.parse_args(argv)
    names = args.fan or FANS
    rows = [name + part for name in names for part in PARTS[args.kind]]
    times: dict[str, list[list[float]]] = {src: [] for src in args.src}
    for r in range(args.rounds):
        order = args.src if r % 2 == 0 else args.src[::-1]
        for src in order:
            times[src].append([])
        for name in names:
            for src in order:
                times[src][-1].extend(_run(src, name, args.kind, args.seed))
        print(f"round {r + 1} of {args.rounds} done", file=sys.stderr)
    base = times[args.src[0]]
    for i, row in enumerate(rows):
        print(row)
        for src in args.src:
            runs = [run[i] for run in times[src]]
            line = f"  {src}: {min(runs):.4f}-{max(runs):.4f} s"
            if src != args.src[0]:
                ratios = [run[i] / first[i] for run, first in zip(times[src], base)]
                faster = sum(x < 1 for x in ratios)
                line += (
                    f", x{statistics.median(ratios):.2f} ({min(ratios):.2f}-{max(ratios):.2f})"
                    f" of the first tree's time in the same round, faster in {faster} of {len(ratios)}"
                )
            print(line)


if __name__ == "__main__":
    main()
