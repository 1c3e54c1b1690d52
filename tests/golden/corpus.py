"""The golden corpus: CLI invocations whose whole output is pinned.

Each invocation is one ``toric-csm`` argv, run in-process through
``toriccsm.cli.main`` from a directory that holds the corpus's fan files,
so every file is named by a relative path.  Its digest covers the exit
code, stdout and stderr, with the timings masked: the ``chow_seconds``
and ``class_seconds`` values of the JSON reports and every ``timing:``
line.  ``digests.json`` next to this file holds the recorded digests,
keyed by the argv joined with spaces; ``record.py`` rewrites it.

The corpus:

- every suite fan with at most 12 rays, by its builder spec, some
  singular ``stellar_fan`` files and singular products with their rays
  relabelled (the lattice index sees a cone's rays in label order), each
  under its first, middle and last
  maximal cone through ``csm`` (plain, ``--json``, ``--force-hnf
  --json``), ``euler`` and ``chow`` (each with and without ``--json``),
  and once through ``validate`` (with and without ``--json``);
- two larger products, pn=6*pn=7 and pn=4^3, with their rays relabelled
  and their maximal cones shuffled, through ``csm --json`` and
  ``validate`` only;
- larger ``stellar_fan`` files, smooth and singular, each under its
  first, middle and last maximal cone through ``csm --json``, ``chow
  --json`` and ``euler`` only: non-product presentations with up to 16
  rays and a Groebner basis of hundreds of elements;
- malformed fan files (ragged rays, bad cones, repeated headers, an open
  fan, a wall in three cones, folded fans (among them stellar fans and
  products with one ray negated), fans that cover space twice,
  a non-simplicial cone listed before a malformed one, a latin-1 file)
  through every command;
- usage errors and bad arguments: unknown builders, a non-maximal or
  repeated elimination cone, a missing file.

argparse wraps its usage text at the terminal width, so the runs set
``COLUMNS`` to 80.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from helpers import MULTI_COVER_FANS, relabel, stellar_fan, suite_fans

from toriccsm import (
    build_fan,
    hirzebruch,
    is_smooth,
    product,
    projective_space,
    render_fan,
    weighted_projective,
)
from toriccsm.cli import main

__all__ = ["DIGEST_FILE", "write_files", "invocations", "run", "digest", "digests"]

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"

MAX_RAYS = 12
# (n, k, seed) of the stellar fans tried, coefficients (1, 2); the smooth
# ones are left out.
STELLAR = [(2, k, seed) for k in (2, 4, 6) for seed in range(3)] + [
    (3, k, seed) for k in (2, 4) for seed in range(3)
]

# (n, k, coefficients) of the larger stellar fans, each for seeds 0 and 1
LARGER_STELLAR = [(3, k, (1,)) for k in (8, 10, 12)] + [
    (4, 5, (1,)),
    (5, 4, (1,)),
    (2, 10, (1,)),
    (3, 6, (1, 2)),
    (4, 4, (1, 2)),
]
_LARGER_COMMANDS = (["csm", "--json"], ["chow", "--json"], ["euler"])

# file name stem -> builder of a singular product, whose rays are
# relabelled by permutations drawn in this order from one
# random.Random(RELABEL_SEED)
RELABEL_SEED = 13
RELABELLED = {
    "wps1-1-3_pn2": lambda: product(weighted_projective([1, 1, 3]), projective_space(2)),
    "wps1-1-2_wps1-1-3": lambda: product(weighted_projective([1, 1, 2]), weighted_projective([1, 1, 3])),
    "wps1-2-3_pn1": lambda: product(weighted_projective([1, 2, 3]), projective_space(1)),
    "hirzebruch2_wps1-1-3": lambda: product(hirzebruch(2), weighted_projective([1, 1, 3])),
    "wps1-1-2_pn1_wps1-1-3": lambda: product(
        product(weighted_projective([1, 1, 2]), projective_space(1)), weighted_projective([1, 1, 3])
    ),
    "pn2_wps1-2-3-5": lambda: product(projective_space(2), weighted_projective([1, 2, 3, 5])),
}

# file name stem -> builder of a larger product, whose rays are relabelled
# and whose maximal cones are shuffled by one random.Random(SHUFFLE_SEED)
SHUFFLE_SEED = 17
SHUFFLED = {
    "pn6_pn7": lambda: product(projective_space(6), projective_space(7)),
    "pn4_pn4_pn4": lambda: product(product(projective_space(4), projective_space(4)), projective_space(4)),
}

_CONE_COMMANDS = (
    ["csm"],
    ["csm", "--json"],
    ["csm", "--force-hnf", "--json"],
    ["euler"],
    ["euler", "--json"],
    ["chow"],
    ["chow", "--json"],
)

_HEADER = "dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n"
_H5 = "name: h5\ndim: 2\nrays:\n  1 0\n  0 1\n  -1 5\n  0 -1\nmax_cones:\n  0 1\n  1 2\n  2 3\n  3 0\n"

# file name -> text of each malformed fan file
MALFORMED = {
    "ragged-short.fan": "dim: 2\nrays:\n  1 0\n  0\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 0\n",
    "ragged-long.fan": "dim: 2\nrays:\n  1 0\n  0 1 2\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 0\n",
    "cone-negative.fan": _HEADER + "  0 -1\n",
    "cone-unknown.fan": _HEADER + "  0 3\n",
    "cone-wide.fan": _HEADER + "  0 1 2\n",
    "cone-twice.fan": _HEADER + "  1 0\n",
    "cone-repeat.fan": _HEADER + "  1 1\n",
    "cone-repeat-wide.fan": _HEADER + "  1 2 2\n",
    "open.fan": "dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n",
    "degenerate.fan": "dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\n  -1 0\n"
    "max_cones:\n  0 1\n  1 2\n  2 0\n  0 3\n",
    "repeat-name.fan": _H5 + "name: again\n",
    "repeat-dim.fan": _H5 + "dim: 2\n",
    "repeat-rays.fan": _H5 + "rays:\n  1 1\n",
    "repeat-cones.fan": _H5 + "max_cones:\n  0 1\n",
    "no-cones.fan": "dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\n",
    "bad-int.fan": "dim: two\nrays:\n  1 0\n",
    # P^3 and the cone (0, 1, 4): the wall (0, 1) lies in three cones
    "wall-in-three.fan": "dim: 3\nrays:\n  1 0 0\n  0 1 0\n  0 0 1\n  -1 -1 -1\n  1 1 1\n"
    "max_cones:\n  0 1 2\n  0 1 3\n  0 2 3\n  1 2 3\n  0 1 4\n",
    # every wall in two cones, but (0, 1, 2) and (0, 1, 3) on one side of (0, 1)
    "folded-3d.fan": "dim: 3\nrays:\n  1 3 -3\n  -3 1 1\n  3 -1 3\n  3 0 -1\n"
    "max_cones:\n  0 1 2\n  0 1 3\n  0 2 3\n  1 2 3\n",
    # (0, 1) spans a line; the unknown ray of the cone after it is named second
    "dependent-then-unknown.fan": "dim: 2\nrays:\n  1 0\n  -1 0\n  0 1\n  0 -1\n"
    "max_cones:\n  0 1\n  0 2\n  0 5\n",
    "empty.fan": "",
}


def _fan_text(dim: int, rays, cones) -> str:
    """Fan file text of raw data, which need not make a valid fan."""
    return "\n".join(
        [f"dim: {dim}", "rays:"]
        + ["  " + " ".join(map(str, r)) for r in rays]
        + ["max_cones:"]
        + ["  " + " ".join(map(str, c)) for c in cones]
    ) + "\n"


for _name, (_dim, _rays, _cones) in sorted(MULTI_COVER_FANS.items()):
    MALFORMED[_name.replace(" ", "-") + ".fan"] = _fan_text(_dim, _rays, _cones)

# file name stem -> (builder, ray): the fan with that ray negated keeps
# every wall in two cones, but folds at several walls; walking the walls
# from the first cone meets another fold before the one the error names
FOLDED = {
    "stellar-2-3-0": (lambda: stellar_fan(2, 3, 0, (1, 2)), 3),
    "stellar-3-2-0": (lambda: stellar_fan(3, 2, 0, (1, 2)), 5),
    "pn1_wps1-1-2": (lambda: product(projective_space(1), weighted_projective([1, 1, 2])), 3),
    "hirzebruch5_wps1-1-3": (lambda: product(hirzebruch(5), weighted_projective([1, 1, 3])), 4),
}
for _stem, (_build, _ray) in FOLDED.items():
    _fan = _build()
    _rays = [tuple(-x for x in v) if j == _ray else v for j, v in enumerate(_fan.rays)]
    MALFORMED[f"folded-{_stem}.fan"] = _fan_text(
        _fan.ambient_dim, _rays, [c.ray_indices for c in _fan.max_cones]
    )

LATIN1 = b"name: caf\xe9\ndim: 1\nrays:\n  1\n  -1\nmax_cones:\n  0\n  1\n\xff\n"

USAGE_ERRORS = (
    [],
    ["csm"],
    ["frob"],
    ["csm", "--builder", "frob=1"],
    ["csm", "--builder", "pn=x"],
    ["csm", "--builder", "pn=2,3"],
    ["csm", "--builder", "pn=2", "--fan", "x.fan"],
    ["euler", "--builder", "pn=2", "--only", "pn=1"],
    ["csm", "--builder", "pn=4", "--euler-only"],
    ["csm", "--builder", "wps=1,1,2", "--force-hnf", "--threads", "0"],
    ["csm", "--builder", "wps=1,1,2", "--force-hnf", "--threads", "-2"],
    ["csm", "--builder", "wps=1,1,2", "--threads", "x"],
    ["csm", "--builder", "hirzebruch=5", "--elim-cone", "0,x"],
    ["validate", "--builder", "pn=2", "--elim-cone", "0,1"],
    ["euler", "--builder", "pn=2", "--force-hnf"],
    ["chow", "--builder", "pn=2", "--trust-input"],
    ["csm", "--builder", "hirzebruch=5", "--elim-cone", "0,2"],
    ["csm", "--builder", "pn=2", "--elim-cone", "0,0"],
    ["euler", "--builder", "wps=2,3,5"],
    ["euler", "--fan", "/nonexistent/path.fan"],
)


def _fans() -> list[tuple[list[str], object]]:
    """(fan source arguments, fan) for every fan run under elimination
    cones; a suite name given twice is run once."""
    out = {}
    for name, fan in suite_fans():
        if len(fan.rays) <= MAX_RAYS:
            out.setdefault(("--builder", name), fan)
    for n, k, seed in STELLAR:
        fan = stellar_fan(n, k, seed, (1, 2))
        if not is_smooth(fan):
            out[("--fan", f"stellar-{n}-{k}-{seed}.fan")] = fan
    rng = random.Random(RELABEL_SEED)
    for stem, build in RELABELLED.items():
        fan = build()
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        out[("--fan", f"relabelled-{stem}.fan")] = relabel(fan, perm)
    return [(list(source), fan) for source, fan in out.items()]


def _shuffled() -> dict[str, object]:
    """File name -> fan of each ``SHUFFLED`` product, relabelled and with
    its maximal cones shuffled."""
    rng = random.Random(SHUFFLE_SEED)
    out = {}
    for stem, build in SHUFFLED.items():
        fan = build()
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        fan = relabel(fan, perm)
        cones = [c.ray_indices for c in fan.max_cones]
        rng.shuffle(cones)
        out[f"shuffled-{stem}.fan"] = build_fan(fan.ambient_dim, fan.rays, cones)
    return out


def _larger_stellar() -> dict[str, object]:
    """File name -> fan of each ``LARGER_STELLAR`` entry and seed; a
    smooth one is named ``smooth-n-k-seed``, a singular one
    ``singular-n-k-seed``."""
    out = {}
    for n, k, coefficients in LARGER_STELLAR:
        kind = "smooth" if coefficients == (1,) else "singular"
        for seed in (0, 1):
            out[f"{kind}-{n}-{k}-{seed}.fan"] = stellar_fan(n, k, seed, coefficients)
    return out


def _elim_cones(fan) -> list[list[str]]:
    """``--elim-cone`` arguments for the first, middle and last maximal
    cone in sorted order, each once."""
    cones = sorted(c.ray_indices for c in fan.max_cones)
    elims = dict.fromkeys((cones[0], cones[len(cones) // 2], cones[-1]))
    return [["--elim-cone", ",".join(map(str, elim))] for elim in elims]


def write_files(workdir: Path) -> None:
    """Write the corpus's fan files into ``workdir``."""
    for (flag, name), fan in _fans():
        if flag == "--fan":
            (workdir / name).write_text(render_fan(fan, name.removesuffix(".fan")), encoding="utf-8")
    for name, fan in {**_shuffled(), **_larger_stellar()}.items():
        (workdir / name).write_text(render_fan(fan, name.removesuffix(".fan")), encoding="utf-8")
    for name, text in MALFORMED.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "latin1.fan").write_bytes(LATIN1)


def invocations() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    out: list[list[str]] = []
    for source, fan in _fans():
        for cone in _elim_cones(fan):
            out += [cmd[:1] + source + cone + cmd[1:] for cmd in _CONE_COMMANDS]
        out += [["validate", *source], ["validate", *source, "--json"]]
    for name in _shuffled():
        out += [["csm", "--fan", name, "--json"], ["validate", "--fan", name]]
    for name, fan in _larger_stellar().items():
        for cone in _elim_cones(fan):
            out += [cmd[:1] + ["--fan", name] + cone + cmd[1:] for cmd in _LARGER_COMMANDS]
    for name in [*MALFORMED, "latin1.fan"]:
        out += [[cmd, "--fan", name] for cmd in ("csm", "euler", "chow", "validate")]
    out.append(["csm", "--fan", "degenerate.fan", "--elim-cone", "0,3"])
    out += [list(argv) for argv in USAGE_ERRORS]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_JSON_SECONDS = re.compile(r'("(?:chow|class)_seconds": )[-+.0-9eE]+')
_TIMING_LINE = re.compile(r"^timing: .*$", re.MULTILINE)


def digest(code: int, out: str, err: str) -> str:
    """The first 16 hex digits of the sha256 of the run, timings masked."""
    out = _TIMING_LINE.sub("timing: *", _JSON_SECONDS.sub(r"\1*", out))
    payload = json.dumps([code, out, err], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def digests(workdir: Path) -> dict[str, str]:
    """Digest of every invocation, keyed by its argv joined with spaces,
    run from ``workdir`` after the fan files are written there."""
    write_files(workdir)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        return {" ".join(argv): digest(*run(argv)) for argv in invocations()}
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
