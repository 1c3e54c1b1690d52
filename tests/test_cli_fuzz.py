"""Property test: no fan file and no command line makes ``main`` crash.

Fans are small (dimension at most 3, at most 6 rays, entries in -3..3) and
often malformed: ragged rays, out-of-range or repeated indices, cones of the
wrong size.  Command lines mix every subcommand with every flag, including
flags a subcommand does not read and flags none accepts.  The only
allowed exit codes are 0, 1 and 2, and a successful ``csm``/``euler`` run
reports chi equal to the number of maximal cones.  ``--trust-input`` is
left out: a trusted malformed file can still exit 3.
"""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from math import atan2, gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from toriccsm.cli import main

# Builder specs with their number of maximal cones (None: rejected spec).
_BUILDERS = {"pn=2": 3, "hirzebruch=1": 4, "wps=1,1,2": 3, "pn=1*pn=1": 4,
             "wps=2,3,5": None, "pn=0": None, "frob=1": None}


@st.composite
def fan_files(draw):
    """Text of a small fan file and its number of maximal cones."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["random", "simplex", "suspension"]))
    least = {"random": 1, "simplex": dim + 1, "suspension": (2, 3, 5)[dim - 1]}[shape]
    nrays = draw(st.integers(least, 6))
    # Sloppy files have ragged and non-primitive rays; tidy ones have
    # primitive rays of the right length, so that some pass validation.
    sloppy = draw(st.booleans())
    lengths = st.sampled_from([dim - 1, dim, dim + 1]) if sloppy else st.just(dim)
    rays = []
    for _ in range(nrays):
        length = draw(lengths)
        ray = draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))
        g = gcd(*ray)
        rays.append(ray if sloppy or g == 0 else [x // g for x in ray])
    if not sloppy and dim == 2:
        # in angular order, so that a cycle of cones can go once around
        rays.sort(key=lambda r: atan2(r[1], r[0]))
    if shape == "simplex":
        # every dim-subset: the boundary of a simplex when nrays == dim + 1
        cones = [list(c) for c in combinations(range(nrays), dim)]
    elif shape == "suspension":
        # dim 1: every ray alone; dim 2: a cycle; dim 3: a bipyramid over
        # the cycle of rays 2.. with apexes 0 and 1
        ring = list(range(2 if dim == 3 else 0, nrays))
        pairs = [[a, ring[(i + 1) % len(ring)]] for i, a in enumerate(ring)]
        if dim == 1:
            cones = [[j] for j in ring]
        elif dim == 2:
            cones = pairs
        else:
            cones = [[apex] + p for apex in (0, 1) for p in pairs]
    else:
        index = st.integers(-1, nrays)
        cones = draw(st.lists(st.lists(index, min_size=max(dim - 1, 1), max_size=dim + 1),
                              min_size=1, max_size=8))
    lines = [f"dim: {dim}", "rays:"]
    lines += ["  " + " ".join(map(str, r)) for r in rays]
    lines.append("max_cones:")
    lines += ["  " + " ".join(map(str, c)) for c in cones]
    return "\n".join(lines) + "\n", len(cones)


_FLAGS = st.sampled_from([
    ["--json"], ["--json"], ["--euler-only"], ["--force-hnf"], ["--elim-cone"],
    ["--threads"], ["--seed", "1"], ["--product", "pn=1", "pn=1"], ["--only", "pn=1"],
])


@settings(max_examples=400, deadline=None, database=None)
@given(
    fan=fan_files(),
    command=st.sampled_from(["csm", "euler", "chow", "validate"]),
    builder=st.one_of(st.none(), st.sampled_from(sorted(_BUILDERS))),
    flags=st.lists(_FLAGS, max_size=4),
    elim=st.lists(st.integers(-1, 6), min_size=1, max_size=3),
    threads=st.integers(1, 4),
)
def test_main_never_crashes(fan, command, builder, flags, elim, threads):
    text, num_cones = fan
    argv = [command]
    for flag in flags:
        if flag == ["--elim-cone"]:
            flag = ["--elim-cone", ",".join(map(str, elim))]
        elif flag == ["--threads"]:
            flag = ["--threads", str(threads)]
        argv += flag
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.fan"
        path.write_text(text)
        argv += ["--builder", builder] if builder else ["--fan", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, text, err.getvalue())
    if code == 0 and command in ("csm", "euler") and "--json" in argv:
        expected = _BUILDERS[builder] if builder else num_cones
        assert json.loads(out.getvalue())["euler"] == expected, (argv, text)
