"""Property tests: no fan file and no command line makes ``main`` crash,
and ``parse_fan_text`` raises nothing but ``ValidationError``.

Fans are small (dimension at most 3, at most 6 rays, entries in -3..3) and
often malformed: ragged rays, out-of-range or repeated indices, cones of the
wrong size.  ``main`` also reads raw bytes and fan files with raw bytes
spliced in, so file input that is not UTF-8 text is covered too.  Command
lines mix every subcommand with every flag, including flags a subcommand
does not read, flags none accepts (``--trust-input`` among them) and
thread counts below 1.  The only allowed exit codes are 0, 1 and 2, and
a successful ``csm``/``euler`` run on a drawn fan file or a builder
reports chi equal to its number of maximal cones.

Rendered ``stellar_fan`` files, smooth and singular, must pass: ``csm``
and ``chow`` exit 0, chi is the number of maximal cones, and the graded
dimensions are the h-vector.
"""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from math import atan2, gcd
from pathlib import Path

from helpers import h_vector, stellar_fan
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccsm import Fan, ValidationError, parse_fan_text, render_fan
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


@st.composite
def fan_file_bytes(draw):
    """Bytes of a fan file and its number of maximal cones; raw bytes, or a
    fan file with a run of raw bytes spliced in, with None for the count."""
    kind = draw(st.sampled_from(["fan", "fan", "binary", "spliced"]))
    if kind == "binary":
        return draw(st.binary(max_size=200)), None
    text, num_cones = draw(fan_files())
    data = text.encode()
    if kind == "fan":
        return data, num_cones
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:], None


_FLAGS = st.sampled_from([
    ["--json"], ["--json"], ["--euler-only"], ["--force-hnf"], ["--elim-cone"],
    ["--threads"], ["--seed", "1"], ["--product", "pn=1", "pn=1"], ["--only", "pn=1"],
    ["--trust-input"],
])


@settings(max_examples=400, deadline=None, database=None)
@given(
    fan=fan_file_bytes(),
    command=st.sampled_from(["csm", "euler", "chow", "validate"]),
    builder=st.one_of(st.none(), st.sampled_from(sorted(_BUILDERS))),
    flags=st.lists(_FLAGS, max_size=4),
    elim=st.lists(st.integers(-1, 6), min_size=1, max_size=3),
    threads=st.integers(-1, 4),
)
def test_main_never_crashes(fan, command, builder, flags, elim, threads):
    data, num_cones = fan
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
        path.write_bytes(data)
        argv += ["--builder", builder] if builder else ["--fan", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, data, err.getvalue())
    # retired flags, and flags the subcommand does not read, are usage errors
    retired = {"--trust-input", "--euler-only"}
    if command == "euler":
        retired |= {"--force-hnf", "--threads"}
    if retired & set(argv):
        assert code == 1 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    expected = _BUILDERS[builder] if builder else num_cones
    if code == 0 and command in ("csm", "euler") and "--json" in argv and expected is not None:
        assert json.loads(out.getvalue())["euler"] == expected, (argv, data)


@st.composite
def fan_texts(draw):
    """Fan files as above, arbitrary text, or a fan file with lines
    replaced by arbitrary text."""
    kind = draw(st.sampled_from(["fan", "text", "spliced"]))
    if kind == "text":
        return draw(st.text(max_size=200))
    lines = draw(fan_files())[0].splitlines()
    if kind == "spliced":
        for _ in range(draw(st.integers(1, 3))):
            lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=20))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, database=None)
@given(text=fan_texts())
def test_parse_fan_text_raises_only_validation_errors(text):
    try:
        fan, _ = parse_fan_text(text)
    except ValidationError:
        return
    assert isinstance(fan, Fan)
    assert all(len(ray) == fan.ambient_dim for ray in fan.rays), text


def _main_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return json.loads(out.getvalue())


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(2, 3),
    k=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    coefficients=st.sampled_from([(1,), (1, 2)]),
)
def test_rendered_stellar_fans(n, k, seed, coefficients):
    fan = stellar_fan(n, k, seed, coefficients)
    dims = list(h_vector(fan))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stellar.fan"
        path.write_text(render_fan(fan))
        csm = _main_json(["csm", "--fan", str(path), "--json"])
        chow = _main_json(["chow", "--fan", str(path), "--json"])
    assert csm["euler"] == len(fan.max_cones)
    assert csm["presentation"]["graded_dimensions"] == dims
    assert chow["presentation"]["graded_dimensions"] == dims
