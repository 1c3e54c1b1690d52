import gc
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import MULTI_COVER_FANS, cofactor_det, suite_fans
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toriccsm
from toriccsm import (
    Cone,
    Fan,
    ValidationError,
    build_fan,
    build_presentation,
    csm_result,
    euler_characteristic,
    parse_class,
    parse_fan_text,
    render_fan,
)
from toriccsm.cli import _json_text, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_csm_hirzebruch_golden(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "hirzebruch=5", "--elim-cone", "0,3")
    assert code == 0
    assert "1 + 2*x1 + 7*x2 + 4*x1*x2" in out
    assert "chi = 4" in out


def test_euler_prints_only_chi(capsys):
    code, out, _ = run(capsys, "euler", "--builder", "pn=6")
    assert code == 0
    assert out.strip() == "7"


def test_csm_singular_reports_multiplicity(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "wps=1,1,2", "--force-hnf")
    assert code == 0
    assert "chi = 3" in out
    assert "mult 2" in out


def test_json_matches_human_content(capsys):
    code, human, _ = run(capsys, "csm", "--builder", "hirzebruch=5", "--elim-cone", "0,3")
    code2, machine, _ = run(
        capsys, "csm", "--builder", "hirzebruch=5", "--elim-cone", "0,3", "--json"
    )
    assert code == code2 == 0
    data = json.loads(machine)
    assert f"chi = {data['euler']}" in human
    assert f"c_SM = {data['csm']}" in human
    assert parse_class(data["csm"]) == parse_class("1 + 2*x1 + 7*x2 + 4*x1*x2")
    assert data["presentation"]["graded_dimensions"] == [1, 2, 1]


def test_chow_subcommand(capsys):
    code, out, _ = run(capsys, "chow", "--builder", "pn=3")
    assert code == 0
    assert "graded dimensions: 1 1 1 1" in out
    assert "c_SM" not in out


def test_chow_prints_presentation(capsys):
    code, out, _ = run(capsys, "chow", "--builder", "hirzebruch=5", "--elim-cone", "0,3")
    assert code == 0
    assert "stanley-reisner non-faces: x0*x2, x1*x3" in out
    assert "linear relations: x0 - x2, x1 + 5*x2 - x3" in out
    assert "substitution: x0 = x2, x3 = x1 + 5*x2" in out


def test_validate_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--builder", "pn=2")
    assert code == 0 and "validation passed" in out

    bad = tmp_path / "bad.fan"
    bad.write_text("dim: 2\nrays:\n  2 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 0\n")
    code, _, err = run(capsys, "validate", "--fan", str(bad))
    assert code == 2
    assert "ray not primitive" in err


def test_fan_file_source(capsys, tmp_path):
    from toriccsm import hirzebruch

    path = tmp_path / "h5.fan"
    path.write_text(render_fan(hirzebruch(5), "h5"))
    code, out, _ = run(capsys, "euler", "--fan", str(path))
    assert code == 0 and out.strip() == "4"


def test_product_source(capsys):
    code, out, _ = run(capsys, "euler", "--builder", "pn=2*pn=3")
    assert code == 0 and out.strip() == "12"


def test_builder_star_spec(capsys):
    code, out, _ = run(capsys, "euler", "--builder", "pn=1*wps=1,1,2")
    assert code == 0 and out.strip() == "6"


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "csm")
    assert code == 1
    code, _, err = run(capsys, "csm", "--builder", "frob=1")
    assert code == 1 and "unknown builder" in err
    code, _, _ = run(capsys, "csm", "--builder", "pn=2", "--fan", "x.fan")
    assert code == 1
    code, _, err = run(capsys, "csm", "--builder", "pn=x")
    assert code == 1


def test_validation_errors_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "euler", "--builder", "wps=2,3,5")
    assert code == 2 and "unsupported weights" in err
    code, _, err = run(capsys, "euler", "--fan", "/nonexistent/path.fan")
    assert code == 2
    latin1 = tmp_path / "latin1.fan"
    latin1.write_bytes(b"name: caf\xe9\ndim: 1\nrays:\n  1\n  -1\nmax_cones:\n  0\n  1\n\xff\n")
    for command in ("validate", "csm"):
        code, out, err = run(capsys, command, "--fan", str(latin1))
        assert (code, out) == (2, ""), command
        assert err.startswith(f"toric-csm: validation error: {latin1}: not UTF-8 text"), command


def test_fan_file_with_byte_order_mark(capsys, tmp_path):
    # Editors on some systems start a UTF-8 file with a byte-order mark;
    # the file reads as the same fan as without it.
    text = "name: h5\ndim: 2\nrays:\n  1 0\n  0 1\n  -1 5\n  0 -1\nmax_cones:\n  0 1\n  1 2\n  2 3\n  3 0\n"
    (tmp_path / "plain.fan").write_text(text, encoding="utf-8")
    (tmp_path / "bom.fan").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    seconds = re.compile(r'("(?:chow|class)_seconds": )[-+.0-9eE]+')
    for command in ("csm", "euler", "chow", "validate"):
        outputs = []
        for name in ("plain", "bom"):
            code, out, err = run(capsys, command, "--fan", str(tmp_path / f"{name}.fan"), "--json")
            assert (code, err) == (0, ""), (command, name)
            outputs.append(seconds.sub(r"\1*", out.replace(f"{name}.fan", "F")))
        assert outputs[0] == outputs[1], command


def test_elim_cone_must_be_maximal(capsys):
    code, _, err = run(capsys, "csm", "--builder", "hirzebruch=5", "--elim-cone", "0,2")
    assert code == 2 and "not a maximal cone" in err


def test_chi_alone_comes_from_euler_not_a_csm_flag(capsys):
    # The retired --euler-only is a usage error; `euler` gives chi alone.
    code, out, err = run(capsys, "csm", "--builder", "pn=4", "--euler-only")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --euler-only" in err
    assert run(capsys, "euler", "--builder", "pn=4") == (0, "5\n", "")


def test_no_flag_skips_the_completeness_check(capsys, tmp_path):
    # No flag skips validation: an open fan fails the completeness check,
    # and the retired --trust-input is a usage error on every subcommand.
    path = tmp_path / "open.fan"
    path.write_text("dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n")
    code, _, err = run(capsys, "validate", "--fan", str(path))
    assert code == 2 and "completeness" in err
    for command in ("csm", "euler", "chow", "validate"):
        code, out, err = run(capsys, command, "--fan", str(path), "--trust-input")
        assert (code, out) == (1, ""), command
        assert "unrecognized arguments: --trust-input" in err, command


@pytest.mark.parametrize("ray, length", [("0", 1), ("0 1 2", 3)])
def test_ragged_ray_is_rejected_on_every_command(capsys, tmp_path, ray, length):
    path = tmp_path / "ragged.fan"
    path.write_text(f"dim: 2\nrays:\n  1 0\n  {ray}\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 0\n")
    for command in ("csm", "euler", "chow", "validate"):
        code, out, err = run(capsys, command, "--fan", str(path))
        assert code == 2 and out == "", command
        assert f"line 4: ray 1 has {length} coordinates, expected 2" in err, command


@pytest.mark.parametrize(
    "cone, message",
    [
        ("0 -1", "cone (-1, 0) references unknown ray -1"),
        ("0 3", "cone (0, 3) references unknown ray 3"),
        ("0 1 2", "maximal cone wrong dimension: cone (0, 1, 2) has 3 rays, expected 2"),
        ("1 0", "maximal cone (0, 1) is listed twice"),
        ("1 1", "line 9: cone 2 repeats ray 1"),
        ("1 2 2", "line 9: cone 2 repeats ray 2"),
        # a tie names the ray seen first, as Counter.most_common does
        ("2 1 1 2", "line 9: cone 2 repeats ray 2"),
        ("1 2 2 1", "line 9: cone 2 repeats ray 1"),
    ],
)
def test_malformed_cone_is_rejected_on_every_command(capsys, tmp_path, cone, message):
    path = tmp_path / "malformed.fan"
    path.write_text(f"dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  {cone}\n")
    for command in ("csm", "euler", "chow", "validate"):
        code, out, err = run(capsys, command, "--fan", str(path))
        assert code == 2 and out == "", command
        assert message in err, command


def test_numbers_past_the_int_digit_limit_are_printed(capsys, tmp_path):
    # The rays have 2,401 digits, within the interpreter's 4,300-digit
    # limit on int <-> str conversion; the multiplicity of cone (0, 1) and
    # the class coefficients have about 4,800.
    a = 10**2400
    rays = [(a + 1, a + 3), (-(a + 3), a + 1), (0, -1)]
    cones = [(0, 1), (0, 2), (1, 2)]
    path = tmp_path / "big.fan"
    path.write_text(render_fan(build_fan(2, rays, cones)))
    mults = [abs(cofactor_det([[rays[i][k] for i in c] for k in range(2)])) for c in cones]
    assert mults[0] > 10**4800

    def limit_free(digits: str) -> int:
        return int(Decimal(digits))

    code, out, err = run(capsys, "csm", "--fan", str(path))
    assert (code, err) == (0, ""), err
    printed = re.search(r"^singular cones: (.*)$", out, re.M).group(1)
    assert [(c, limit_free(m)) for c, m in re.findall(r"\(([\d,]+)\) mult (\d+)", printed)] == [
        (",".join(map(str, c)), m) for c, m in zip(cones, mults)
    ]
    code, out, err = run(capsys, "csm", "--fan", str(path), "--json")
    assert (code, err) == (0, ""), err
    data = json.loads(out, parse_int=limit_free)
    assert data["singular_cones"] == [{"cone": list(c), "mult": m} for c, m in zip(cones, mults)]
    assert data["euler"] == 3
    for argv in (["chow"], ["chow", "--json"], ["euler"]):
        code, out, err = run(capsys, *argv, "--fan", str(path))
        assert (code, err) == (0, ""), argv


def test_integers_past_the_int_digit_limit_are_read(capsys, tmp_path):
    # hirzebruch=r with r of 4,401 digits, from a fan file and from the
    # builder: both validate and give the same class.  A cone that names a
    # ray index that long is a validation error that prints it.
    r = 10**4400 + 7
    path = tmp_path / "big.fan"
    path.write_text(render_fan(build_fan(2, [(1, 0), (0, 1), (-1, r), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])))
    classes = []
    for source in (["--fan", str(path)], ["--builder", f"hirzebruch={Decimal(r)}"]):
        code, out, err = run(capsys, "validate", *source)
        assert (code, err) == (0, ""), err
        code, out, err = run(capsys, "csm", *source)
        assert (code, err) == (0, ""), err
        classes.append(re.search(r"^c_SM = (.*)$", out, re.M).group(1))
    assert classes[0] == classes[1] and classes[0].endswith(f" + 4/{Decimal(r)}*x3^2")
    path.write_text(f"dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 {Decimal(r)}\n")
    code, _, err = run(capsys, "validate", "--fan", str(path))
    assert (code, err) == (2, f"toric-csm: validation error: cone (2, {Decimal(r)}) references unknown ray {Decimal(r)}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--builder", "pn=\u0661"], "bad builder argument in 'pn=\u0661': invalid literal for int() with base 10: '\u0661'"),
        (["--builder", "wps=1,1_0,1"], "bad builder argument in 'wps=1,1_0,1': invalid literal for int() with base 10: '1_0'"),
        (["--builder", "hirzebruch=1", "--elim-cone", "0,1_0"],
         "bad --elim-cone value '0,1_0': invalid literal for int() with base 10: '1_0'"),
        (["--builder", "hirzebruch=1", "--elim-cone", "\u0660,1"],
         "bad --elim-cone value '\u0660,1': invalid literal for int() with base 10: '\u0660'"),
        (["--builder", "wps=1,1,2", "--force-hnf", "--threads", "\u0662"],
         "argument --threads: invalid int value: '\u0662'"),
    ],
    ids=["builder", "builder-underscore", "elim-cone", "elim-cone-arabic-indic", "threads"],
)
def test_arguments_read_only_ascii_integers(capsys, argv, message):
    # int alone reads 1_0 as 10 and an Arabic-Indic digit as its value:
    # pn=\u0661 computed P^1 and --elim-cone 0,1_0 named the cone (0, 10).
    code, out, err = run(capsys, "csm", *argv)
    assert (code, out) == (1, "") and err.endswith(f"error: {message}\n"), err
    # signs and surrounding whitespace still read, as int reads them
    assert run(capsys, "euler", "--builder", "pn=+2", "--elim-cone", "+0, 1 ")[:2] == (0, "3\n")
    assert run(capsys, "csm", "--builder", "wps=1,1,2", "--force-hnf", "--threads", " +1")[0] == 0


def test_elim_cone_with_a_repeated_ray_is_named(capsys):
    message = "toric-csm: validation error: duplicate ray index in cone (0, 0)\n"
    for command in ("csm", "euler", "chow"):
        assert run(capsys, command, "--builder", "pn=2", "--elim-cone", "0,0") == (2, "", message), command


def test_importing_the_cli_loads_no_thread_pool():
    # The csm thread pool is imported where it is used: a run that never
    # takes it pays nothing for concurrent.futures.
    src = str(Path(toriccsm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, toriccsm.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_degenerate_cone_is_rejected_also_as_elimination_cone(capsys, tmp_path):
    # Cone (0, 3) spans a line: validation names it, also when it is the
    # elimination cone.
    path = tmp_path / "degenerate.fan"
    path.write_text("dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\n  -1 0\n"
                    "max_cones:\n  0 1\n  1 2\n  2 0\n  0 3\n")
    degenerate = "toric-csm: validation error: not simplicial: maximal cone (0, 3)\n"
    for command in ("csm", "euler", "chow", "validate"):
        code, out, err = run(capsys, command, "--fan", str(path))
        assert (code, out, err) == (2, "", degenerate), command
    for command in ("csm", "euler", "chow"):
        code, out, err = run(capsys, command, "--fan", str(path), "--elim-cone", "0,3")
        assert (code, out, err) == (2, "", degenerate), command


@pytest.mark.parametrize(
    "repeat",
    ["name: again", "dim: 2", "rays:\n  1 1", "max_cones:\n  0 1"],
    ids=["name", "dim", "rays", "max_cones"],
)
def test_repeated_header_is_rejected_with_its_line(capsys, tmp_path, repeat):
    # A second header would concatenate sections or override the first
    # value; it is named at its line, whatever follows it.
    path = tmp_path / "repeated.fan"
    path.write_text(render_fan(Fan(2, [(1, 0), (0, 1), (-1, 5), (0, -1)],
                                   [(0, 1), (1, 2), (2, 3), (3, 0)]), "h5") + repeat + "\n")
    key = repeat.split(":")[0]
    message = f"toric-csm: validation error: {path}, line 13: field '{key}' given twice\n"
    for command in ("csm", "euler", "chow", "validate"):
        assert run(capsys, command, "--fan", str(path)) == (2, "", message), command


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch):
    import toriccsm.cli as cli

    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["euler", "--builder", "pn=2"],
        ["csm"],
        ["validate", "--builder", "wps=1,1,2", "--json"],
        ["euler", "--builder", "pn=2", "--only", "pn=1"],
        ["csm", "--builder", "hirzebruch=1", "--elim-cone", "0,1", "--euler-only"],
        ["euler", "--builder", "hirzebruch=1", "--elim-cone", "0,1"],
        ["frob"],
        ["chow", "--builder", "pn=1*pn=1", "--json"],
        ["validate", "--help"],
        ["euler", "--builder", "frob=1"],
        ["csm", "--builder", "wps=1,1,3", "--force-hnf", "--threads", "2"],
    ]

    def runs():
        outs = [run(capsys, *argv) for argv in argvs + argvs]
        return [(code, re.sub(r"\d+\.\d+", "T", out), err) for code, out, err in outs]

    cached = runs()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == runs()
    assert [code for code, _, _ in cached[: len(argvs)]] == [0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0]


def test_threads_flag(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "wps=1,1,3", "--threads", "3", "--force-hnf")
    assert code == 0 and "chi = 3" in out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_threads_below_one_is_a_usage_error(capsys, count):
    code, out, err = run(capsys, "csm", "--builder", "wps=1,1,2", "--force-hnf", "--threads", count)
    assert (code, out) == (1, "")
    assert f"argument --threads: must be at least 1, got {count}" in err


def _fan_text(dim, rays, cones) -> str:
    """A fan file for raw data, written without building a Fan."""
    lines = [f"dim: {dim}", "rays:"]
    lines += ["  " + " ".join(map(str, r)) for r in rays]
    lines.append("max_cones:")
    lines += ["  " + " ".join(map(str, c)) for c in cones]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(MULTI_COVER_FANS))
def test_multi_cover_fans_exit_two(capsys, tmp_path, name):
    dim, rays, cones = MULTI_COVER_FANS[name]
    path = tmp_path / "multi.fan"
    path.write_text(_fan_text(dim, rays, cones))
    for command in ("validate", "csm", "euler", "chow"):
        code, out, err = run(capsys, command, "--fan", str(path))
        assert (code, out) == (2, ""), command
        assert err.startswith("toric-csm: validation error: fan fails completeness check: "), command
        assert "more than once" in err, command


@pytest.mark.parametrize("name", sorted(MULTI_COVER_FANS))
def test_multi_cover_fans_reach_no_result(name):
    # A fan that covers space twice passes the wall condition, but no public
    # entry point returns a result for it: every route to a Fan validates.
    dim, rays, cones = MULTI_COVER_FANS[name]
    entry_points = {
        "Fan": lambda: Fan(dim, rays, cones),
        "Fan of Cones": lambda: Fan(dim, rays, [Cone(c) for c in cones]),
        "build_fan": lambda: build_fan(dim, rays, cones),
        "parse_fan_text": lambda: parse_fan_text(_fan_text(dim, rays, cones)),
        "build_presentation": lambda: build_presentation(Fan(dim, rays, cones)),
        "csm_result": lambda: csm_result(Fan(dim, rays, cones)),
        "euler_characteristic": lambda: euler_characteristic(Fan(dim, rays, cones)),
    }
    for entry, call in entry_points.items():
        try:
            result = call()
        except ValidationError as exc:
            assert re.search("completeness check: .* more than once", str(exc)), entry
        else:
            raise AssertionError(f"{entry} returned {result!r}")


def test_broken_graded_dimensions_exit_3(capsys, monkeypatch):
    import toriccsm.chow as chow

    monkeypatch.setattr(chow, "graded_dimensions", lambda pres: (1, 1, 2))
    code, _, err = run(capsys, "csm", "--builder", "hirzebruch=5")
    assert code == 3 and "not palindromic" in err


def test_package_all_has_no_duplicates():
    import toriccsm

    assert len(toriccsm.__all__) == len(set(toriccsm.__all__))


def test_broken_euler_characteristic_exits_3(capsys, monkeypatch):
    import toriccsm.csm as csm

    monkeypatch.setattr(csm, "degree", lambda c, pres: Fraction(5))
    for argv in (["euler", "--builder", "hirzebruch=5"], ["csm", "--builder", "hirzebruch=5"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "Euler characteristic 5" in err and "maximal cones 4" in err


def _key_tree(value):
    """The nested key order of a JSON value; a list shows its first element's."""
    if isinstance(value, dict):
        return [(k, _key_tree(v)) for k, v in value.items()]
    if isinstance(value, list) and value:
        return [_key_tree(value[0])]
    return None


_FAN_KEYS = ("fan", [("dim", None), ("rays", None), ("max_cones", None), ("smooth", None)])


def test_csm_json_key_order(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "wps=1,1,2", "--json")
    assert code == 0
    assert _key_tree(json.loads(out)) == [
        ("source", None),
        _FAN_KEYS,
        ("presentation", [
            ("eliminated", [None]),
            ("kept", [None]),
            ("graded_dimensions", [None]),
        ]),
        ("singular_cones", [[("cone", [None]), ("mult", None)]]),
        ("csm", None),
        ("euler", None),
        ("timings", [("chow_seconds", None), ("class_seconds", None)]),
    ]


def test_chow_json_key_order(capsys):
    code, out, _ = run(capsys, "chow", "--builder", "wps=1,1,2", "--json")
    assert code == 0
    assert _key_tree(json.loads(out)) == [
        ("source", None),
        _FAN_KEYS,
        ("presentation", [
            ("nonfaces", [None]),
            ("linear_relations", [None]),
            ("eliminated", [None]),
            ("kept", [None]),
            ("substitution", [("x0", None), ("x1", None)]),
            ("graded_dimensions", [None]),
        ]),
        ("timings", [("chow_seconds", None)]),
    ]


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, database=None)
@given(_JSON_VALUES)
@example({"é\u2028\x00\"\\": [[], {}, -0.0, 1e300, 5e-324, 10**30, True, None]})
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("command", ["csm", "chow"])
def test_json_report_leaves_no_cyclic_garbage(capsys, command):
    # json.dumps with an indent runs the pure-Python encoder, whose
    # closures leave reference cycles behind on every call.
    argv = [command, "--builder", "pn=2*hirzebruch=3", "--json"]
    run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        run(capsys, *argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_validate_json_key_order(capsys):
    code, out, _ = run(capsys, "validate", "--builder", "wps=1,1,2", "--json")
    assert code == 0
    assert out == (
        '{"source": "wps=1,1,2", "validation": "passed", "dim": 2, "rays": 3, '
        '"max_cones": 3, "smooth": false}\n'
    )


def test_csm_human_report_golden(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "wps=1,1,2")
    assert code == 0
    masked = re.sub(r"\d+\.\d{3}s", "T", out)
    assert masked == (
        "fan: wps=1,1,2 (dim 2, 3 rays, 3 maximal cones, singular)\n"
        "eliminated: x0, x1; kept: x2\n"
        "graded dimensions: 1 1 1\n"
        "singular cones: (0,2) mult 2\n"
        "c_SM = 1 + 4*x2 + 6*x2^2\n"
        "chi = 3\n"
        "timing: chow ring T, class T\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "--builder", "pn=2", "--force-hnf"],
        ["chow", "--builder", "pn=2", "--threads", "2"],
        ["validate", "--builder", "pn=2", "--elim-cone", "0,1"],
        ["euler", "--builder", "pn=2", "--euler-only"],
        ["csm", "--builder", "pn=2", "--seed", "1"],
        ["csm", "--product", "pn=1", "pn=1"],
        ["bench", "--only", "pn=1"],
        ["csm", "--builder", "pn=2", "--euler-only"],
        ["euler", "--builder", "pn=2", "--force-hnf"],
        ["euler", "--builder", "pn=2", "--threads", "2"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "elim, eliminated, kept, substitution",
    [
        ("0,2", [0, 2], [1], {"x0": "2/3*x1", "x2": "1/3*x1"}),
        ("1,2", [1, 2], [0], {"x1": "3/2*x0", "x2": "1/2*x0"}),
    ],
)
def test_chow_fractional_substitution_golden(capsys, elim, eliminated, kept, substitution):
    # elimination cones of multiplicity 3 and 2: the substitution has
    # fractional coefficients
    code, out, _ = run(capsys, "chow", "--builder", "wps=1,2,3", "--elim-cone", elim)
    assert code == 0
    assert re.sub(r"\d+\.\d{3}s", "T", out) == (
        "fan: wps=1,2,3 (dim 2, 3 rays, 3 maximal cones, singular)\n"
        "stanley-reisner non-faces: x0*x1*x2\n"
        "linear relations: x0 - 2*x2, x1 - 3*x2\n"
        f"eliminated: x{eliminated[0]}, x{eliminated[1]}; kept: x{kept[0]}\n"
        f"substitution: {', '.join(f'{v} = {c}' for v, c in substitution.items())}\n"
        "graded dimensions: 1 1 1\n"
        "timing: chow ring T\n"
    )
    code, out, _ = run(capsys, "chow", "--builder", "wps=1,2,3", "--elim-cone", elim, "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data.pop("timings")) == ["chow_seconds"]
    assert data == {
        "source": "wps=1,2,3",
        "fan": {"dim": 2, "rays": 3, "max_cones": 3, "smooth": False},
        "presentation": {
            "nonfaces": ["x0*x1*x2"],
            "linear_relations": ["x0 - 2*x2", "x1 - 3*x2"],
            "eliminated": eliminated,
            "kept": kept,
            "substitution": substitution,
            "graded_dimensions": [1, 1, 1],
        },
    }


def test_readme_flags_table_matches_parser():
    # The README's table of flags per subcommand lists exactly the options
    # that build_parser() gives each subcommand, besides the fan source.
    import argparse
    from pathlib import Path

    from toriccsm.cli import build_parser

    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags besides `--fan`/`--builder` |") + 2
    table = {}
    for line in lines[start:]:
        m = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if not m:
            break
        table[m.group(1)] = sorted(re.findall(r"`(--[\w-]+)`", m.group(2)))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: sorted(
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help", "--fan", "--builder")
        )
        for name, parser in sub.choices.items()
    }
    assert table == parsed
