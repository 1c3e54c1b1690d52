import json
import re
from fractions import Fraction

import pytest
from helpers import suite_fans

from toriccsm import parse_class, render_fan
from toriccsm.cli import main


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


def test_validation_errors_exit_two(capsys):
    code, _, err = run(capsys, "euler", "--builder", "wps=2,3,5")
    assert code == 2 and "unsupported weights" in err
    code, _, err = run(capsys, "euler", "--fan", "/nonexistent/path.fan")
    assert code == 2


def test_elim_cone_must_be_maximal(capsys):
    code, _, err = run(capsys, "csm", "--builder", "hirzebruch=5", "--elim-cone", "0,2")
    assert code == 2 and "not a maximal cone" in err


def test_euler_only_flag_on_csm(capsys):
    code, out, _ = run(capsys, "csm", "--builder", "pn=4", "--euler-only")
    assert code == 0
    assert "chi = 5" in out
    assert "c_SM" not in out


def test_trust_input_skips_wall_check(capsys, tmp_path):
    path = tmp_path / "open.fan"
    path.write_text("dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n")
    code, _, err = run(capsys, "validate", "--fan", str(path))
    assert code == 2 and "completeness" in err
    code, out, _ = run(capsys, "validate", "--fan", str(path), "--trust-input")
    assert code == 0 and "validation skipped" in out


@pytest.mark.parametrize("ray, length", [("0", 1), ("0 1 2", 3)])
def test_trust_input_still_checks_ray_length(capsys, tmp_path, ray, length):
    path = tmp_path / "ragged.fan"
    path.write_text(f"dim: 2\nrays:\n  1 0\n  {ray}\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  2 0\n")
    for command in ("csm", "euler", "chow", "validate"):
        code, out, err = run(capsys, command, "--fan", str(path), "--trust-input")
        assert code == 2 and out == "", command
        assert f"line 4: ray 1 has {length} coordinates, expected 2" in err, command


@pytest.mark.parametrize(
    "cone, message",
    [
        ("0 -1", "cone (-1, 0) references unknown ray -1"),
        ("0 3", "cone (0, 3) references unknown ray 3"),
        ("0 1 2", "maximal cone wrong dimension: cone (0, 1, 2) has 3 rays, expected 2"),
        ("1 0", "maximal cone (0, 1) is listed twice"),
    ],
)
def test_trust_input_still_checks_cone_shape(capsys, tmp_path, cone, message):
    path = tmp_path / "malformed.fan"
    path.write_text(f"dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\nmax_cones:\n  0 1\n  1 2\n  {cone}\n")
    for command in ("csm", "euler", "chow", "validate"):
        for trust in (["--trust-input"], []):
            code, out, err = run(capsys, command, "--fan", str(path), *trust)
            assert code == 2 and out == "", (command, trust)
            assert message in err, (command, trust)


def test_trust_input_degenerate_cone(capsys, tmp_path):
    # Cone (0, 3) spans a line.  Trusted, the presentation notices first;
    # validate reaches only is_smooth, whose determinant is 0, and an
    # elimination by that cone stops before the solve.
    path = tmp_path / "degenerate.fan"
    path.write_text("dim: 2\nrays:\n  1 0\n  0 1\n  -1 -1\n  -1 0\n"
                    "max_cones:\n  0 1\n  1 2\n  2 0\n  0 3\n")
    for command in ("csm", "euler", "chow"):
        code, out, err = run(capsys, command, "--fan", str(path), "--trust-input")
        assert (code, out) == (2, ""), command
        assert err == "toric-csm: validation error: fan not complete: top graded piece has dimension 2\n"
    code, out, err = run(capsys, "validate", "--fan", str(path), "--trust-input")
    degenerate = "toric-csm: validation error: not simplicial: maximal cone (0, 3)\n"
    assert (code, out, err) == (2, "", degenerate)
    for command in ("csm", "euler", "chow"):
        argv = (command, "--fan", str(path), "--trust-input", "--elim-cone", "0,3")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", degenerate), command


def test_cached_parser_matches_a_fresh_one(capsys, monkeypatch):
    import toriccsm.cli as cli

    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["euler", "--builder", "pn=2"],
        ["csm"],
        ["validate", "--builder", "wps=1,1,2", "--json"],
        ["euler", "--builder", "pn=2", "--only", "pn=1"],
        ["csm", "--builder", "hirzebruch=1", "--elim-cone", "0,1", "--euler-only"],
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
    assert [code for code, _, _ in cached[: len(argvs)]] == [0, 1, 0, 1, 0, 1, 0, 0, 1, 0]


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--only", "pn=2", "--only", "hirzebruch=1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "chi" in lines[0]
    assert len(lines) == 3


def test_bench_json_and_euler_only(capsys):
    code, out, _ = run(capsys, "bench", "--only", "pn=6", "--euler-only", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["input"] == "pn=6" and rows[0]["chi"] == 7
    assert "csm_forced_seconds" not in rows[0]


def test_bench_p16_euler_only(capsys):
    code, out, _ = run(capsys, "bench", "--only", "pn=16", "--euler-only")
    assert code == 0
    assert out.strip().splitlines()[-1].split()[-1] == "17"


def test_bench_defaults_used_when_no_only(capsys, monkeypatch):
    import toriccsm.cli as cli

    monkeypatch.setattr(cli, "_BENCH_DEFAULTS", ["pn=2"])
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert "pn=2" in out


def test_threads_flag(capsys):
    code, out, _ = run(capsys, "euler", "--builder", "wps=1,1,3", "--threads", "3", "--force-hnf")
    assert code == 0 and out.strip() == "3"


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
