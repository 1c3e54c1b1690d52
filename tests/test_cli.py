import json

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
    code, out, _ = run(capsys, "euler", "--product", "pn=2", "pn=3")
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
