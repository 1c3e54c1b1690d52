import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from helpers import normal_form_orbit_sums, relabel, suite_fans

from toriccsm import (
    build_fan,
    build_presentation,
    class_add,
    csm_class,
    csm_result,
    degree,
    euler_by_cone_count,
    euler_characteristic,
    hirzebruch,
    is_smooth,
    multiplicity,
    normal_form,
    product,
    projective_space,
    squarefree_monomial,
    weighted_projective,
)


def test_csm_h5_golden():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    assert csm_class(f, p) == {
        (): Fraction(1),
        ((1, 1),): Fraction(2),
        ((2, 1),): Fraction(7),
        ((1, 1), (2, 1)): Fraction(4),
    }


def test_csm_p2():
    f = projective_space(2)
    assert csm_class(f) == {
        (): Fraction(1),
        ((2, 1),): Fraction(3),
        ((2, 2),): Fraction(3),
    }


def test_csm_p1():
    assert csm_class(projective_space(1)) == {(): Fraction(1), ((1, 1),): Fraction(2)}


def test_per_dim_contributions_h5():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    res = csm_result(f, p)
    assert res.per_dim_contributions[0] == {(): Fraction(1)}
    assert res.per_dim_contributions[1] == {((1, 1),): Fraction(2), ((2, 1),): Fraction(7)}
    assert res.per_dim_contributions[2] == {((1, 1), (2, 1)): Fraction(4)}
    assert res.euler == 4


def test_constant_term_is_one_everywhere():
    for name, fan in suite_fans():
        if len(fan.rays) > 10:
            continue
        res = csm_result(fan)
        assert res.csm_class.get((), None) == 1, name


def test_euler_examples():
    assert euler_characteristic(hirzebruch(5)) == 4
    assert euler_characteristic(projective_space(6)) == 7
    assert euler_characteristic(weighted_projective([1, 1, 2])) == 3


def test_euler_by_cone_count():
    assert euler_by_cone_count(hirzebruch(5)) == 4
    assert euler_by_cone_count(product(projective_space(5), projective_space(6))) == 42
    assert euler_by_cone_count(projective_space(1)) == 2


def test_euler_consistency_all_paths():
    for name, fan in suite_fans():
        if len(fan.rays) > 10:
            continue
        expected = euler_by_cone_count(fan)
        pres = build_presentation(fan)
        for euler_only in (True, False):
            for force in (False, True):
                chi = euler_characteristic(fan, euler_only, pres, force_hnf=force)
                assert chi == expected, (name, euler_only, force)


def test_smooth_fast_path_flag():
    assert is_smooth(projective_space(4))
    assert is_smooth(hirzebruch(5))
    assert not is_smooth(weighted_projective([1, 1, 2]))


def test_p16_fast_and_forced_euler_agree():
    fan = projective_space(16)
    assert is_smooth(fan)
    pres = build_presentation(fan)
    assert euler_characteristic(fan, True, pres) == 17
    assert euler_characteristic(fan, True, pres, force_hnf=True) == 17


def test_forced_path_matches_fast_path():
    for name, fan in suite_fans():
        if len(fan.rays) > 9 or not is_smooth(fan):
            continue
        pres = build_presentation(fan)
        fast = csm_result(fan, pres)
        forced = csm_result(fan, pres, force_hnf=True)
        assert fast == forced, name


def test_threads_do_not_change_results():
    f = product(weighted_projective([1, 1, 3]), hirzebruch(2))
    pres = build_presentation(f)
    one = csm_result(f, pres, force_hnf=True, threads=1)
    four = csm_result(f, pres, force_hnf=True, threads=4)
    assert one == four


def test_smooth_degree_one_part_is_reduced_ray_sum():
    for name, fan in suite_fans():
        if len(fan.rays) > 9 or not is_smooth(fan):
            continue
        pres = build_presentation(fan)
        res = csm_result(fan, pres)
        ray_sum = {squarefree_monomial((j,)): Fraction(1) for j in range(len(fan.rays))}
        assert res.per_dim_contributions[1] == normal_form(ray_sum, pres), name


def test_projective_space_coefficients_are_binomials():
    for n in range(1, 7):
        fan = projective_space(n)
        pres = build_presentation(fan)
        cls = csm_class(fan, pres)
        kept = pres.kept[0]
        for d in range(n + 1):
            mono = () if d == 0 else ((kept, d),)
            assert cls.get(mono, Fraction(0)) == comb(n + 1, d)


def test_product_class_coefficients_are_kunneth_products():
    # c(P1 x P2) expands as (1+a)^2 (1+b)^3, so the per-degree coefficient
    # multisets are {1}, {2,3}, {3,6}, {6} in any kept-variable basis
    from toriccsm import monomial_degree

    f = product(projective_space(1), projective_space(2))
    cls = csm_class(f)
    by_deg = {}
    for m, c in cls.items():
        by_deg.setdefault(monomial_degree(m), []).append(c)
    assert {d: sorted(v) for d, v in by_deg.items()} == {
        0: [1],
        1: [2, 3],
        2: [3, 6],
        3: [6],
    }


def test_hirzebruch_family_pattern():
    # with elimination cone (0, 3): 1 + 2*x1 + (r+2)*x2 + 4*x1*x2
    for r in (0, 1, 3, 7, 10):
        fan = hirzebruch(r)
        pres = build_presentation(fan, (0, 3))
        assert csm_class(fan, pres) == {
            (): Fraction(1),
            ((1, 1),): Fraction(2),
            ((2, 1),): Fraction(r + 2),
            ((1, 1), (2, 1)): Fraction(4),
        }


def test_product_euler_multiplicativity():
    pairs = [
        (projective_space(2), hirzebruch(4)),
        (weighted_projective([1, 1, 2]), projective_space(1)),
        (weighted_projective([1, 1, 5]), weighted_projective([1, 1, 2])),
    ]
    for f1, f2 in pairs:
        p = product(f1, f2)
        assert euler_characteristic(p) == euler_characteristic(f1) * euler_characteristic(f2)
        assert euler_by_cone_count(p) == euler_by_cone_count(f1) * euler_by_cone_count(f2)


def _shuffled(fan, rng):
    """The same fan with ray indices permuted and maximal cones shuffled."""
    perm = list(range(len(fan.rays)))
    rng.shuffle(perm)
    fan = relabel(fan, perm)
    cones = [c.ray_indices for c in fan.max_cones]
    rng.shuffle(cones)
    return build_fan(fan.ambient_dim, fan.rays, cones)


def _oracle_cases():
    fans = list(suite_fans())
    fans += [
        ("wps=1,2,3*pn=2", product(weighted_projective([1, 2, 3]), projective_space(2))),
        ("wps=1,1,2*wps=1,3,5", product(weighted_projective([1, 1, 2]), weighted_projective([1, 3, 5]))),
        ("wps=1,2,3,5*hirzebruch=3", product(weighted_projective([1, 2, 3, 5]), hirzebruch(3))),
    ]
    rng = random.Random(5)
    base = product(product(projective_space(2), weighted_projective([1, 1, 3])), projective_space(3))
    fans.append(("shuffled pn=2*wps=1,1,3*pn=3", _shuffled(base, rng)))
    for name, fan in fans:
        cones = sorted(fan.max_cones, key=lambda c: c.ray_indices)
        for elim in (cones[0], cones[len(cones) // 2], cones[-1]):
            yield name, fan, elim


def test_trie_orbit_sum_matches_normal_form_oracle():
    for name, fan, elim in _oracle_cases():
        pres = build_presentation(fan, elim)
        expected = normal_form_orbit_sums(fan, pres)
        total = {}
        for part in expected.values():
            total = class_add(total, part)
        chi = degree(expected[fan.ambient_dim], pres)
        for force in (False, True):
            case = (name, elim, force)
            res = csm_result(fan, pres, force_hnf=force)
            assert res.per_dim_contributions == expected, case
            assert res.csm_class == total, case
            assert all(type(q) is Fraction for q in res.csm_class.values()), case
            assert euler_characteristic(fan, True, pres, force_hnf=force) == chi, case


def test_pn5_pn8_class_envelope():
    fan = product(projective_space(5), projective_space(8))
    pres = build_presentation(fan)
    t0 = time.perf_counter()
    res = csm_result(fan, pres)
    elapsed = time.perf_counter() - t0
    assert res.euler == 54
    assert elapsed < 1.5, f"pn=5*pn=8 class took {elapsed:.2f} s"


def test_smooth_class_never_enumerates_faces(monkeypatch):
    import toriccsm.csm as csm

    def refuse(fan):
        raise AssertionError("a smooth fan's class enumerated its faces")

    monkeypatch.setattr(csm, "enumerate_cones", refuse)
    fan = product(projective_space(5), projective_space(8))
    res = csm_result(fan, build_presentation(fan))
    assert res.euler == 54
    assert len(res.per_dim_contributions) == 14


def test_correction_walk_sees_only_singular_cones(monkeypatch):
    import toriccsm.csm as csm

    walked = []
    orbit_sum = csm._orbit_sum

    def record(pres, cones, sums):
        cones = list(cones)
        walked.extend(cones)
        return orbit_sum(pres, cones, sums)

    monkeypatch.setattr(csm, "_orbit_sum", record)
    fan = product(product(projective_space(2), weighted_projective([1, 1, 3])), projective_space(3))
    res = csm_result(fan, build_presentation(fan))
    assert res.euler == 36
    expected = [(c, multiplicity(fan, c) - 1) for d in sorted(fan.faces) for c in fan.faces[d]]
    expected = sorted((cm for cm in expected if cm[1]), key=lambda cm: cm[0].ray_indices)
    assert walked and walked == expected


@pytest.mark.parametrize("spec", ["pn=4*pn=4*pn=4", "wps=1,1,3*pn=2*wps=1,1,2"])
def test_csm_run_takes_one_determinant_per_maximal_cone(spec, monkeypatch, tmp_path, capsys):
    import toriccsm.fan as fan_mod
    from toriccsm import render_fan
    from toriccsm.cli import _builder_fan, main

    path = tmp_path / "input.fan"
    path.write_text(render_fan(_builder_fan(spec)))
    calls = {"determinant": 0, "hermite_normal_form": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fan_mod, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(fan_mod, name, counted)
    assert main(["csm", "--fan", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == {"determinant": report["fan"]["max_cones"], "hermite_normal_form": 0}
    assert report["fan"]["smooth"] == (spec == "pn=4*pn=4*pn=4")
