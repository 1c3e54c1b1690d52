import json
import random
import time
from fractions import Fraction
from math import comb

import pytest
from helpers import (
    class_add,
    normal_form_orbit_sums,
    product_formula_class,
    relabel,
    relabelled_products,
    stellar_fan,
    suite_fans,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toriccsm import (
    build_fan,
    build_presentation,
    csm_result,
    degree,
    enumerate_cones,
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
from toriccsm.errors import ValidationError


def test_csm_h5_golden():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    assert csm_result(f, p).csm_class == {
        (): Fraction(1),
        ((1, 1),): Fraction(2),
        ((2, 1),): Fraction(7),
        ((1, 1), (2, 1)): Fraction(4),
    }


def test_csm_p2():
    f = projective_space(2)
    assert csm_result(f).csm_class == {
        (): Fraction(1),
        ((2, 1),): Fraction(3),
        ((2, 2),): Fraction(3),
    }


def test_csm_p1():
    assert csm_result(projective_space(1)).csm_class == {(): Fraction(1), ((1, 1),): Fraction(2)}


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


def test_euler_characteristic_is_the_max_cone_count():
    # chi is the number of maximal cones
    fans = [(hirzebruch(5), 4), (product(projective_space(5), projective_space(6)), 42),
            (projective_space(1), 2)]
    for fan, count in fans:
        assert len(fan.max_cones) == count
        assert euler_characteristic(fan) == count


def test_euler_consistency_all_paths():
    for name, fan in suite_fans():
        if len(fan.rays) > 10:
            continue
        expected = len(fan.max_cones)
        pres = build_presentation(fan)
        assert euler_characteristic(fan, pres) == expected, name
        for force in (False, True):
            assert csm_result(fan, pres, force_hnf=force).euler == expected, (name, force)


def test_smooth_fast_path_flag():
    assert is_smooth(projective_space(4))
    assert is_smooth(hirzebruch(5))
    assert not is_smooth(weighted_projective([1, 1, 2]))


def test_p16_fast_and_forced_euler_agree():
    fan = projective_space(16)
    assert is_smooth(fan)
    pres = build_presentation(fan)
    assert euler_characteristic(fan, pres) == 17
    assert csm_result(fan, pres).euler == 17


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
        cls = csm_result(fan, pres).csm_class
        kept = pres.kept[0]
        for d in range(n + 1):
            mono = () if d == 0 else ((kept, d),)
            assert cls.get(mono, Fraction(0)) == comb(n + 1, d)


def test_product_class_coefficients_are_kunneth_products():
    # c(P1 x P2) expands as (1+a)^2 (1+b)^3, so the per-degree coefficient
    # multisets are {1}, {2,3}, {3,6}, {6} in any kept-variable basis
    from toriccsm import monomial_degree

    f = product(projective_space(1), projective_space(2))
    cls = csm_result(f).csm_class
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
        assert csm_result(fan, pres).csm_class == {
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
        assert len(p.max_cones) == len(f1.max_cones) * len(f2.max_cones)


@settings(max_examples=25, deadline=None, database=None)
@given(relabelled_products())
def test_product_formula_gives_the_class(drawn):
    # c_SM(X x Y) = pr_1^* c_SM(X) . pr_2^* c_SM(Y), term by term in the
    # product's kept variables, whatever the labels of its rays
    factors, fan = drawn
    pres = build_presentation(fan)
    assert product_formula_class(factors, pres) == csm_result(fan, pres).csm_class


def _default_equals_forced(fan, pres):
    """``csm_result`` by default, after checking term by term that it equals
    the class with ``force_hnf`` on the same fan."""
    default = csm_result(fan, pres)
    forced = csm_result(fan, pres, force_hnf=True)
    assert default.csm_class == forced.csm_class
    assert default.per_dim_contributions == forced.per_dim_contributions
    assert default.euler == forced.euler == len(fan.max_cones)
    return default


def test_unimodular_face_rule_on_singular_suite_and_stellar_fans():
    # Faces of unimodular maximal cones are taken to be unimodular by
    # default; the forced class computes every multiplicity.  A suite
    # product's name is its builder spec, so its factors give the product
    # formula as a third class.
    from toriccsm.cli import _builder_fan

    fans = [(name, fan) for name, fan in suite_fans() if not is_smooth(fan)]
    for n, k in ((2, 6), (3, 6), (3, 10), (4, 4)):
        for seed in range(3):
            fans.append((f"stellar_fan({n}, {k}, {seed}, (1, 2))", stellar_fan(n, k, seed, (1, 2))))
    products = 0
    for name, fan in fans:
        assert not is_smooth(fan), name
        pres = build_presentation(fan)
        default = _default_equals_forced(fan, pres)
        if "*" in name:
            factors = [_builder_fan(spec) for spec in name.split("*")]
            assert product_formula_class(factors, pres) == default.csm_class, name
            products += 1
    assert products >= 10 and len(fans) - products >= 4 + 12


@settings(max_examples=15, deadline=None, database=None)
@given(relabelled_products().filter(lambda drawn: not is_smooth(drawn[1])))
def test_unimodular_face_rule_on_singular_products(drawn):
    # The default class, the forced class and the product formula agree
    # term by term on products with a singular weighted projective factor.
    factors, fan = drawn
    pres = build_presentation(fan)
    default = _default_equals_forced(fan, pres)
    assert product_formula_class(factors, pres) == default.csm_class


@st.composite
def singular_fans(draw):
    """A singular relabelled product of at most 12 rays, which keeps the
    oracle quick, or a singular P^n + k subdivided at sums with
    coefficients in {1, 2}."""
    if draw(st.booleans()):
        _, fan = draw(relabelled_products().filter(lambda drawn: len(drawn[1].rays) <= 12))
        assume(not is_smooth(fan))
        return fan
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 8 if n == 2 else 6))
    fan = stellar_fan(n, k, draw(st.integers(0, 10**6)), (1, 2))
    assume(not is_smooth(fan))
    return fan


@settings(max_examples=30, deadline=None, database=None)
@given(singular_fans())
def test_class_and_euler_walks_stay_in_int(fan):
    # Under its elimination cone of largest multiplicity every table is
    # scaled, and every accumulator the walks hand over to be divided is
    # still an int; the divided classes and chi match the oracle.
    import toriccsm.chow as chow

    handed = []
    graded_classes = chow._graded_classes

    def spy(pres, sums):
        handed.extend(q for acc in sums for q in acc.values())
        return graded_classes(pres, sums)

    elim = max(fan.max_cones, key=lambda c: (multiplicity(fan, c), c.ray_indices))
    pres = build_presentation(fan, elim)
    expected = normal_form_orbit_sums(fan, pres)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chow, "_graded_classes", spy)
        results = [csm_result(fan, pres, force_hnf=force) for force in (False, True)]
        chi = euler_characteristic(fan, pres)
    assert handed and all(type(q) is int for q in handed)
    for res in results:
        assert res.per_dim_contributions == expected
    assert chi == degree(expected[fan.ambient_dim], pres) == len(fan.max_cones)


def test_lattice_indices_of_default_and_forced_class(monkeypatch):
    # wps=1,1,3*pn=5*pn=6 has 55,880 faces below the top dimension.  By
    # default only the 7,959 that lie in no unimodular maximal cone take a
    # lattice index.  The listed faces are fresh cones on each call, so a
    # forced class afterwards on the same Fan indexes all 55,880.
    import toriccsm.fan as fan_mod

    calls = []
    index = fan_mod.column_lattice_index

    def counted(m):
        calls.append(1)
        return index(m)

    monkeypatch.setattr(fan_mod, "column_lattice_index", counted)
    fan = product(product(weighted_projective([1, 1, 3]), projective_space(5)), projective_space(6))
    pres = build_presentation(fan)
    default = csm_result(fan, pres)
    assert len(calls) == 7959
    forced = csm_result(fan, pres, force_hnf=True)
    assert len(calls) == 7959 + 55880
    assert sum(c.dim < fan.ambient_dim for c in enumerate_cones(fan)) == 55880
    assert default == forced


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
        assert euler_characteristic(fan, pres) == chi, (name, elim)
        for force in (False, True):
            case = (name, elim, force)
            res = csm_result(fan, pres, force_hnf=force)
            assert res.per_dim_contributions == expected, case
            assert res.csm_class == total, case
            assert all(type(q) is Fraction for q in res.csm_class.values()), case


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

    def refuse(fan, **kwargs):
        raise AssertionError("a smooth fan's class enumerated its faces")

    monkeypatch.setattr(csm, "enumerate_cones", refuse)
    fan = product(projective_space(5), projective_space(8))
    res = csm_result(fan, build_presentation(fan))
    assert res.euler == 54
    assert len(res.per_dim_contributions) == 14


def test_thread_count_is_clamped_at_the_cpu_count(monkeypatch):
    # A thread count far above the CPU count starts no more workers than
    # there are CPUs.  The pool is a recording fake that runs its map
    # inline, so no thread is started.
    import concurrent.futures
    import os

    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    fan = product(weighted_projective([1, 1, 3]), projective_space(2))
    pres = build_presentation(fan)
    expected = csm_result(fan, pres, force_hnf=True, threads=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert csm_result(fan, pres, force_hnf=True, threads=3000) == expected
    assert started == [4]


def test_correction_walk_sees_only_singular_cones(monkeypatch):
    import toriccsm.csm as csm

    walked = []
    orbit_classes = csm.orbit_classes

    def record(pres, terms, **kwargs):
        terms = list(terms)
        walked.extend(terms)
        return orbit_classes(pres, terms, **kwargs)

    monkeypatch.setattr(csm, "orbit_classes", record)
    fan = product(product(projective_space(2), weighted_projective([1, 1, 3])), projective_space(3))
    res = csm_result(fan, build_presentation(fan))
    assert res.euler == 36
    expected = [(c.ray_indices, multiplicity(fan, c) - 1) for c in enumerate_cones(fan)]
    expected = [cm for cm in expected if cm[1]]
    assert walked and walked == expected


@pytest.mark.parametrize("spec", ["pn=4*pn=4*pn=4", "wps=1,1,3*pn=2*wps=1,1,2"])
def test_csm_run_validates_with_one_root_elimination(spec, monkeypatch, tmp_path, capsys):
    # Validation walks the walls of each coordinate factor (pn=4 three
    # times; wps=1,1,3, pn=2 and wps=1,1,2) from one root cone: one signed
    # solve per factor, then each cone's determinant from a neighbour's.
    # No per-cone determinant and no Hermite form anywhere in the run.
    import toriccsm.fan as fan_mod
    from toriccsm import render_fan
    from toriccsm.cli import _builder_fan, main

    path = tmp_path / "input.fan"
    path.write_text(render_fan(_builder_fan(spec)))
    calls = {"fraction_free_solve_rows": 0, "determinant": 0, "hermite_normal_form": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fan_mod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fan_mod, name, counted)
    assert main(["csm", "--fan", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == {"fraction_free_solve_rows": 3, "determinant": 0, "hermite_normal_form": 0}
    assert report["fan"]["smooth"] == (spec == "pn=4*pn=4*pn=4")


def test_presentation_of_another_fan_is_rejected():
    fan = hirzebruch(1)
    other = build_presentation(hirzebruch(5))
    with pytest.raises(ValidationError, match="different fan"):
        csm_result(fan, other)
    with pytest.raises(ValidationError, match="different fan"):
        euler_characteristic(fan, other)
    assert csm_result(fan, build_presentation(fan)).euler == 4

