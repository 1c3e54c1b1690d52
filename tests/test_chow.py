import random
import time
from fractions import Fraction
from math import comb

import pytest
from helpers import (
    brute_quotient_dims,
    exponent_tuples,
    macaulay_presentation,
    normal_form_orbit_sums,
    oracle_normal_form,
    oracle_substitution,
    relabel,
    suite_fans,
)

from toriccsm import (
    build_presentation,
    class_add,
    csm_result,
    degree,
    euler_by_cone_count,
    graded_dimensions,
    hirzebruch,
    linear_relations,
    multiplicity,
    normal_form,
    product,
    projective_space,
    squarefree_monomial,
    stanley_reisner_nonfaces,
    weighted_projective,
)
from toriccsm import chow
from toriccsm.chow import _check_graded_dimensions, multiplication_tables
from toriccsm.errors import InternalError, ValidationError


def test_nonfaces_h5():
    assert stanley_reisner_nonfaces(hirzebruch(5)) == ((0, 2), (1, 3))


def test_nonfaces_p2():
    assert stanley_reisner_nonfaces(projective_space(2)) == ((0, 1, 2),)


def test_nonfaces_p1xp1():
    f = product(projective_space(1), projective_space(1))
    assert stanley_reisner_nonfaces(f) == ((0, 1), (2, 3))


def test_nonfaces_are_not_faces_and_minimal():
    for name, fan in suite_fans():
        maxsets = [set(c.ray_indices) for c in fan.max_cones]
        for s in stanley_reisner_nonfaces(fan):
            assert not any(set(s) <= m for m in maxsets), name
            for i in range(len(s)):
                sub = set(s) - {s[i]}
                assert any(sub <= m for m in maxsets), name


def test_linear_relations():
    assert linear_relations(hirzebruch(5)) == ((1, 0, -1, 0), (0, 1, 5, -1))
    assert linear_relations(projective_space(2)) == ((1, 0, -1), (0, 1, -1))
    assert linear_relations(projective_space(1)) == ((1, -1),)


def test_presentation_h5_with_chosen_cone():
    p = build_presentation(hirzebruch(5), (0, 3))
    assert p.kept == (1, 2)
    assert p.substitution[0] == {((2, 1),): Fraction(1)}
    assert p.substitution[3] == {((1, 1),): Fraction(1), ((2, 1),): Fraction(5)}
    assert p.degree_bases[0] == ((),)
    assert p.degree_bases[1] == (((1, 1),), ((2, 1),))
    assert p.degree_bases[2] == (((1, 1), (2, 1)),)


def test_presentation_p2():
    p = build_presentation(projective_space(2))  # eliminates the cone (0, 1)
    assert p.elim_cone.ray_indices == (0, 1)
    assert p.kept == (2,)
    assert p.degree_bases[1] == (((2, 1),),)
    assert p.degree_bases[2] == (((2, 2),),)


def test_presentation_p1():
    p = build_presentation(projective_space(1))
    assert p.kept == (1,)
    assert graded_dimensions(p) == (1, 1)


def test_presentation_rejects_non_maximal_elim_cone():
    with pytest.raises(ValidationError, match="not a maximal cone"):
        build_presentation(hirzebruch(5), (0, 2))


def test_normal_form_golden_h5():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    quad = {
        squarefree_monomial(s): Fraction(1) for s in [(0, 1), (1, 2), (2, 3), (3, 0)]
    }
    assert normal_form(quad, p) == {((1, 1), (2, 1)): Fraction(4)}
    lin = {squarefree_monomial((j,)): Fraction(1) for j in range(4)}
    assert normal_form(lin, p) == {((1, 1),): Fraction(2), ((2, 1),): Fraction(7)}


def test_normal_form_idempotent_and_linear():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    c = {((1, 1),): Fraction(3), ((1, 1), (2, 1)): Fraction(-2), (): Fraction(1)}
    assert normal_form(c, p) == c
    a = {squarefree_monomial((0, 1)): Fraction(2)}
    b = {squarefree_monomial((2, 3)): Fraction(-5), ((1, 1),): Fraction(1, 3)}
    lhs = normal_form(class_add(a, b), p)
    rhs = class_add(normal_form(a, p), normal_form(b, p))
    assert lhs == rhs


def test_normal_form_kills_ideal_generators():
    for name, fan in suite_fans():
        if len(fan.rays) > 9:
            continue
        p = build_presentation(fan)
        for s in stanley_reisner_nonfaces(fan):
            if len(s) <= fan.ambient_dim:
                g = {squarefree_monomial(s): Fraction(1)}
                assert normal_form(g, p) == {}, name
        for form in linear_relations(fan):
            lin = {}
            for j, cf in enumerate(form):
                if cf:
                    lin[squarefree_monomial((j,))] = Fraction(cf)
            assert normal_form(lin, p) == {}, name


def test_graded_dimensions_examples():
    assert graded_dimensions(build_presentation(hirzebruch(5))) == (1, 2, 1)
    assert graded_dimensions(build_presentation(projective_space(2))) == (1, 1, 1)
    p11 = product(projective_space(1), projective_space(1))
    assert graded_dimensions(build_presentation(p11)) == (1, 2, 1)


def test_degree_examples():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    assert degree({((1, 1), (2, 1)): Fraction(4)}, p) == 4
    p2 = build_presentation(projective_space(2))
    assert degree({((2, 2),): Fraction(3)}, p2) == 3
    assert degree({}, p2) == 0


def test_degree_of_every_fixed_point_class_is_one():
    for name, fan in suite_fans():
        p = build_presentation(fan)
        for c in fan.max_cones:
            cls = {squarefree_monomial(c.ray_indices): Fraction(multiplicity(fan, c))}
            assert degree(normal_form(cls, p), p) == 1, (name, c)


def test_h_vector_sums_to_max_cone_count():
    for name, fan in suite_fans():
        dims = graded_dimensions(build_presentation(fan))
        assert sum(dims) == euler_by_cone_count(fan), name


def test_elimination_matches_bruteforce_quotient():
    for name, fan in suite_fans():
        if len(fan.rays) > 6:
            continue
        dims = list(graded_dimensions(build_presentation(fan)))
        assert dims == brute_quotient_dims(fan), name


def test_basis_choice_independence():
    for name, fan in suite_fans():
        if len(fan.rays) > 7:
            continue
        elims = sorted(c.ray_indices for c in fan.max_cones)[:3]
        dims = {graded_dimensions(build_presentation(fan, e)) for e in elims}
        assert len(dims) == 1, name


def _oracle_cases():
    cases = [(name, fan) for name, fan in suite_fans() if len(fan.rays) - fan.ambient_dim <= 5]
    p1 = projective_space(1)
    p1_5 = p1
    for _ in range(4):
        p1_5 = product(p1_5, p1)
    mixed = product(product(product(p1, p1), hirzebruch(7)), projective_space(2))
    rng = random.Random(0)
    for name, fan in [("(P1)^5", p1_5), ("P1xP1xF7xP2", mixed)]:
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        cases.append((f"relabelled {name}", relabel(fan, perm)))
    return cases


def test_groebner_tables_match_macaulay_oracle():
    for name, fan in _oracle_cases():
        for elim in sorted(c.ray_indices for c in fan.max_cones)[:3]:
            p = build_presentation(fan, elim)
            q = macaulay_presentation(p)
            case = (name, elim)
            assert p.degree_bases == q.degree_bases, case
            assert p.point_coeff == q.point_coeff, case
            for d in range(fan.ambient_dim + 1):
                for e in exponent_tuples(len(p.kept), d):
                    mono = {tuple((p.kept[i], k) for i, k in enumerate(e) if k): Fraction(1)}
                    assert normal_form(mono, p) == oracle_normal_form(mono, q), (case, mono)
            oracle_class = {}
            for part in normal_form_orbit_sums(fan, p, q).values():
                oracle_class = class_add(oracle_class, part)
            assert csm_result(fan, p).csm_class == oracle_class, case


def test_graded_dimension_invariants():
    _check_graded_dimensions((1, 2, 1), 4)
    with pytest.raises(InternalError, match="not palindromic"):
        _check_graded_dimensions((1, 2, 2), 5)
    with pytest.raises(InternalError, match="sum to 4"):
        _check_graded_dimensions((1, 2, 1), 5)


@pytest.mark.parametrize("k, limit", [(7, 5.0), (10, 1.5)])
def test_p1_power_7_presentation_envelope(k, limit):
    fan = projective_space(1)
    for _ in range(k - 1):
        fan = product(fan, projective_space(1))
    t0 = time.perf_counter()
    p = build_presentation(fan)
    elapsed = time.perf_counter() - t0
    assert graded_dimensions(p) == tuple(comb(k, d) for d in range(k + 1))
    assert elapsed < limit, f"(P1)^{k} presentation took {elapsed:.2f}s"


def test_table_entries_are_int_exactly_when_integral(monkeypatch):
    # == cannot tell 1 from Fraction(1); the class walks rely on int
    # entries to stay in int arithmetic.  The Groebner basis stays over
    # Fraction: an int leading coefficient must not turn into a float.
    groebner = []
    truncated_groebner = chow._truncated_groebner

    def spy(gens, top):
        basis = truncated_groebner(gens, top)
        groebner.extend(basis)
        return basis

    monkeypatch.setattr(chow, "_truncated_groebner", spy)
    fans = [
        ("hirzebruch=1", hirzebruch(1)),
        ("wps=1,2,3*wps=1,1,3", product(weighted_projective([1, 2, 3]), weighted_projective([1, 1, 3]))),
    ]
    kinds = {"tables": set(), "substitution": set()}
    for name, fan in fans:
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for elim in (cones[0], cones[-1]):
            pres = build_presentation(fan, elim)
            entries = {
                "tables": [
                    q
                    for table in multiplication_tables(pres)
                    for rows in table
                    for row in rows
                    for _, q in row
                ],
                "substitution": [q for form in pres._subst_dense.values() for q in form.values()],
            }
            for kind, values in entries.items():
                assert values, (name, elim, kind)
                for q in values:
                    assert type(q) is int or q.denominator != 1, (name, elim, kind, q)
                    kinds[kind].add(type(q))
    assert kinds == {"tables": {int, Fraction}, "substitution": {int, Fraction}}
    assert groebner
    for _, g in groebner:
        assert all(type(c) is Fraction for c in g.values()), g


def test_substitution_matches_rref_oracle():
    fans = list(suite_fans())
    fans += [
        ("wps=1,2,3*pn=2", product(weighted_projective([1, 2, 3]), projective_space(2))),
        ("wps=1,2,3,5*hirzebruch=3", product(weighted_projective([1, 2, 3, 5]), hirzebruch(3))),
        (
            "wps=1,1,3*pn=2*wps=1,1,2",
            product(
                product(weighted_projective([1, 1, 3]), projective_space(2)),
                weighted_projective([1, 1, 2]),
            ),
        ),
    ]
    fractional = 0
    for name, fan in fans:
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for elim in (cones[0], cones[len(cones) // 2], cones[-1]):
            subst = build_presentation(fan, elim).substitution
            assert subst == oracle_substitution(fan, elim), (name, elim)
            coeffs = [q for form in subst.values() for q in form.values()]
            assert all(type(q) is Fraction for q in coeffs), (name, elim)
            fractional += any(q.denominator != 1 for q in coeffs)
    assert fractional
