import random
import re
import time
from unittest import mock
from itertools import combinations
from itertools import product as cartesian
from decimal import Decimal
from fractions import Fraction
from math import comb, lcm
from types import SimpleNamespace

import pytest
from helpers import (
    MULTI_COVER_FANS,
    brute_quotient_dims,
    certify_presentation,
    class_add,
    exponent_tuples,
    h_vector,
    macaulay_presentation,
    normal_form_orbit_sums,
    oracle_normal_form,
    oracle_substitution,
    relabel,
    relabelled_products,
    scan_groebner_tables,
    shuffled_products,
    stellar_fan,
    suite_fans,
    transversal_nonfaces,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccsm import (
    Cone,
    Fan,
    build_fan,
    build_presentation,
    csm_result,
    degree,
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


@st.composite
def nonface_fans(draw):
    """A relabelled product, a subdivided product or a P^n + k with
    coefficients in {1, 2}."""
    kind = draw(st.sampled_from(("product", "subdivided product", "stellar")))
    if kind == "product":
        return draw(relabelled_products())[1]
    if kind == "subdivided product":
        return build_fan(*draw(shuffled_products(min_subdivisions=1)))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 10 if n < 4 else 6))
    return stellar_fan(n, k, draw(st.integers(0, 10**6)), (1, 2))


def _check_join_factors(fan):
    """Assert that the join factors partition the rays and that the
    maximal cones are exactly the unions of one projection per factor;
    return the factors' ray sets."""
    factors = chow._join_factors(fan)
    blocks = [block for block, _ in factors]
    assert sum(blocks) == (1 << len(fan.rays)) - 1
    assert all(a & b == 0 for a, b in combinations(blocks, 2))
    unions = [sum(choice) for choice in cartesian(*(projections for _, projections in factors))]
    assert sorted(unions) == sorted(chow._mask(c.ray_indices) for c in fan.max_cones)
    return {frozenset(j for j in range(len(fan.rays)) if block >> j & 1) for block in blocks}


def test_nonfaces_are_not_faces_and_minimal():
    for name, fan in suite_fans():
        maxsets = [set(c.ray_indices) for c in fan.max_cones]
        nonfaces = stanley_reisner_nonfaces(fan)
        assert nonfaces == transversal_nonfaces(fan), name
        _check_join_factors(fan)
        for s in nonfaces:
            assert not any(set(s) <= m for m in maxsets), name
            for i in range(len(s)):
                sub = set(s) - {s[i]}
                assert any(sub <= m for m in maxsets), name
        r = len(fan.rays)
        if r <= 10:

            def is_face(s):
                return any(set(s) <= m for m in maxsets)

            brute = {
                s
                for k in range(1, r + 1)
                for s in combinations(range(r), k)
                if not is_face(s) and all(is_face(s[:i] + s[i + 1 :]) for i in range(k))
            }
            assert set(nonfaces) == brute, name


@settings(max_examples=100, deadline=None, database=None)
@given(nonface_fans())
def test_nonfaces_match_transversal_oracle(fan):
    # The join split and the indexed minimality test give the whole-fan
    # transversal routine's non-faces, in its order.
    assert stanley_reisner_nonfaces(fan) == transversal_nonfaces(fan)
    _check_join_factors(fan)


@settings(max_examples=40, deadline=None, database=None)
@given(relabelled_products())
def test_join_factors_of_relabelled_products(drawn):
    # Each P^n or wps factor is one block.  A Hirzebruch factor is two,
    # {0, 2} and {1, 3} in its own indices, since its complex is a 4-cycle,
    # the join of two pairs of points.
    factors, fan = drawn
    n = fan.ambient_dim
    index = {v: j for j, v in enumerate(fan.rays)}
    expected, before = set(), 0
    for factor in factors:
        k = factor.ambient_dim
        where = [index[(0,) * before + v + (0,) * (n - before - k)] for v in factor.rays]
        parts = [range(k + 1)] if len(where) == k + 1 else [(0, 2), (1, 3)]
        expected |= {frozenset(where[j] for j in part) for part in parts}
        before += k
    assert _check_join_factors(fan) == expected


def test_join_factors_of_stellar_fans():
    # One stellar subdivision of a maximal cone of P^n gives the complex of
    # the blow-up of a point: the join of the new ray and the opposite one
    # with the boundary of a simplex.  More subdivisions leave one block.
    for n in (2, 3, 4):
        for seed in range(5):
            fan = stellar_fan(n, 1, seed, (1, 2))
            new = len(fan.rays) - 1
            # the n cones at the end replace the subdivided cone
            (opposite,) = set(range(n + 1)).difference(*(c.ray_indices for c in fan.max_cones[-n:]))
            assert _check_join_factors(fan) == {
                frozenset((new, opposite)),
                frozenset(range(n + 1)) - {opposite},
            }, (n, seed)
            for k in (2, 3, 5, 8):
                fan = stellar_fan(n, k, seed, (1, 2))
                assert _check_join_factors(fan) == {frozenset(range(len(fan.rays)))}, (n, k, seed)


def test_join_check_rejects_pairwise_independent_blocks():
    # The triangles {x_i, y_j, z_k} with i + j + k even: every two vertices
    # of different pairs lie in 1 of the 4 triangles, as a join of the three
    # pairs would have them, but the join has 8.  So the three pairs fail
    # the count and the vertices form one factor.  Not a fan; the routine
    # reads only the maximal cones.
    triangles = [(i, 2 + j, 4 + k) for i, j, k in cartesian((0, 1), repeat=3) if (i + j + k) % 2 == 0]
    complex_ = SimpleNamespace(rays=range(6), max_cones=[Cone(t) for t in triangles])
    assert chow._join_factors(complex_) == [(0b111111, {chow._mask(t) for t in triangles})]
    assert stanley_reisner_nonfaces(complex_) == transversal_nonfaces(complex_)
    assert (0, 2, 5) in stanley_reisner_nonfaces(complex_)


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


def test_normal_form_rejects_unknown_rays_and_high_degree():
    f = hirzebruch(5)
    p = build_presentation(f, (0, 3))
    for ray in (-1, len(f.rays)):
        with pytest.raises(ValidationError, match="unknown ray index"):
            normal_form({((ray, 1),): Fraction(1)}, p)
    with pytest.raises(ValidationError, match="degree exceeds"):
        normal_form({((1, 2), (2, 1)): Fraction(1)}, p)
    p2 = build_presentation(projective_space(2))
    for mono in (((0, -1),), ((0, 0),), ((1, 3), (2, -2))):
        with pytest.raises(ValidationError, match="exponent below 1"):
            normal_form({mono: Fraction(1)}, p2)


def test_normal_form_rejects_non_integer_rays_and_exponents():
    # A float or Fraction exponent or ray index is never truncated, and it
    # raises ValidationError, not a TypeError from the table lookup.
    p = build_presentation(projective_space(2))
    for mono in (((1, 1.5),), ((1.5, 1),), ((0, 1), (1, Fraction(1, 2))), ((1, "1"),)):
        with pytest.raises(ValidationError, match="non-integer ray index or exponent"):
            normal_form({mono: Fraction(1)}, p)
    assert normal_form({((True, 1),): Fraction(1)}, p) == normal_form({((1, 1),): Fraction(1)}, p)


def test_normal_form_rejects_inexact_coefficients():
    # Fraction(0.1) would be 3602879701896397/36028797018963968; a float,
    # str or Decimal coefficient is an error that names its monomial.
    p = build_presentation(projective_space(2))
    for coeff in (0.1, 0.0, "1", Decimal(1)):
        with pytest.raises(ValidationError, match=re.escape(f"monomial ((1, 1),) has coefficient {coeff!r}")):
            normal_form({((1, 1),): coeff}, p)
    assert normal_form({((1, 1),): 3}, p) == normal_form({((1, 1),): Fraction(3)}, p)


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
        assert sum(dims) == len(fan.max_cones), name


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
        for t, elim in enumerate(sorted(c.ray_indices for c in fan.max_cones)[:3]):
            p = build_presentation(fan, elim)
            q = macaulay_presentation(p)
            case = (name, elim)
            assert p.degree_bases == q.degree_bases, case
            assert p.point_coeff == q.point_coeff, case
            assert all(table is not None for table in multiplication_tables(p)[0]), case
            monos = [
                tuple((p.kept[i], k) for i, k in enumerate(e) if k)
                for d in range(fan.ambient_dim + 1)
                for e in exponent_tuples(len(p.kept), d)
            ]
            if t == 0:
                # Squarefree monomials in all rays walk the eliminated
                # variables' tables too.
                monos += [
                    squarefree_monomial(s)
                    for d in range(2, fan.ambient_dim + 1)
                    for s in combinations(range(len(fan.rays)), d)
                ]
                monos += [((j, 1),) for j in p.elim_cone.ray_indices]
            for mono in monos:
                c = {mono: Fraction(1)}
                assert normal_form(c, p) == oracle_normal_form(c, q), (case, mono)
            # The whole class at once, with distinct coefficients: one walk
            # shares prefixes across monomials and powers.
            c = {mono: Fraction(i + 1, 2 + i % 3) for i, mono in enumerate(monos)}
            assert normal_form(c, p) == oracle_normal_form(c, q), case
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


def _power(fan, k):
    out = fan
    for _ in range(k - 1):
        out = product(out, fan)
    return out


def _table_entries(tables):
    return [q for table in tables for rows in table for row in rows for _, q in row]


def _scaled_rows_are_normal_forms(pres, rays=None):
    """Every row of every table of the given rays (by default all),
    divided by its degree's scale, is the Macaulay oracle's normal form of
    x_j times that basis monomial."""
    mac = macaulay_presentation(pres)
    tables, scales = multiplication_tables(pres)
    bases = pres.degree_bases
    for j in range(len(tables)) if rays is None else rays:
        for e, rows in enumerate(tables[j]):
            for b, row in zip(bases[e], rows):
                exps = dict(b)
                exps[j] = exps.get(j, 0) + 1
                expected = oracle_normal_form({tuple(sorted(exps.items())): Fraction(1)}, mac)
                assert {bases[e + 1][i]: Fraction(q, scales[e]) for i, q in row} == expected


def test_table_entries_are_int_exactly_when_integral(monkeypatch):
    # Every ray's degree-e table is stored times one positive int scale,
    # which makes every entry an int (== cannot tell 1 from Fraction(1)),
    # so the class walks stay in int arithmetic.  The Groebner basis stays
    # over Fraction: an int leading coefficient must not turn into a float.
    groebner = []
    groebner_tables = chow._groebner_tables

    def spy(gens, packing):
        basis, bases, tables = groebner_tables(gens, packing)
        groebner.extend(basis)
        return basis, bases, tables

    monkeypatch.setattr(chow, "_groebner_tables", spy)
    wps = product(weighted_projective([1, 2, 3]), weighted_projective([1, 1, 3]))
    p1, p2 = projective_space(1), projective_space(2)
    # (fan, index of the elimination cone, scales): a unimodular cone and
    # an integral Groebner basis give scale 1 in every degree.  The cones
    # of multiplicity 9 and 2 scale every degree by d = |det A| over the
    # content of the solve, 9 / 3 and 2.  stellar_fan(3, 4, 0) and the
    # product (P1)^3 x F7 are smooth, and under these unimodular cones
    # their Groebner denominators scale some degrees.
    cases = [
        (product(_power(p1, 3), _power(p2, 2)), 0, (1,) * 7),
        (product(_power(p1, 3), _power(p2, 2)), -1, (1,) * 7),
        (_power(projective_space(4), 3), 0, (1,) * 12),
        (_power(projective_space(4), 3), -1, (1,) * 12),
        (hirzebruch(1), 0, (1, 1)),
        (hirzebruch(1), -1, (1, 1)),
        (wps, 0, (1, 1, 1, 1)),
        (wps, 4, (3, 3, 3, 3)),
        (wps, -1, (2, 2, 2, 2)),
        (stellar_fan(3, 4, 0), -1, (1, 2, 1)),
        (product(_power(p1, 3), hirzebruch(7)), 0, (1, 7, 7, 7, 7)),
        (product(_power(p1, 3), hirzebruch(7)), 1, (1,) * 5),
    ]
    for fan, t, expected in cases:
        elim = sorted(c.ray_indices for c in fan.max_cones)[t]
        pres = build_presentation(fan, elim)
        tables, scales = multiplication_tables(pres)
        assert scales == expected and all(type(s) is int for s in scales), elim
        assert all(type(q) is int for q in _table_entries(tables)), elim
        _scaled_rows_are_normal_forms(pres)
    for name, fan in suite_fans():
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for elim in (cones[0], cones[len(cones) // 2], cones[-1]):
            tables, scales = multiplication_tables(build_presentation(fan, elim))
            assert all(type(s) is int and s > 0 for s in scales), (name, elim)
            assert all(type(q) is int for q in _table_entries(tables)), (name, elim)
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


def _eliminated_tables_are_kept_tables(pres):
    """Check every eliminated ray's table against the Macaulay oracle, and
    that a substitution of exactly one kept variable x_m shares x_m's
    table object, whatever d; return the kinds of substitution seen.

    d is the lcm of the substitution's denominators, the scale that the
    solve leaves on every table.  Every level of every table must be a
    tuple, which is what makes sharing one table between rays safe.
    """
    tables, _ = multiplication_tables(pres)
    for table in tables:
        assert type(table) is tuple
        for rows in table:
            assert type(rows) is tuple
            assert all(type(row) is tuple for row in rows)
            assert all(type(pair) is tuple for row in rows for pair in row)
    _scaled_rows_are_normal_forms(pres, pres.elim_cone.ray_indices)
    d = lcm(*(q.denominator for form in pres.substitution.values() for q in form.values()))
    kinds = set()
    for ray, form in pres.substitution.items():
        if len(form) > 1:
            kinds.add("combined")
            continue
        (((kept_ray, _),), q), = form.items()
        if q == 1:
            assert tables[ray] is tables[kept_ray], ray
        kinds.add("shared" if q == 1 and d == 1 else f"c * x_m, d {'= 1' if d == 1 else '> 1'}")
    return kinds


def test_eliminated_tables_of_suite_fans():
    # Under three elimination cones the suite reaches every kind of
    # substitution: x_m (shared table), c * x_m with and without d = 1,
    # and a combination of two or more kept variables (hirzebruch).
    kinds = set()
    for name, fan in suite_fans():
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for elim in (cones[0], cones[len(cones) // 2], cones[-1]):
            kinds |= _eliminated_tables_are_kept_tables(build_presentation(fan, elim))
    assert kinds == {"shared", "c * x_m, d = 1", "c * x_m, d > 1", "combined"}


@settings(max_examples=30, deadline=None, database=None)
@given(
    relabelled_products().filter(lambda drawn: len(drawn[1].rays) - drawn[1].ambient_dim <= 4),
    st.data(),
)
def test_eliminated_tables_of_relabelled_products(drawn, data):
    # Products of pn, hirzebruch (multi-term substitutions) and singular
    # wps factors (c != 1 and d != 1) under a drawn elimination cone; at
    # most four kept variables keep the Macaulay oracle small.
    _, fan = drawn
    elim = data.draw(st.sampled_from(sorted(c.ray_indices for c in fan.max_cones)))
    _eliminated_tables_are_kept_tables(build_presentation(fan, elim))


def _spied_groebner(monkeypatch, fan, elims):
    """The Groebner basis of every presentation of ``fan`` under ``elims``,
    as (leading exponents, {exponents: coeff}) pairs."""
    seen = []
    groebner_tables = chow._groebner_tables

    def spy(gens, packing):
        out = groebner_tables(gens, packing)
        seen.append((packing, out[0]))
        return out

    monkeypatch.setattr(chow, "_groebner_tables", spy)
    for elim in elims:
        build_presentation(fan, elim)
    monkeypatch.undo()
    return [
        [(packing.unpack(lead), {packing.unpack(m): c for m, c in g.items()}) for lead, g in basis]
        for packing, basis in seen
    ]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reduces_to_zero(f, basis):
    """Term-by-term reduction of a homogeneous polynomial over exponent
    tuples: the largest term divisible by a leading monomial goes first."""
    f = dict(f)
    while f:
        m = max(f)
        hit = next(((lead, g) for lead, g in basis if _divides(lead, m)), None)
        if hit is None:
            return False
        lead, g = hit
        c = f[m]
        t = tuple(x - y for x, y in zip(m, lead))
        for u, cu in g.items():
            w = tuple(x + y for x, y in zip(t, u))
            s = f.get(w, 0) - c * cu
            if s:
                f[w] = s
            else:
                f.pop(w, None)
    return True


def test_groebner_basis_is_reduced_and_closes_every_s_pair(monkeypatch):
    # The basis the tables come from is the reduced Groebner basis up to
    # degree n: monic, every tail term divisible by no leading monomial,
    # and every S-polynomial with an lcm of degree <= n reduces to zero.
    # Smooth and singular P^n + k, a Groebner basis with denominators
    # ((P1)^3 x F7) and a singular product.  stellar_fan(3, 20, 2) has 230
    # basis elements, 160 of them monomial, under its last cone, where
    # leaving out the pairs of a new tailed element and an earlier
    # monomial one breaks the build.
    p1 = projective_space(1)
    fans = [stellar_fan(3, k, seed) for k in (4, 8) for seed in (0, 1)] + [stellar_fan(3, 12, 1)]
    fans += [stellar_fan(3, 20, 2)]
    fans += [stellar_fan(2, 7, 0), stellar_fan(4, 4, 1, (1, 2)), stellar_fan(3, 5, 2, (1, 2))]
    fans += [product(_power(p1, 3), hirzebruch(7))]
    fans += [product(weighted_projective([1, 2, 3]), weighted_projective([1, 1, 3]))]
    total = 0
    for fan in fans:
        n = fan.ambient_dim
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for basis in _spied_groebner(monkeypatch, fan, (cones[0], cones[-1])):
            total += len(basis)
            leads = [lead for lead, _ in basis]
            for lead, g in basis:
                # graded-lex on exponent tuples of one degree is tuple order
                assert g[lead] == 1 and max(g) == lead, g
                assert all(sum(m) == sum(lead) for m in g), g
                for m in g:
                    others = [o for o in leads if o != lead] if m == lead else leads
                    assert not any(_divides(o, m) for o in others), (lead, m)
            for (li, gi), (lj, gj) in combinations(basis, 2):
                lcm_ = tuple(map(max, li, lj))
                if sum(lcm_) > n:
                    continue
                spoly = {}
                for lead, g, sign in ((li, gi, 1), (lj, gj, -1)):
                    t = tuple(x - y for x, y in zip(lcm_, lead))
                    for u, c in g.items():
                        w = tuple(x + y for x, y in zip(t, u))
                        spoly[w] = spoly.get(w, 0) + sign * c
                spoly = {m: c for m, c in spoly.items() if c}
                assert _reduces_to_zero(spoly, basis), (li, lj)
    assert total > 100


@st.composite
def groebner_cases(draw):
    """A P^n + k (n = 2..4, k <= 10, smooth or with coefficients {1, 2}),
    a relabelled product or a subdivided product, and one of its maximal
    cones."""
    kind = draw(st.sampled_from(("stellar", "product", "subdivided")))
    if kind == "stellar":
        n, k = draw(st.integers(2, 4)), draw(st.integers(0, 10))
        coefficients = draw(st.sampled_from([(1,), (1, 2)]))
        fan = stellar_fan(n, k, draw(st.integers(0, 10**6)), coefficients)
    elif kind == "product":
        _, fan = draw(relabelled_products())
    else:
        fan = build_fan(*draw(shuffled_products(min_subdivisions=1)))
    return fan, draw(st.sampled_from(sorted(c.ray_indices for c in fan.max_cones)))


@settings(max_examples=60, deadline=None, database=None)
@given(groebner_cases())
def test_groebner_tables_match_the_scanning_oracle(drawn):
    # The indexed lookup, the monomial pivots and the pairs left out give
    # the basis, degree bases and tables of the routine that scans every
    # lead, pivots every generator in the echelon form and forms every pair.
    fan, elim = drawn
    calls = []
    groebner_tables = chow._groebner_tables

    def spy(gens, packing):
        out = groebner_tables(gens, packing)
        calls.append((gens, packing, out))
        return out

    with mock.patch.object(chow, "_groebner_tables", spy):
        pres = build_presentation(fan, elim)
    ((gens, packing, out),) = calls
    assert out == scan_groebner_tables(gens, packing)
    certify_presentation(pres)


def test_certificate_of_suite_fans():
    for _, fan in suite_fans():
        cones = sorted(c.ray_indices for c in fan.max_cones)
        for elim in dict.fromkeys((cones[0], cones[len(cones) // 2], cones[-1])):
            certify_presentation(build_presentation(fan, elim))


@st.composite
def certified_fans(draw):
    """A relabelled product with at most four kept variables, or a
    singular P^n + k, and one of its maximal cones."""
    if draw(st.booleans()):
        _, fan = draw(relabelled_products().filter(lambda drawn: len(drawn[1].rays) - drawn[1].ambient_dim <= 4))
    else:
        n = draw(st.integers(2, 4))
        fan = stellar_fan(n, draw(st.integers(1, 8 if n < 4 else 4)), draw(st.integers(0, 10**6)), (1, 2))
    return fan, draw(st.sampled_from(sorted(c.ray_indices for c in fan.max_cones)))


@settings(max_examples=40, deadline=None, database=None)
@given(certified_fans())
def test_certificate_of_drawn_fans(drawn):
    fan, elim = drawn
    certify_presentation(build_presentation(fan, elim))


@st.composite
def packed_exponents(draw):
    # n + 1 a power of two: the exponent n fills every value bit of its
    # field, right below the guard bit
    n = draw(st.sampled_from((3, 7, 15)))
    nvars = draw(st.integers(1, 6))
    a = draw(st.lists(st.integers(0, n), min_size=nvars, max_size=nvars))
    b = tuple(draw(st.integers(0, n - e)) for e in a)
    c = tuple(draw(st.integers(0, n)) for _ in a)
    return chow._Packing(nvars, n), tuple(a), b, c


@settings(max_examples=300, deadline=None, database=None)
@given(packed_exponents(), st.randoms(use_true_random=False))
def test_packed_monomials(data, rng):
    packing, a, b, c = data
    pack, unpack = packing.pack, packing.unpack
    assert packing.width == packing.top.bit_length() + 1
    for e in (a, b, c):
        assert unpack(pack(e)) == e
    # integer order is tuple order within a degree, and graded-lex across
    perm = list(a)
    rng.shuffle(perm)
    perm = tuple(perm)
    assert (pack(a) < pack(perm)) == (a < perm)
    assert (pack(a) < pack(c)) == ((sum(a), a) < (sum(c), c))
    # a product is a sum, and the cofactor a difference
    ab = tuple(x + y for x, y in zip(a, b))
    assert pack(a) + pack(b) == pack(ab)
    assert pack(ab) - pack(a) == pack(b)
    # the guard-bit divisibility test is componentwise >=
    for m, lead in ((a, c), (c, a), (ab, a), (a, b)):
        hit = chow._leading_divisor(pack(m), [(pack(lead), {})], packing.guards)
        assert (hit is not None) == all(x >= y for x, y in zip(m, lead)), (m, lead)
    too_big = list(a)
    too_big[0] = packing.top + 1
    with pytest.raises(InternalError, match="exponent"):
        pack(too_big)
    with pytest.raises(InternalError, match="above"):
        unpack(pack(a) + (packing.top + 1 - a[0] << packing.shifts[0]))


@st.composite
def non_product_fans(draw):
    """P^n + k fans, subdivided at ray sums (smooth) or at sums with
    coefficients in {1, 2} (mostly singular), and subdivided products,
    often singular."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        k = draw(st.integers(1, 8 if n < 4 else 5))
        coefficients = draw(st.sampled_from([(1,), (1, 2)]))
        return stellar_fan(n, k, draw(st.integers(0, 10**6)), coefficients)
    return build_fan(*draw(shuffled_products(min_subdivisions=1)))


@settings(max_examples=25, deadline=None, database=None)
@given(non_product_fans())
def test_non_product_fans(fan):
    # The graded dimensions are the h-vector of the f-vector, every
    # multiplicity computed gives the same result, and chi and the class do
    # not depend on the elimination cone: the class from one presentation
    # reduces, in the other, to the class from that one.
    cones = sorted(c.ray_indices for c in fan.max_cones)
    results = []
    for elim in (cones[0], cones[-1]):
        pres = build_presentation(fan, elim)
        assert graded_dimensions(pres) == h_vector(fan), elim
        res = csm_result(fan, pres)
        forced = csm_result(fan, pres, force_hnf=True)
        assert forced.csm_class == res.csm_class, elim
        assert forced.per_dim_contributions == res.per_dim_contributions, elim
        assert forced.euler == res.euler, elim
        results.append((pres, res))
    (pres_a, res_a), (pres_b, res_b) = results
    assert res_a.euler == res_b.euler == len(fan.max_cones)
    assert normal_form(res_a.csm_class, pres_b) == res_b.csm_class
    assert normal_form(res_b.csm_class, pres_a) == res_a.csm_class
    for d, part in res_a.per_dim_contributions.items():
        assert normal_form(part, pres_b) == res_b.per_dim_contributions[d], d


def test_presentation_of_unvalidated_multi_cover_fan_is_internal_error():
    # Fan rejects these data, so no Fan reaches the presentation with them.
    # An object with a fan's fields that skipped validation breaks the
    # presentation's own invariant, which is an internal error (exit 3).
    dim, rays, cones = MULTI_COVER_FANS["two P2 fans"]
    with pytest.raises(ValidationError, match="more than once"):
        Fan(dim, rays, cones)
    unvalidated = SimpleNamespace(ambient_dim=dim, rays=tuple(rays), max_cones=tuple(map(Cone, cones)))
    with pytest.raises(InternalError, match="top graded piece has dimension 2"):
        build_presentation(unvalidated)
