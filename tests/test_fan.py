import random
import re
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from helpers import (
    _FACTORS,
    MULTI_COVER_FANS,
    SPLIT_DECLINE_FANS,
    coordinate_block_count,
    eager_pivot_walk,
    oracle_multiplicity,
    raw_fan,
    raw_product,
    relabel,
    relabel_raw,
    relabelled_products,
    same_side_wall,
    shuffled_products,
    shuffled_raw,
    stellar_fan,
    suite_fans,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toriccsm import (
    Cone,
    Fan,
    build_fan,
    build_presentation,
    enumerate_cones,
    hirzebruch,
    is_smooth,
    multiplicity,
    product,
    projective_space,
    weighted_projective,
)
from toriccsm import fan as fan_mod
from toriccsm.errors import ValidationError
from toriccsm.exact_linalg import (
    column_lattice_index,
    determinant,
    hermite_normal_form,
    strip_zero_rows,
)

H5_RAYS = [(1, 0), (0, 1), (-1, 5), (0, -1)]
H5_CONES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def assert_every_wall_in_two_cones(cones, across):
    # Each slot's wall is shared with exactly one other (cone, slot), which
    # points back, and the two cones differ only in the rays at those slots.
    for k, row in enumerate(across):
        for s, there in enumerate(row):
            assert there is not None, (k, s)
            nb, j = there
            assert nb != k and across[nb][j] == (k, s)
            a, b = cones[k].ray_indices, cones[nb].ray_indices
            assert a[:s] + a[s + 1 :] == b[:j] + b[j + 1 :]


def test_build_hirzebruch5():
    f = build_fan(2, H5_RAYS, H5_CONES)
    assert len(f.max_cones) == 4
    assert_every_wall_in_two_cones(f.max_cones, fan_mod._wall_table(f.max_cones, 2))
    assert f.rays == tuple(H5_RAYS)


def test_wall_table_leaves_out_walls_not_in_two_cones():
    # P^2 without one cone (open), and P^3 with a fifth cone on the wall
    # (0, 1), which then lies in three cones.
    open_p2 = [Cone(c) for c in [(0, 1), (1, 2)]]
    assert fan_mod._wall_table(open_p2, 2) == [[(1, 1), None], [None, (0, 0)]]
    cones = [Cone(c) for c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)]]
    across = fan_mod._wall_table(cones, 3)
    assert [row[2] for row in across[:2]] + [across[4][2]] == [None, None, None]
    assert across[0][1] == (2, 2) and across[4][:2] == [None, None]


def test_build_p2():
    f = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    assert len(f.max_cones) == 3


def test_build_rejects_non_primitive_ray():
    for ray in [(2, 0), (-2, 4), (0, 0)]:
        with pytest.raises(ValidationError, match=re.escape(f"ray not primitive: ray 0 = {ray}")):
            build_fan(2, [ray, (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


_BIG = 10**5000
_BIG_TEXT = "1" + "0" * 5000


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: build_fan(2, [(2 * _BIG, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
         f"ray not primitive: ray 0 = (2{_BIG_TEXT[1:]}, 0)"),
        (lambda: Fan(2, [(_BIG, 1.5), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
         f"ray 0 ({_BIG_TEXT}, 1.5) has a non-integer entry"),
        (lambda: Cone((_BIG, _BIG)), f"duplicate ray index in cone ({_BIG_TEXT}, {_BIG_TEXT})"),
        (lambda: Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, _BIG)]),
         f"cone (2, {_BIG_TEXT}) references unknown ray {_BIG_TEXT}"),
        (lambda: Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (_BIG,)]),
         f"maximal cone wrong dimension: cone ({_BIG_TEXT},) has 1 rays, expected 2"),
        (lambda: multiplicity(hirzebruch(1), Cone((0, _BIG))),
         f"cone (0, {_BIG_TEXT}) references unknown ray {_BIG_TEXT}"),
    ],
    ids=["non-primitive", "non-integer", "cone-repeat", "cone-index", "cone-shape", "face-index"],
)
def test_messages_print_integers_past_the_digit_limit(build, message):
    # str() of an int past 4,300 digits raises ValueError; each message
    # writes such an int whole and stays a ValidationError.
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "weights, message",
    [
        ([2, 4, 6], "weights must have gcd 1"),
        ([2, 3, 5], "unsupported weights: apex ray is not integral"),
        ([1, 2, 4], "unsupported weights: apex ray is not primitive"),
    ],
)
def test_weighted_projective_rejects_weights(weights, message):
    with pytest.raises(ValidationError, match=message):
        weighted_projective(weights)


def test_build_rejects_duplicate_ray():
    with pytest.raises(ValidationError, match="duplicate ray"):
        build_fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2), (0, 1)])


def test_build_rejects_wrong_cone_dimension():
    with pytest.raises(ValidationError, match="maximal cone wrong dimension"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])


def test_build_rejects_dependent_generators():
    with pytest.raises(ValidationError, match="not simplicial"):
        build_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (1, 3)])


def test_build_rejects_incomplete_fan():
    with pytest.raises(ValidationError, match="completeness"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])


def test_build_rejects_folded_fan():
    # Every wall lies in two cones, but all three rays are in one quadrant.
    with pytest.raises(ValidationError, match=r"cones \(0, 1\) and \(1, 2\) lie on the same side of wall \(1,\)"):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
    # In dimension 1 the only folded fan repeats its cone, which the shape
    # check names first.
    with pytest.raises(ValidationError, match=r"maximal cone \(0,\) is listed twice"):
        build_fan(1, [(1,)], [(0,), (0,)])
    with pytest.raises(ValidationError, match="same side"):
        build_fan(3, [(1, 3, -3), (-3, 1, 1), (3, -1, 3), (3, 0, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.mark.parametrize("name", sorted(MULTI_COVER_FANS))
def test_build_rejects_fans_that_cover_space_twice(name):
    dim, rays, cones = MULTI_COVER_FANS[name]
    # each passes the wall condition: every wall in two cones, on opposite
    # sides; the determinants come from the plain rows of each ray matrix
    cone_objects = [Cone(c) for c in cones]
    across = fan_mod._wall_table(cone_objects, dim)
    assert_every_wall_in_two_cones(cone_objects, across)
    dets = [
        determinant([[rays[j][t] for j in c.ray_indices] for t in range(dim)])
        for c in cone_objects
    ]
    assert same_side_wall(cone_objects, across, dets) is None
    unchecked = SimpleNamespace(ambient_dim=dim, rays=rays, max_cones=cone_objects)
    walked, _, _, fold = fan_mod._pivot_walk(unchecked, across)
    assert walked == dets and fold is None
    for construct in (build_fan, Fan):
        with pytest.raises(ValidationError, match="completeness check: .* more than once"):
            construct(dim, rays, cones)


@pytest.mark.parametrize("x", [1.5, 1.0, Fraction(3, 2), Fraction(1), "1"])
def test_non_integer_ray_coordinate_is_rejected_not_truncated(x):
    # int() would truncate 1.5 to 1 and yield P^2's class with chi = 3.
    for construct in (build_fan, Fan):
        with pytest.raises(ValidationError, match=r"ray 0 \(.*\) has a non-integer entry"):
            construct(2, [(x, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def test_non_integer_dimension_and_ray_index_are_rejected():
    rays = [(1, 0), (0, 1), (-1, -1)]
    with pytest.raises(ValidationError, match="ambient dimension 2.5 is not an integer"):
        Fan(2.5, rays, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValidationError, match=r"cone \(0.9, 1\) has a non-integer entry"):
        Fan(2, rays, [(0.9, 1), (1, 2), (2, 0)])
    for idx in ((0.9, 1), (Fraction(1), 2), ("0", 1)):
        with pytest.raises(ValidationError, match="non-integer entry"):
            Cone(idx)
    with pytest.raises(ValidationError, match="non-integer entry"):
        build_presentation(projective_space(2), (0.5, 1))
    # Integer types other than int are taken by value.
    assert Fan(2, [(True, 0), (0, 1), (-1, -1)], [(0, True), (1, 2), (2, 0)]).rays == tuple(rays)


def test_build_rejects_unused_ray():
    with pytest.raises(ValidationError, match="unused ray"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (2, 0)])


def test_enumerate_cones_h5():
    f = hirzebruch(5)
    assert [c.ray_indices for c in enumerate_cones(f)] == [
        (0,), (0, 1), (0, 3), (1,), (1, 2), (2,), (2, 3), (3,)
    ]


def test_enumerate_cones_matches_subset_bruteforce():
    # One flat list, sorted by ray indices; the maximal cones are the fan's
    # own objects and every other cone is a fresh one.
    for name, fan in suite_fans():
        r = len(fan.rays)
        if r > 12:
            continue
        cones = enumerate_cones(fan)
        maxsets = [set(c.ray_indices) for c in fan.max_cones]
        expect = sorted(
            s for d in range(1, fan.ambient_dim + 1) for s in combinations(range(r), d)
            if any(set(s) <= m for m in maxsets)
        )
        assert [c.ray_indices for c in cones] == expect, name
        assert {id(c) for c in cones if c.dim == fan.ambient_dim} == {id(c) for c in fan.max_cones}, name


def test_skip_unimodular_leaves_out_exactly_the_faces_of_unimodular_maximal_cones():
    # The skipped list is every cone but those in a maximal cone of
    # multiplicity 1, in the same order; every cone left out has
    # multiplicity 1 by the minor-gcd oracle, and listing caches no
    # multiplicity below the top dimension.
    fans = [(name, fan) for name, fan in suite_fans() if not is_smooth(fan) and len(fan.rays) <= 9]
    fans += [(f"stellar_fan(3, 6, {seed}, (1, 2))", stellar_fan(3, 6, seed, (1, 2))) for seed in range(3)]
    fans.append(("pn=2", projective_space(2)))
    for name, fan in fans:
        every = enumerate_cones(fan)
        kept = enumerate_cones(fan, skip_unimodular=True)
        unimodular = [set(c.ray_indices) for c in fan.max_cones if multiplicity(fan, c) == 1]
        in_unimodular = [any(set(c.ray_indices) <= m for m in unimodular) for c in every]
        assert kept == [c for c, one in zip(every, in_unimodular) if not one], name
        assert (kept == []) == is_smooth(fan), name
        for c, one in zip(every, in_unimodular):
            if one:
                assert oracle_multiplicity(fan, c) == 1, (name, c)
        for c in every + kept:
            assert c.dim == fan.ambient_dim or c._mult is None, (name, c)


def test_multiplicity_examples():
    f = hirzebruch(5)
    assert all(multiplicity(f, c) == 1 for c in f.max_cones)
    w = weighted_projective([1, 1, 2])
    assert multiplicity(w, Cone((0, 2))) == 2
    assert sorted(multiplicity(w, c) for c in w.max_cones) == [1, 1, 2]
    for c in enumerate_cones(w):
        if c.dim == 1:
            assert multiplicity(w, c) == 1


def test_multiplicity_cached_on_cone():
    f = weighted_projective([1, 1, 3])
    c = f.max_cones[0]
    m = multiplicity(f, c)
    assert c._mult == m
    assert multiplicity(f, c) == m


def test_multiplicity_against_minor_gcd_oracle_on_suite():
    for name, fan in suite_fans():
        if len(fan.rays) > 9:
            continue
        for c in enumerate_cones(fan):
            assert multiplicity(fan, c) == oracle_multiplicity(fan, c), (name, c)


def test_cached_maximal_multiplicity_matches_hnf_and_lattice_index():
    # Validation caches |det| as each maximal cone's multiplicity; the
    # Hermite form and the lattice index are independent routes to it.
    singular = product(product(weighted_projective([1, 1, 3]), projective_space(2)),
                       weighted_projective([1, 2, 3]))
    perm = list(range(len(singular.rays)))
    random.Random(3).shuffle(perm)
    fans = suite_fans() + [("relabelled wps=1,1,3*pn=2*wps=1,2,3", relabel(singular, perm))]
    for name, fan in fans:
        for c in fan.max_cones:
            mat = fan.ray_matrix(c)
            h, _ = hermite_normal_form(mat)
            assert c._mult is not None, (name, c)
            assert c._mult == abs(determinant(strip_zero_rows(h))) == column_lattice_index(mat), (name, c)


def test_smoothness():
    assert is_smooth(hirzebruch(5))
    assert is_smooth(projective_space(4))
    assert not is_smooth(weighted_projective([1, 1, 2]))


def test_projective_space_builder():
    f1 = projective_space(1)
    assert f1.rays == ((1,), (-1,))
    assert sorted(c.ray_indices for c in f1.max_cones) == [(0,), (1,)]
    f6 = projective_space(6)
    assert len(f6.rays) == 7 and len(f6.max_cones) == 7
    with pytest.raises(ValidationError):
        projective_space(0)


def test_hirzebruch_builder():
    assert hirzebruch(5).rays == tuple(H5_RAYS)
    f0 = hirzebruch(0)
    p11 = product(projective_space(1), projective_space(1))
    assert sorted(f0.rays) == sorted(p11.rays)
    assert len(hirzebruch(1).max_cones) == 4


def test_weighted_projective_builder():
    w = weighted_projective([1, 1, 2])
    assert w.rays == ((1, 0), (0, 1), (-1, -2))
    assert weighted_projective([1, 1, 1]).rays == projective_space(2).rays
    assert sorted(multiplicity(weighted_projective([1, 1, 3]), c) for c in weighted_projective([1, 1, 3]).max_cones) == [1, 1, 3]
    with pytest.raises(ValidationError, match="unsupported weights"):
        weighted_projective([2, 3, 5])
    with pytest.raises(ValidationError, match="unsupported weights"):
        weighted_projective([1, 2, 2])
    with pytest.raises(ValidationError, match="gcd"):
        weighted_projective([2, 2, 2])


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (projective_space, 2.5, "projective space dimension 2.5 is not an integer"),
        (projective_space, "2", "projective space dimension '2' is not an integer"),
        (hirzebruch, 2.5, "hirzebruch parameter 2.5 is not an integer"),
        (hirzebruch, "1", "hirzebruch parameter '1' is not an integer"),
        (weighted_projective, [1, 1, 2.5], r"weight vector \(1, 1, 2.5\) has a non-integer entry"),
        (weighted_projective, ["1", "1", "3"], r"weight vector \('1', '1', '3'\) has a non-integer entry"),
    ],
    ids=["pn-float", "pn-str", "hirzebruch-float", "hirzebruch-str", "wps-float", "wps-str"],
)
def test_builders_reject_non_integer_parameters(build, arg, message):
    # A builder never truncates a parameter, as Fan never truncates a ray.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(arg)


def test_ray_matrix_is_the_rows_of_the_cone_rays():
    f = hirzebruch(5)
    assert f.ray_matrix(Cone((1, 2))) == [[0, -1], [1, 5]]
    with pytest.raises(ValidationError, match=r"cone \(1, 4\) references unknown ray 4"):
        f.ray_matrix(Cone((1, 4)))


def test_product_builder():
    p = product(projective_space(1), projective_space(1))
    assert len(p.rays) == 4 and len(p.max_cones) == 4
    big = product(projective_space(5), projective_space(6))
    assert len(big.rays) == 13 and len(big.max_cones) == 42
    mixed = product(projective_space(1), weighted_projective([1, 1, 2]))
    assert mixed.ambient_dim == 3
    assert max(multiplicity(mixed, c) for c in mixed.max_cones) == 2


def test_product_multiplicity_is_multiplicative():
    rng = random.Random(5)
    factors = [
        weighted_projective([1, 1, 2]),
        weighted_projective([1, 1, 3]),
        hirzebruch(5),
        projective_space(2),
    ]
    for f1 in factors:
        for f2 in factors:
            p = product(f1, f2)
            shift = len(f1.rays)
            for c1 in f1.max_cones:
                for c2 in f2.max_cones:
                    joined = Cone(tuple(c1.ray_indices) + tuple(j + shift for j in c2.ray_indices))
                    assert multiplicity(p, joined) == multiplicity(f1, c1) * multiplicity(f2, c2)
    # random lower-dimensional faces too
    p = product(weighted_projective([1, 1, 4]), hirzebruch(3))
    cones = enumerate_cones(p)
    for c in rng.sample(cones, 12):
        assert multiplicity(p, c) == oracle_multiplicity(p, c)


def test_builders_pass_validation():
    # build_fan re-validates every builder output by construction; spot-check
    # round trips through raw data
    for name, fan in suite_fans():
        rebuilt = build_fan(fan.ambient_dim, fan.rays, [c.ray_indices for c in fan.max_cones])
        assert rebuilt.rays == fan.rays, name


@settings(max_examples=60, deadline=None, database=None)
@given(data=shuffled_products())
def test_walk_determinants_match_bareiss(data):
    # The walk derives each maximal cone's determinant from a neighbour's;
    # Bareiss on the cone's own ray matrix is the slower oracle.
    n, rays, cones = data
    fan = build_fan(n, rays, cones)
    dets, roots, overlap, fold = fan_mod._pivot_walk(fan, fan_mod._wall_table(fan.max_cones, n))
    assert roots == [0] and overlap is None and fold is None
    for c, det in zip(fan.max_cones, dets):
        exact = determinant(fan.ray_matrix(c))
        assert det == exact, c
        assert c._mult == abs(exact), c


def _stellar_fans():
    return st.builds(
        stellar_fan, st.integers(2, 4), st.integers(1, 8), st.integers(0, 999), st.just((1, 2))
    )


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.one_of(shuffled_products(), _stellar_fans().map(raw_fan)))
def test_walk_solves_once_per_root_and_exchanges_less_than_once_per_cone(data):
    # One fraction-free solve per wall-connected piece, and each other cone
    # reached by at most one exchange step.  build_fan walks each factor of
    # a product on its own coordinate block, and a fan in one block whole:
    # one solve per coordinate block, and fewer exchanges than cones.
    n, rays, cones = data
    calls = {"solve": 0, "exchange": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_mod, "fraction_free_solve_rows", counted("solve", fan_mod.fraction_free_solve_rows))
        mp.setattr(fan_mod, "_exchange", counted("exchange", fan_mod._exchange))
        fan = build_fan(n, rays, cones)
        assert calls["solve"] == coordinate_block_count(rays) and calls["exchange"] < len(cones)
        calls.update(solve=0, exchange=0)
        _, roots, _, _ = fan_mod._pivot_walk(fan, fan_mod._wall_table(fan.max_cones, n))
        assert calls["solve"] == len(roots) == 1 and calls["exchange"] < len(cones)


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.one_of(shuffled_products(), _stellar_fans().map(raw_fan)), pick=st.integers(0, 10**6))
def test_walk_fold_matches_same_side_wall(data, pick):
    # Negating one ray r puts -r on the same side as the other ray of each
    # wall of the cones that hold r, away from r: the walk must name the
    # fold that the oracle's scan in cone order names first, whatever
    # order it walks in, and must see none on the fan as drawn.
    n, rays, cones = data
    r = pick % len(rays)
    negated = rays[:r] + [tuple(-x for x in rays[r])] + rays[r + 1 :]
    cone_objects = [Cone(c) for c in cones]
    across = fan_mod._wall_table(cone_objects, n)
    for vectors in (rays, negated):
        unchecked = SimpleNamespace(ambient_dim=n, rays=vectors, max_cones=cone_objects)
        dets, _, _, fold = fan_mod._pivot_walk(unchecked, across)
        assume(all(dets))
        assert fold == same_side_wall(cone_objects, across, dets)
        assert (fold is None) == (vectors is rays)


@st.composite
def _multi_cover_products(draw):
    """A ``MULTI_COVER_FANS`` entry times a drawn factor, relabelled and
    with its cones shuffled, as raw data."""
    entry = MULTI_COVER_FANS[draw(st.sampled_from(sorted(MULTI_COVER_FANS)))]
    fan = draw(st.sampled_from(_FACTORS))()
    n, rays, cones = raw_product(entry, raw_fan(fan))
    rays, cones = relabel_raw(rays, cones, draw(st.permutations(range(len(rays)))))
    return n, rays, draw(st.permutations(cones))


@settings(max_examples=80, deadline=None, database=None)
@given(
    data=st.one_of(shuffled_products(), _stellar_fans().map(raw_fan), _multi_cover_products()),
    pick=st.integers(-1, 10**6),
)
def test_walk_matches_the_eager_walk(data, pick):
    # The walk tests a reached cone for holding the root's ray sum only
    # where its rays' reach masks allow; the eager walk carries that point's
    # coordinates into every cone it reaches and tests them all.  Both
    # return the same determinants, roots, first overlap and fold, on fans
    # as drawn, with one ray negated (pick >= 0), and on fans that cover
    # space more than once.
    n, rays, cones = data
    if pick >= 0:
        r = pick % len(rays)
        rays = rays[:r] + [tuple(-x for x in rays[r])] + rays[r + 1 :]
    cone_objects = [Cone(c) for c in cones]
    across = fan_mod._wall_table(cone_objects, n)
    unchecked = SimpleNamespace(ambient_dim=n, rays=rays, max_cones=cone_objects)
    assert fan_mod._pivot_walk(unchecked, across) == eager_pivot_walk(unchecked, across)


def _outcome(n, rays, cones, split=True):
    """Each maximal cone's cached multiplicity, or the ``ValidationError``
    text, of ``Fan(n, rays, cones)``, and its number of fraction-free
    solves; with ``split`` False the product split is switched off, so the
    whole fan is walked."""
    solves = []
    solve = fan_mod.fraction_free_solve_rows

    def counted(*args):
        solves.append(1)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_mod, "fraction_free_solve_rows", counted)
        if not split:
            mp.setattr(fan_mod, "_factor_multiplicities", lambda fan: None)
        try:
            result = [c._mult for c in Fan(n, rays, cones).max_cones]
        except ValidationError as e:
            result = str(e)
    return result, len(solves)


@settings(max_examples=80, deadline=None, database=None)
@given(
    data=st.one_of(
        relabelled_products().map(lambda drawn: (True, raw_fan(drawn[1]))),
        _multi_cover_products().map(lambda raw: (False, raw)),
    ),
    change=st.sampled_from(["none", "negate a ray", "drop a cone"]),
    pick=st.integers(0, 10**6),
)
def test_product_split_matches_the_whole_walk(data, change, pick):
    # Validation walks each factor of a product on its own coordinate block.
    # On products as drawn, with one ray negated (a fold in one factor) or
    # one cone dropped (no longer every union of projections), and on
    # products of a fan that covers space more than once, it must cache the
    # same multiplicities, or raise the same error, as the walk of the
    # whole fan; on a product as drawn it takes the split: one solve per
    # coordinate block.
    is_product, (n, rays, cones) = data
    if change == "negate a ray":
        r = pick % len(rays)
        rays = rays[:r] + [tuple(-x for x in rays[r])] + rays[r + 1 :]
    elif change == "drop a cone":
        k = pick % len(cones)
        cones = cones[:k] + cones[k + 1 :]
    result, solves = _outcome(n, rays, cones)
    assert result == _outcome(n, rays, cones, split=False)[0]
    if is_product and change == "none":
        assert solves == coordinate_block_count(rays) > 1 and not isinstance(result, str)


@pytest.mark.parametrize("name", sorted(SPLIT_DECLINE_FANS))
def test_split_leaves_fans_that_are_no_product_of_valid_factors_to_the_whole_walk(name):
    # Each fan's rays fall into several coordinate blocks, but its cones are
    # not every union of one projection per block, hold the wrong number of
    # a block's rays, or make a factor that fails a check, or a ray is
    # unused: relabelled and shuffled, it gets the whole walk's error.
    for seed in range(3):
        n, rays, cones = shuffled_raw(SPLIT_DECLINE_FANS[name], seed)
        result, _ = _outcome(n, rays, cones)
        assert isinstance(result, str) and result == _outcome(n, rays, cones, split=False)[0]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: weighted_projective(5), "weight vector 5 has a non-integer entry"),
        (lambda: Fan(2, [1, (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]), "ray 0 1 has a non-integer entry"),
        (lambda: Fan(2, [(1, 0), (0, 1), (-1, -1)], [0, (1, 2), (2, 0)]), "cone 0 has a non-integer entry"),
        (lambda: Cone(None), "cone None has a non-integer entry"),
    ],
    ids=["weights", "ray", "cone", "cone-object"],
)
def test_non_iterable_values_are_validation_errors(build, message):
    # A ray, cone or weight vector that is not iterable at all is named as
    # one with a non-integer entry, not left as a bare TypeError.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()
