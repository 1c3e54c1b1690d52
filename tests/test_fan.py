import random
from itertools import combinations

import pytest
from helpers import oracle_multiplicity, relabel, suite_fans

from toriccsm import (
    Cone,
    build_fan,
    enumerate_cones,
    hirzebruch,
    is_smooth,
    multiplicity,
    product,
    projective_space,
    wall_check,
    weighted_projective,
)
from toriccsm.errors import ValidationError
from toriccsm.exact_linalg import column_lattice_index, determinant, hermite_normal_form, strip_zero_rows

H5_RAYS = [(1, 0), (0, 1), (-1, 5), (0, -1)]
H5_CONES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_build_hirzebruch5():
    f = build_fan(2, H5_RAYS, H5_CONES)
    assert len(f.max_cones) == 4
    assert wall_check(f)
    assert f.rays == tuple(H5_RAYS)


def test_build_p2():
    f = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    assert len(f.max_cones) == 3


def test_build_rejects_non_primitive_ray():
    with pytest.raises(ValidationError, match="ray not primitive"):
        build_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


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


def test_build_rejects_unused_ray():
    with pytest.raises(ValidationError, match="unused ray"):
        build_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (2, 0)])


def test_trust_input_skips_validation():
    f = build_fan(2, [(2, 0), (0, 1)], [(0, 1)], validate=False)
    assert len(f.max_cones) == 1


def test_wall_check_fails_with_missing_cone():
    f = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)], validate=False)
    assert not wall_check(f)


def test_enumerate_cones_h5():
    f = hirzebruch(5)
    table = enumerate_cones(f)
    assert sorted(c.ray_indices for c in table[1]) == [(0,), (1,), (2,), (3,)]
    assert sorted(c.ray_indices for c in table[2]) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_enumerate_cones_matches_subset_bruteforce():
    for name, fan in suite_fans():
        r = len(fan.rays)
        if r > 12:
            continue
        table = enumerate_cones(fan)
        maxsets = [set(c.ray_indices) for c in fan.max_cones]
        for d in range(1, fan.ambient_dim + 1):
            expect = sorted(
                s for s in combinations(range(r), d) if any(set(s) <= m for m in maxsets)
            )
            assert sorted(c.ray_indices for c in table[d]) == expect, name


def test_multiplicity_examples():
    f = hirzebruch(5)
    assert all(multiplicity(f, c) == 1 for c in f.max_cones)
    w = weighted_projective([1, 1, 2])
    assert multiplicity(w, Cone((0, 2))) == 2
    assert sorted(multiplicity(w, c) for c in w.max_cones) == [1, 1, 2]
    for c in enumerate_cones(w)[1]:
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
        table = enumerate_cones(fan)
        for d in range(1, fan.ambient_dim + 1):
            for c in table[d]:
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
    cones = [c for d in enumerate_cones(p).values() for c in d]
    for c in rng.sample(cones, 12):
        assert multiplicity(p, c) == oracle_multiplicity(p, c)


def test_builders_pass_validation():
    # build_fan re-validates every builder output by construction; spot-check
    # round trips through raw data
    for name, fan in suite_fans():
        rebuilt = build_fan(fan.ambient_dim, fan.rays, [c.ray_indices for c in fan.max_cones])
        assert rebuilt.rays == fan.rays, name
