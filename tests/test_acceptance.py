"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line (run pytest with -s to
see them), and the module doubles as a script::

    python tests/test_acceptance.py

All equalities are exact; the only tolerances are the stated wall-clock
budgets.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from helpers import (
    brute_quotient_dims,
    gcd_minors_index,
    is_column_hnf,
    matrix_mul,
    suite_fans,
)

from toriccsm import (
    build_presentation,
    csm_result,
    degree,
    determinant,
    euler_characteristic,
    graded_dimensions,
    hermite_normal_form,
    is_smooth,
    multiplicity,
    normal_form,
    parse_class,
    product,
    projective_space,
    squarefree_monomial,
    strip_zero_rows,
    weighted_projective,
)
from toriccsm.cli import main


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_01_hirzebruch_golden(capsys):
    t0 = time.perf_counter()
    code = main(["csm", "--builder", "hirzebruch=5", "--elim-cone", "0,3"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "c_SM = 1 + 2*x1 + 7*x2 + 4*x1*x2" in out
    assert "chi = 4" in out
    assert parse_class("1 + 2*x1 + 7*x2 + 4*x1*x2") == {
        (): Fraction(1),
        ((1, 1),): Fraction(2),
        ((2, 1),): Fraction(7),
        ((1, 1), (2, 1)): Fraction(4),
    }
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"hirzebruch=5 golden class and chi=4 in {elapsed:.3f}s")


def test_criterion_02_projective_space_binomials(capsys):
    t0 = time.perf_counter()
    for n in range(1, 9):
        fan = projective_space(n)
        pres = build_presentation(fan)
        res = csm_result(fan, pres)
        kept = pres.kept[0]
        for d in range(n + 1):
            mono = () if d == 0 else ((kept, d),)
            assert res.csm_class.get(mono, Fraction(0)) == comb(n + 1, d), (n, d)
        assert res.euler == n + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        _report(2, f"c_SM(P^n) coefficients binomial(n+1,d) for n=1..8 in {elapsed:.1f}s")


def test_criterion_03_euler_consistency_suite(capsys):
    fans = suite_fans()
    for name, fan in fans:
        expected = len(fan.max_cones)
        pres = build_presentation(fan)
        assert euler_characteristic(fan, pres) == expected, name
        for force in (False, True):
            assert csm_result(fan, pres, force_hnf=force).euler == expected, (name, force)
    with capsys.disabled():
        _report(3, f"euler fast/full/top-only/cone-count agree on {len(fans)} suite fans")


def test_criterion_04_singular_paths(capsys):
    w2 = weighted_projective([1, 1, 2])
    assert sorted(multiplicity(w2, c) for c in w2.max_cones) == [1, 1, 2]
    assert csm_result(w2, force_hnf=True).euler == 3
    w3 = weighted_projective([1, 1, 3])
    assert sorted(multiplicity(w3, c) for c in w3.max_cones) == [1, 1, 3]
    assert csm_result(w3, force_hnf=True).euler == 3
    for w in (w2, w3):
        for c in w.max_cones:
            assert multiplicity(w, c) == gcd_minors_index(w.ray_matrix(c))
    with capsys.disabled():
        _report(4, "wps(1,1,2) mults {1,1,2} chi=3; wps(1,1,3) mults {1,1,3} chi=3")


def test_criterion_05_hnf_property_suite(capsys):
    rng = random.Random(20240801)
    checked = 0
    while checked < 1000:
        d = rng.randint(1, 6)
        n = rng.randint(d, 6)
        rows = [[rng.randint(-20, 20) for _ in range(d)] for _ in range(n)]
        if gcd_minors_index(rows) == 0:
            continue  # not full column rank; resample
        h, t = hermite_normal_form(rows)
        assert matrix_mul(rows, t) == h
        assert abs(determinant(t)) == 1
        assert is_column_hnf(h)
        h2, t2 = hermite_normal_form(h)
        assert h2 == h and t2 == [[int(i == j) for j in range(d)] for i in range(d)]
        if n == d:
            assert abs(determinant(strip_zero_rows(h))) == abs(determinant(rows))
        checked += 1
    with capsys.disabled():
        _report(5, f"{checked} random matrices: M*T=H, |det T|=1, canonical, idempotent")


def test_criterion_06_quotient_oracle(capsys):
    count = 0
    for name, fan in suite_fans():
        if len(fan.rays) > 6:
            continue
        dims = list(graded_dimensions(build_presentation(fan)))
        assert dims == brute_quotient_dims(fan), name
        count += 1
    with capsys.disabled():
        _report(6, f"elimination dims equal full-variable quotient dims on {count} fans")


def test_criterion_07_h_vector(capsys):
    fans = suite_fans()
    for name, fan in fans:
        dims = graded_dimensions(build_presentation(fan))
        assert sum(dims) == len(fan.max_cones), name
    with capsys.disabled():
        _report(7, f"sum of graded dimensions equals maximal-cone count on {len(fans)} fans")


def test_criterion_08_basis_independence(capsys):
    fans = suite_fans()
    for name, fan in fans:
        elims = sorted(c.ray_indices for c in fan.max_cones)[:3]
        seen_dims = set()
        seen_chi = set()
        for e in elims:
            pres = build_presentation(fan, e)
            seen_dims.add(graded_dimensions(pres))
            seen_chi.add(euler_characteristic(fan, pres))
            for c in fan.max_cones:
                cls = {squarefree_monomial(c.ray_indices): Fraction(multiplicity(fan, c))}
                assert degree(normal_form(cls, pres), pres) == 1, (name, e, c)
        assert len(seen_dims) == 1 and len(seen_chi) == 1, name
    with capsys.disabled():
        _report(8, f"chi, graded dims, degrees stable across elimination cones on {len(fans)} fans")


def test_criterion_09_performance_envelope(capsys):
    t0 = time.perf_counter()
    assert main(["csm", "--builder", "pn=6"]) == 0
    t_p6 = time.perf_counter() - t0
    assert t_p6 < 10.0

    fan = product(projective_space(5), projective_space(6))
    pres = build_presentation(fan)
    t0 = time.perf_counter()
    res = csm_result(fan, pres, force_hnf=True)
    t_forced = time.perf_counter() - t0
    assert res.euler == 42
    assert t_forced < 120.0

    t0 = time.perf_counter()
    assert main(["euler", "--builder", "pn=16"]) == 0
    t_p16 = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert out.strip().endswith("17")
    assert t_p16 < 5.0
    with capsys.disabled():
        _report(
            9,
            f"pn=6 csm {t_p6:.2f}s (<10s), P5xP6 forced {t_forced:.2f}s (<120s), "
            f"P16 euler-only {t_p16:.2f}s (<5s)",
        )


def test_criterion_10_fast_path_equivalence(capsys):
    count = 0
    for name, fan in suite_fans():
        if not is_smooth(fan):
            continue
        pres = build_presentation(fan)
        fast = csm_result(fan, pres)
        forced = csm_result(fan, pres, force_hnf=True)
        assert fast == forced, name
        count += 1
    with capsys.disabled():
        _report(10, f"fast path and forced-HNF path bit-identical on {count} smooth fans")


if __name__ == "__main__":
    import io
    import sys
    import traceback
    from types import SimpleNamespace

    class _Capture:
        """Minimal stand-in for pytest's capsys when run as a script."""

        def __init__(self):
            self._buf = io.StringIO()

        def readouterr(self):
            value = self._buf.getvalue()
            self._buf = io.StringIO()
            sys.stdout = self._buf
            return SimpleNamespace(out=value, err="")

        def disabled(self):
            buf = self

            class _Ctx:
                def __enter__(self):
                    sys.stdout = sys.__stdout__

                def __exit__(self, *exc):
                    sys.stdout = buf._buf
                    return False

            return _Ctx()

    tests = [
        (1, test_criterion_01_hirzebruch_golden),
        (2, test_criterion_02_projective_space_binomials),
        (3, test_criterion_03_euler_consistency_suite),
        (4, test_criterion_04_singular_paths),
        (5, test_criterion_05_hnf_property_suite),
        (6, test_criterion_06_quotient_oracle),
        (7, test_criterion_07_h_vector),
        (8, test_criterion_08_basis_independence),
        (9, test_criterion_09_performance_envelope),
        (10, test_criterion_10_fast_path_equivalence),
    ]
    failures = 0
    for num, fn in tests:
        cap = _Capture()
        sys.stdout = cap._buf
        try:
            fn(cap)
            sys.stdout = sys.__stdout__
        except Exception:
            sys.stdout = sys.__stdout__
            print(f"criterion {num}: FAIL")
            traceback.print_exc()
            failures += 1
    sys.exit(1 if failures else 0)
