"""Independent oracles and shared fixtures for the test suite.

Everything here is deliberately naive and separate from the library code
paths it checks: cofactor determinants and Gaussian elimination over
``Fraction`` instead of Bareiss, linear solves and the elimination
substitution over ``Fraction`` instead of the fraction-free solve, gcd of
maximal minors instead of echelon forms, a dumb full-variable row
reduction for quotient dimensions instead of the elimination pipeline,
and dense Macaulay row reduction of the substituted generators instead
of the Groebner basis and border multiplication tables of the
presentation.  The Macaulay reductions drive their own normal form,
which substitutes the eliminated variables, expands every product and
looks each monomial up, so it shares no table with the library's
``normal_form`` or class assembly; the per-dimension orbit sums are that
normal form of the whole sum of each dimension, not the product and
face-trie walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from types import SimpleNamespace

from toriccsm import (
    ChowPresentation,
    Fan,
    GradedClass,
    build_fan,
    hirzebruch,
    multiplicity,
    product,
    projective_space,
    squarefree_monomial,
    weighted_projective,
)
from toriccsm.exact_linalg import IntegerMatrix, RationalMatrix, rational_rref


def cofactor_det(rows: list[list[int]]) -> int:
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def fraction_det(rows: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over ``Fraction``."""
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def fraction_solve(a: list[list[int]], b: list[list[int]]) -> list[list[Fraction]] | None:
    """``a^-1 . b`` by Gauss-Jordan elimination over ``Fraction``, or
    ``None`` when ``a`` is singular."""
    n = len(a)
    m = [[Fraction(x) for x in a[i] + b[i]] for i in range(n)]
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def oracle_substitution(fan: Fan, elim: tuple[int, ...]) -> dict[int, GradedClass]:
    """The eliminated variables as rational combinations of the kept ones,
    from the reduced row echelon form of ``[A | -B]`` over ``Fraction``:
    ``A`` holds the elimination cone's rays as columns, ``B`` the kept
    rays'.  Same layout as ``ChowPresentation.substitution``."""
    n = fan.ambient_dim
    kept = [j for j in range(len(fan.rays)) if j not in elim]
    rows = [[fan.rays[j][k] for j in elim] + [-fan.rays[j][k] for j in kept] for k in range(n)]
    red, pivots = rational_rref(RationalMatrix.from_rows(rows))
    assert pivots == tuple(range(n)), "elimination cone is singular"
    rl = red.row_lists()
    return {
        ray: {((kept[m], 1),): c for m, c in enumerate(rl[i][n:]) if c}
        for i, ray in enumerate(elim)
    }


def gcd_minors_index(rows: list[list[int]]) -> int:
    """gcd of all maximal minors of an n x d (n >= d) integer matrix: the
    index of its column span inside the saturation."""
    n, d = len(rows), len(rows[0])
    g = 0
    for sel in combinations(range(n), d):
        g = gcd(g, abs(cofactor_det([rows[i] for i in sel])))
    return g


def oracle_multiplicity(fan: Fan, cone) -> int:
    return gcd_minors_index(fan.ray_matrix(cone).row_lists())


def is_column_hnf(h: IntegerMatrix) -> bool:
    """Canonical-form predicate: positive pivots in strictly increasing row
    positions, zeros above every pivot, and entries left of a pivot in its
    row reduced into [0, pivot)."""
    pivots = []
    for j in range(h.cols):
        rows_j = [i for i in range(h.rows) if h.at(i, j)]
        if not rows_j:
            return False
        p = rows_j[0]
        if h.at(p, j) <= 0:
            return False
        pivots.append(p)
    if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
        return False
    for j, p in enumerate(pivots):
        for k in range(j):
            if not 0 <= h.at(p, k) < h.at(p, j):
                return False
    return True


def int_row_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix: echelon reduction with sparsest-row
    pivoting and content stripping."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    start = 0
    for c in range(ncols):
        piv, best = None, None
        for i in range(start, len(work)):
            if work[i][c]:
                nz = sum(1 for x in work[i] if x)
                if best is None or nz < best:
                    best, piv = nz, i
        if piv is None:
            continue
        work[start], work[piv] = work[piv], work[start]
        pr = work[start]
        a = pr[c]
        for i in range(start + 1, len(work)):
            b = work[i][c]
            if not b:
                continue
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = [ma * x - mb * y for x, y in zip(work[i], pr)]
            g2 = 0
            for x in new:
                if x:
                    g2 = gcd(g2, x)
                    if g2 == 1:
                        break
            if g2 > 1:
                new = [x // g2 for x in new]
            work[i] = new
        rank += 1
        start += 1
    return rank


def exponent_tuples(nvars: int, total: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, left):
        if left == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, left - 1)

    if nvars == 0:
        return [()] if total == 0 else []
    rec((), total, nvars)
    return out


def brute_quotient_dims(fan: Fan) -> list[int]:
    """Graded dimensions of the quotient ring computed over the full set of
    ray variables: degree-d monomials modulo the span of all monomial
    multiples of the non-face and linear-relation generators.
    """
    from toriccsm import linear_relations, stanley_reisner_nonfaces

    r = len(fan.rays)
    n = fan.ambient_dim
    gens: list[dict[tuple[int, ...], int]] = []
    for s in stanley_reisner_nonfaces(fan):
        e = [0] * r
        for j in s:
            e[j] = 1
        gens.append({tuple(e): 1})
    for form in linear_relations(fan):
        g = {}
        for j, cf in enumerate(form):
            if cf:
                e = [0] * r
                e[j] = 1
                g[tuple(e)] = cf
        if g:
            gens.append(g)
    dims = []
    for d in range(n + 1):
        mons = exponent_tuples(r, d)
        col = {m: i for i, m in enumerate(mons)}
        rows = []
        for g in gens:
            deg_g = sum(next(iter(g)))
            if deg_g > d:
                continue
            for m in exponent_tuples(r, d - deg_g):
                row = [0] * len(mons)
                for gm, gc in g.items():
                    row[col[tuple(x + y for x, y in zip(m, gm))]] = gc
                rows.append(row)
        dims.append(len(mons) - int_row_rank(rows))
    return dims


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def macaulay_presentation(pres: ChowPresentation) -> SimpleNamespace:
    """The reduction data of ``pres``'s quotient recomputed by dense row
    reduction of the degree-d Macaulay matrix, for ``oracle_normal_form``.

    For each degree d the rows are every monomial multiple of degree d of
    the substituted non-face generators, over columns of all degree-d
    monomials in decreasing graded-lex order (an earlier kept variable is
    more significant).  The non-pivot columns of the reduced row echelon
    form are the basis monomials, and each pivot row gives the normal form
    of its pivot monomial.  Only the kept variables, the substitution and
    the non-faces are taken from ``pres``.  The result carries ``kept``,
    ``degree_bases`` (sparse monomials, descending), the dense ``subst``,
    ``basis_sets`` and ``reductions`` over exponent tuples of the kept
    variables, and the ``point_coeff`` of the degree calibration.
    """
    n = pres.fan.ambient_dim
    kept = pres.kept
    nk = len(kept)
    pos = {ray: i for i, ray in enumerate(kept)}

    def dense(mono):
        e = [0] * nk
        for ray, k in mono:
            e[pos[ray]] += k
        return tuple(e)

    subst = {j: {dense(m): c for m, c in form.items()} for j, form in pres.substitution.items()}
    gens = []
    for s in pres.nonfaces:
        poly = {(0,) * nk: Fraction(1)}
        for j in s:
            poly = _poly_mul(poly, {dense(((j, 1),)): Fraction(1)} if j in pos else subst[j])
        if poly:
            gens.append((len(s), poly))

    def sparse(m):
        return tuple((kept[i], e) for i, e in enumerate(m) if e)

    bases, basis_sets, reductions = [], [], []
    for d in range(n + 1):
        mons = exponent_tuples(nk, d)
        col = {m: i for i, m in enumerate(mons)}
        rows = []
        for deg_g, g in gens:
            if deg_g > d:
                continue
            for m in exponent_tuples(nk, d - deg_g):
                row = [Fraction(0)] * len(mons)
                for gm, gc in g.items():
                    row[col[tuple(x + y for x, y in zip(m, gm))]] = gc
                rows.append(row)
        red_d = {}
        if rows:
            rmat, piv = rational_rref(RationalMatrix.from_rows(rows))
            pivset = set(piv)
            rrows = rmat.row_lists()
            basis_idx = [j for j in range(len(mons)) if j not in pivset]
            for i, pcol in enumerate(piv):
                red_d[mons[pcol]] = {mons[j]: -rrows[i][j] for j in basis_idx if rrows[i][j]}
        else:
            basis_idx = list(range(len(mons)))
        bases.append(tuple(sparse(mons[j]) for j in basis_idx))
        basis_sets.append({mons[j] for j in basis_idx})
        reductions.append(red_d)

    out = SimpleNamespace(
        kept=kept,
        subst=subst,
        degree_bases=tuple(bases),
        basis_sets=basis_sets,
        reductions=reductions,
    )
    ref = min(pres.fan.max_cones, key=lambda c: c.ray_indices)
    reduced = oracle_normal_form({squarefree_monomial(ref.ray_indices): Fraction(1)}, out)
    out.point_coeff = reduced.get(out.degree_bases[n][0], Fraction(0))
    return out


def oracle_normal_form(c: GradedClass, mac: SimpleNamespace) -> GradedClass:
    """Normal form of a class from the Macaulay reductions of
    ``macaulay_presentation``: substitute the eliminated variables, expand
    every product, and look each monomial up in the per-degree reductions.
    """
    nk = len(mac.kept)
    pos = {ray: i for i, ray in enumerate(mac.kept)}
    acc: dict = {}
    for mono, coeff in c.items():
        base = [0] * nk
        factors = []
        for ray, e in mono:
            if ray in pos:
                base[pos[ray]] += e
            else:
                factors += [mac.subst[ray]] * e
        poly = {tuple(base): Fraction(coeff)}
        for factor in factors:
            poly = _poly_mul(poly, factor)
        for m, q in poly.items():
            acc[m] = acc.get(m, 0) + q
    out: dict = {}
    for m, q in acc.items():
        d = sum(m)
        terms = {m: 1} if m in mac.basis_sets[d] else mac.reductions[d][m]
        for b, rc in terms.items():
            out[b] = out.get(b, 0) + q * rc
    return {tuple((mac.kept[i], e) for i, e in enumerate(m) if e): q for m, q in out.items() if q}


def normal_form_orbit_sums(
    fan: Fan, pres: ChowPresentation, mac: SimpleNamespace | None = None
) -> dict[int, GradedClass]:
    """Per-dimension orbit sums as class assembly once computed them: for
    each d, the oracle normal form of the sum of mult(sigma) * x_sigma over
    the d-dimensional cones, every multiplicity computed, with d = 0 the
    constant 1.  ``mac`` is ``macaulay_presentation(pres)``, computed when
    not given."""
    if mac is None:
        mac = macaulay_presentation(pres)
    sums = {0: oracle_normal_form({(): Fraction(1)}, mac)}
    for d, cones in fan.faces.items():
        raw = {squarefree_monomial(c.ray_indices): Fraction(multiplicity(fan, c)) for c in cones}
        sums[d] = oracle_normal_form(raw, mac)
    return sums


def relabel(fan: Fan, perm: list[int]) -> Fan:
    """The same fan with ray ``j`` renamed to ``perm[j]``."""
    rays = [None] * len(fan.rays)
    for j, v in enumerate(fan.rays):
        rays[perm[j]] = v
    cones = [tuple(perm[j] for j in c.ray_indices) for c in fan.max_cones]
    return build_fan(fan.ambient_dim, rays, cones)


def suite_fans() -> list[tuple[str, Fan]]:
    """The acceptance suite: projective spaces to P^8, products up to
    P^5 x P^6, the Hirzebruch family, the weighted projective family, and
    pairwise products of small members of those families."""
    fans: list[tuple[str, Fan]] = []
    for n in range(1, 9):
        fans.append((f"pn={n}", projective_space(n)))
    fans.append(("pn=1*pn=1", product(projective_space(1), projective_space(1))))
    fans.append(("pn=2*pn=3", product(projective_space(2), projective_space(3))))
    fans.append(("pn=5*pn=6", product(projective_space(5), projective_space(6))))
    for rr in range(11):
        fans.append((f"hirzebruch={rr}", hirzebruch(rr)))
    for q in range(1, 6):
        fans.append((f"wps=1,1,{q}", weighted_projective([1, 1, q])))
    small = [
        ("pn=1", lambda: projective_space(1)),
        ("pn=2", lambda: projective_space(2)),
        ("hirzebruch=0", lambda: hirzebruch(0)),
        ("hirzebruch=5", lambda: hirzebruch(5)),
        ("wps=1,1,2", lambda: weighted_projective([1, 1, 2])),
        ("wps=1,1,3", lambda: weighted_projective([1, 1, 3])),
    ]
    for i, (name1, b1) in enumerate(small):
        for name2, b2 in small[i:]:
            fans.append((f"{name1}*{name2}", product(b1(), b2())))
    return fans
