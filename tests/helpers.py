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
face-trie walk.  ``scan_groebner_tables`` builds the Groebner basis and
tables as ``chow._groebner_tables`` does, but tries every lead for every
monomial and treats a monomial generator like any other.  The h-vector is counted from the faces of the maximal
cones, not from the presentation.  The class of a product fan comes from
its factors' classes by the product formula, which never walks the
product's faces or its product of (1 + x_rho).  ``same_side_wall``
scans every cone and slot for a folded wall with its own parity rule,
apart from the validation walk that names one.  ``eager_pivot_walk`` is
that walk without its filter: every cone it reaches carries the
coordinates of the root's ray sum and is tested for holding it.
``render_class_oracle`` writes a class from ``Fraction`` comparisons on
each coefficient, not from its integer numerator and denominator.

The fan generators are shared too: ``stellar_fan`` builds the P^n + k
fans, ``relabelled_products`` draws products with relabelled rays and
shuffled cones for hypothesis, and ``shuffled_products`` subdivides them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from types import SimpleNamespace
from typing import Sequence

from hypothesis import strategies as st

from toriccsm import (
    ChowPresentation,
    Cone,
    Fan,
    GradedClass,
    build_fan,
    csm_result,
    degree,
    hirzebruch,
    multiplicity,
    normal_form,
    product,
    projective_space,
    squarefree_monomial,
    weighted_projective,
)
from toriccsm.chow import _add_rows, _leading_divisor, _mask, _row, multiplication_tables
from toriccsm.exact_linalg import fraction_free_solve_rows, rational_rref
from toriccsm.fan import _exchange


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
    red, pivots = rational_rref(rows)
    assert pivots == tuple(range(n)), "elimination cone is singular"
    return {
        ray: {((kept[m], 1),): c for m, c in enumerate(red[i][n:]) if c}
        for i, ray in enumerate(elim)
    }


def matrix_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product a * b of two row lists, entry by entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch in matrix product")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def class_add(a: GradedClass, b: GradedClass) -> GradedClass:
    """The sum of two classes, zero coefficients dropped."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _oracle_coeff_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _oracle_sort_key(mono):
    return (sum(e for _, e in mono), tuple((ray, -e) for ray, e in mono))


def render_class_oracle(c: GradedClass) -> str:
    """``formats.render_class`` by ``Fraction`` arithmetic on each
    coefficient: ascending degree, then smaller ray index first and higher
    exponent first; a coefficient that is not positive takes a minus sign."""
    if not c:
        return "0"
    parts: list[str] = []
    for mono in sorted(c, key=_oracle_sort_key):
        q = c[mono]
        mag = abs(q)
        vars_part = "*".join(
            f"x{ray}" if e == 1 else f"x{ray}^{e}" for ray, e in mono
        )
        if not mono:
            body = _oracle_coeff_str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{_oracle_coeff_str(mag)}*{vars_part}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if q > 0 else '-'} {body}")
    return " ".join(parts)


def gcd_minors_index(rows: list[list[int]]) -> int:
    """gcd of all maximal minors of an n x d (n >= d) integer matrix: the
    index of its column span inside the saturation."""
    n, d = len(rows), len(rows[0])
    g = 0
    for sel in combinations(range(n), d):
        g = gcd(g, abs(cofactor_det([rows[i] for i in sel])))
    return g


def oracle_multiplicity(fan: Fan, cone) -> int:
    return gcd_minors_index(fan.ray_matrix(cone))


def same_side_wall(cones: Sequence[Cone], across, dets: list[int]) -> tuple[tuple[int, ...], ...] | None:
    """A wall whose two maximal cones lie on the same side of its span, as
    ``(wall, cone, cone)``, or None: the fold ``fan._pivot_walk`` must
    name.  ``across`` is ``fan._wall_table(cones, n)``, with every wall in
    exactly two cones.

    ``dets[k]`` is the determinant of maximal cone k, rays in increasing
    order.  The cones wall+a and wall+b lie on opposite sides exactly when
    det(wall, a) and det(wall, b) differ in sign; moving the ray at slot s
    to the end takes n-1-s transpositions.  Cones are visited in order,
    each from its last slot to its first, and a wall is reported at its
    second cone.
    """
    last = len(across[0]) - 1
    for k, row in enumerate(across):
        positive = dets[k] > 0
        for s in range(last, -1, -1):
            a, sa = row[s]
            if a > k:
                continue
            if (positive ^ ((last - s) & 1)) == ((dets[a] > 0) ^ ((last - sa) & 1)):
                idx = cones[k].ray_indices
                return idx[:s] + idx[s + 1 :], cones[a].ray_indices, idx
    return None


def eager_pivot_walk(fan: Fan, across) -> tuple[list[int], list[int], tuple[int, int] | None, tuple | None]:
    """``fan._pivot_walk``'s ``(dets, roots, overlap, fold)`` by the same
    walk, done eagerly: every cone it reaches takes the whole pairing
    vector ``c_r = <u_r, v>``, and the coordinates ``y = |det| . sigma^-1
    p`` of the root's ray sum p ride along by the exchange of
    ``fan._exchange``, so every reached cone is tested for holding p (all
    y >= 0) with no filter in front of the test."""
    n = fan.ambient_dim
    cones = [c.ray_indices for c in fan.max_cones]
    support = [[(t, x) for t, x in enumerate(v) if x] for v in fan.rays]
    dets: list[int | None] = [None] * len(cones)
    roots: list[int] = []
    overlap = fold = None
    for root, cone in enumerate(cones):
        if dets[root] is not None:
            continue
        roots.append(root)
        rays = [fan.rays[j] for j in cone]
        system = [[v[t] for v in rays] + [int(t == s) for s in range(n)] for t in range(n)]
        det, inv = fraction_free_solve_rows(system)
        dets[root] = det
        if not det:
            continue
        stack = [(root, inv, [abs(det)] * n, None)]
        while stack:
            k, rows, y, step = stack.pop()
            det = dets[k]
            scale = abs(det)
            positive = det > 0
            for i, there in enumerate(across[k]):
                if there is None:
                    continue
                nb, j = there
                seen = dets[nb]
                if seen is not None:
                    if (positive != (seen > 0)) == ((i ^ j) & 1):
                        key = (k, -i, nb) if k > nb else (nb, -j, k)
                        if fold is None or key < fold:
                            fold = key
                    continue
                if step is not None:
                    rows = _exchange(rows, *step)
                    step = None
                v = support[cones[nb][j]]
                t, x = v[0]
                c = [x * u[t] for u in rows]
                for t, x in v[1:]:
                    c = [a + x * u[t] for a, u in zip(c, rows)]
                ci = c[i]
                nb_det = ci if positive else -ci
                dets[nb] = -nb_det if (i - j) & 1 else nb_det
                if not ci:
                    continue
                yi = y[i]
                if ci > 0:
                    y_nb = [(ci * yr - cr * yi) // scale for yr, cr in zip(y, c)]
                else:
                    y_nb = [(cr * yi - ci * yr) // scale for yr, cr in zip(y, c)]
                    yi = -yi
                del y_nb[i]
                y_nb.insert(j, yi)
                if overlap is None and min(y_nb) >= 0:
                    overlap = (root, nb)
                stack.append((nb, rows, y_nb, (c, i, j, scale)))
    if fold is not None:
        k, s, a = fold
        s = -s
        fold = cones[k][:s] + cones[k][s + 1 :], cones[a], cones[k]
    return dets, roots, overlap, fold


def is_column_hnf(h: list[list[int]]) -> bool:
    """Canonical-form predicate on the rows of ``h``: positive pivots in
    strictly increasing row positions, zeros above every pivot, and entries
    left of a pivot in its row reduced into [0, pivot)."""
    pivots = []
    for j in range(len(h[0])):
        rows_j = [i for i in range(len(h)) if h[i][j]]
        if not rows_j:
            return False
        p = rows_j[0]
        if h[p][j] <= 0:
            return False
        pivots.append(p)
    if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
        return False
    for j, p in enumerate(pivots):
        for k in range(j):
            if not 0 <= h[p][k] < h[p][j]:
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
            rrows, piv = rational_rref(rows)
            pivset = set(piv)
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
    constant 1.  The cones are the maximal cones' ray subsets, listed here
    rather than by ``enumerate_cones``.  ``mac`` is
    ``macaulay_presentation(pres)``, computed when not given."""
    if mac is None:
        mac = macaulay_presentation(pres)
    n = fan.ambient_dim
    raw: dict[int, GradedClass] = {d: {} for d in range(1, n + 1)}
    faces = {face for c in fan.max_cones for d in range(1, n + 1) for face in combinations(c.ray_indices, d)}
    for face in faces:
        raw[len(face)][squarefree_monomial(face)] = Fraction(multiplicity(fan, Cone(face)))
    sums = {0: oracle_normal_form({(): Fraction(1)}, mac)}
    for d, part in raw.items():
        sums[d] = oracle_normal_form(part, mac)
    return sums


def relabel_raw(rays, cones, perm: list[int]) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Rays and maximal cones, which need not make a valid fan, with ray
    ``j`` renamed to ``perm[j]``."""
    out = [None] * len(rays)
    for j, v in enumerate(rays):
        out[perm[j]] = v
    return out, [tuple(perm[j] for j in c) for c in cones]


def relabel(fan: Fan, perm: list[int]) -> Fan:
    """The same fan with ray ``j`` renamed to ``perm[j]``."""
    rays, cones = relabel_raw(fan.rays, [c.ray_indices for c in fan.max_cones], perm)
    return build_fan(fan.ambient_dim, rays, cones)


def suite_fans() -> list[tuple[str, Fan]]:
    """The acceptance suite: projective spaces to P^8, products up to
    P^5 x P^6, the Hirzebruch family, the weighted projective family, and
    pairwise products of small members of those families."""
    fans: list[tuple[str, Fan]] = []
    for n in range(1, 9):
        fans.append((f"pn={n}", projective_space(n)))
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


def _subdivide(rays: list, cones: list, cone: tuple[int, ...], coeffs: list[int]) -> None:
    """Stellar subdivision, in place, of the maximal cone ``cone`` (taken
    out of ``cones``) at the primitive vector of sum c_i v_i: the n cones
    that swap one of its rays for the new one go to the end of ``cones``.
    The fan stays complete and simplicial (Cox-Little-Schenck, *Toric
    Varieties*, 11.1)."""
    n = len(cone)
    cones.remove(cone)
    w = [sum(c * rays[j][t] for c, j in zip(coeffs, cone)) for t in range(n)]
    g = gcd(*w)
    rays.append(tuple(x // g for x in w))
    cones += [cone[:i] + (len(rays) - 1,) + cone[i + 1 :] for i in range(n)]


def stellar_fan(n: int, k: int, seed: int, coefficients: Sequence[int] = (1,)) -> Fan:
    """P^n + k: ``projective_space(n)`` subdivided k times, each time at
    the primitive vector of sum c_i v_i over the rays v_i of a maximal cone
    drawn by one ``random.Random(seed)``'s ``choice`` over the current
    maximal cones.  Each c_i is drawn from ``coefficients`` by the same
    generator, after the cone; a single value is used without a draw.
    Complete and not a product.  With the default all c_i are 1, so the fan
    is smooth, and seed 1 gives the P^n + k fans of ROADMAP's Baseline;
    ``coefficients=(1, 2)`` makes most of the fans singular."""
    rng = random.Random(seed)
    fan = projective_space(n)
    rays = list(fan.rays)
    cones = [c.ray_indices for c in fan.max_cones]
    for _ in range(k):
        cone = rng.choice(cones)
        if len(coefficients) == 1:
            coeffs = [coefficients[0]] * n
        else:
            coeffs = [rng.choice(coefficients) for _ in range(n)]
        _subdivide(rays, cones, cone, coeffs)
    return build_fan(n, rays, cones)


_FACTORS = (
    [lambda n=n: projective_space(n) for n in (1, 2, 3)]
    + [lambda r=r: hirzebruch(r) for r in (0, 1, 3)]
    + [lambda w=w: weighted_projective(w) for w in ([1, 1, 2], [1, 1, 3], [1, 2, 3])]
)


@st.composite
def relabelled_products(draw):
    """A product of 2-4 factors with relabelled rays and shuffled cones,
    drawn as ``(factors, product fan)``."""
    factors = [f() for f in draw(st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=4))]
    fan = factors[0]
    for f in factors[1:]:
        fan = product(fan, f)
    perm = draw(st.permutations(range(len(fan.rays))))
    rays, cones = relabel_raw(fan.rays, [c.ray_indices for c in fan.max_cones], perm)
    return factors, build_fan(fan.ambient_dim, rays, draw(st.permutations(cones)))


@st.composite
def shuffled_products(draw, min_subdivisions: int = 0):
    """A product as in ``relabelled_products``, then ``min_subdivisions``
    to 3 stellar subdivisions of a maximal cone at sum c_i v_i with c_i in
    {1, 2} (made primitive), which leave the fan complete and make it a
    non-product, often singular.  Drawn as ``(dim, rays, maximal
    cones)``."""
    _, fan = draw(relabelled_products())
    n = fan.ambient_dim
    rays = list(fan.rays)
    cones = [c.ray_indices for c in fan.max_cones]
    for _ in range(draw(st.integers(min_subdivisions, 3))):
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        _subdivide(rays, cones, cone, draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    return n, rays, draw(st.permutations(cones))


def product_formula_class(factors: list[Fan], pres: ChowPresentation) -> GradedClass:
    """The class of the product of ``factors`` by the product formula
    c_SM(X x Y) = pr_1^* c_SM(X) . pr_2^* c_SM(Y) (Kwiecinski, C. R. Acad.
    Sci. Paris 314, 1992), reduced in ``pres``.

    ``pres.fan`` is ``product`` of the factors in order, its rays relabelled
    in any way.  Each factor's ``csm_result`` class has its rays moved to
    their indices in ``pres.fan``, found by the zero-padded ray vectors;
    the classes are multiplied as polynomials, and ``normal_form`` reduces
    the product.
    """
    fan = pres.fan
    n = fan.ambient_dim
    index = {v: j for j, v in enumerate(fan.rays)}
    total: GradedClass = {(): Fraction(1)}
    before = 0
    for factor in factors:
        k = factor.ambient_dim
        pad = (0,) * before, (0,) * (n - before - k)
        where = [index[pad[0] + v + pad[1]] for v in factor.rays]
        out: GradedClass = {}
        for mono, coeff in csm_result(factor).csm_class.items():
            shifted = tuple((where[j], e) for j, e in mono)
            for base, q in total.items():
                m = tuple(sorted(base + shifted))
                out[m] = out.get(m, 0) + q * coeff
        total = out
        before += k
    return normal_form(total, pres)


def h_vector(fan: Fan) -> tuple[int, ...]:
    """h_k = sum_{i >= k} (-1)^(i-k) C(i, k) d_i over the numbers d_i of
    cones of codimension i, the faces listed from the maximal cones; for
    a complete simplicial fan it is the graded dimensions of the Chow ring
    (Fulton, *Introduction to Toric Varieties*, 5.2)."""
    n = fan.ambient_dim
    faces = {sub for c in fan.max_cones for k in range(n + 1) for sub in combinations(c.ray_indices, k)}
    d = [0] * (n + 1)
    for face in faces:
        d[n - len(face)] += 1
    return tuple(sum((-1) ** (i - k) * comb(i, k) * d[i] for i in range(k, n + 1)) for k in range(n + 1))


def transversal_nonfaces(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The minimal non-faces, sorted, as the minimal transversals of the
    complement hypergraph of the whole fan, with no join split and no
    index: each new candidate is tested against every kept transversal."""
    r = len(fan.rays)
    full = (1 << r) - 1
    edges = sorted({full ^ sum(1 << j for j in c.ray_indices) for c in fan.max_cones})
    trans = [0]
    for e in edges:
        nxt = [t for t in trans if t & e]
        bits = [1 << v for v in range(r) if e >> v & 1]
        new = {t | b for t in trans if not t & e for b in bits}
        for m in sorted(new, key=lambda m: (m.bit_count(), m)):
            if not any(k & m == k for k in nxt):
                nxt.append(m)
        trans = nxt
    return tuple(sorted(tuple(v for v in range(r) if t >> v & 1) for t in trans))


def scan_groebner_tables(gens: list, packing) -> tuple[list, list[list[int]], list[tuple]]:
    """``chow._groebner_tables``' output, by the general route alone: every
    monomial met is tested against every lead, in basis order, and reduced
    by the first that divides it; every generator, monomial or not, is a
    row of the degree's echelon form; and every pair of leads that share a
    variable and have an lcm of degree <= top is formed, two monomial
    elements included.  Same arguments and the same return value."""
    top, guards, variables = packing.top, packing.guards, packing.variables
    basis: list = []
    leads: list = []  # exponents, support bitmask
    pairs: dict = {}
    bases: list[list[int]] = [[0]]
    tables: list[list[tuple]] = [[] for _ in variables]
    for d in range(1, top + 1):
        work = [list(g.items()) for deg_g, g in gens if deg_g == d]
        for i, j, lcm in pairs.pop(d, ()):
            (li, gi), (lj, gj) = basis[i], basis[j]
            work.append(
                [(lcm - li + u, c) for u, c in gi.items() if u != li]
                + [(lcm - lj + u, -c) for u, c in gj.items() if u != lj]
            )
        border = {b + v for b in bases[-1] for v in variables}
        red: dict = {}
        tails: dict = {}
        todo = [(w, 1) for w in border]
        for f in work:
            todo += f
        while todo:
            m, _ = todo.pop()
            if m in red:
                continue
            hit = _leading_divisor(m, basis, guards)
            if hit is None:
                red[m] = ((m, 1),)
                continue
            lead, g = hit
            red[m] = tails[m] = [(m - lead + u, c) for u, c in g.items() if u != lead]
            todo += tails[m]
        for m in sorted(tails):
            red[m] = _add_rows({}, tails[m], red, -1).items()
        rows: dict = {}
        for f in work:
            v = _add_rows({}, f, red)
            for p in [p for p in v if p in rows]:
                c = v.pop(p)
                for w, e in rows[p].items():
                    v[w] = v.get(w, 0) - c * e
            v = {w: c for w, c in v.items() if c}
            if not v:
                continue
            lead = max(v)
            inv = Fraction(1) / v.pop(lead)
            tail = {w: c * inv for w, c in v.items()}
            for row in rows.values():
                c = row.pop(lead, 0)
                if c:
                    for w, e in tail.items():
                        row[w] = row.get(w, 0) - c * e
                        if not row[w]:
                            del row[w]
            rows[lead] = tail
        basis_d = sorted(border.difference(tails, rows), reverse=True)
        value = {w: ((i, 1),) for i, w in enumerate(basis_d)}
        for p, row in rows.items():
            value[p] = _row({value[w][0][0]: -c for w, c in row.items()})
        nf = {w: _row(_add_rows({}, red[w], value)) if w in tails else value[w] for w in border}
        for v, per_degree in zip(variables, tables):
            per_degree.append(tuple(nf[b + v] for b in bases[-1]))
        bases.append(basis_d)
        for lead, row in sorted(rows.items()):
            exps = packing.unpack(lead)
            support = _mask(p for p, e in enumerate(exps) if e)
            new = len(basis)
            for i, (ei, si) in enumerate(leads):
                if si & support:
                    lcm = tuple(map(max, ei, exps))
                    deg = sum(lcm)
                    if deg <= top:
                        pairs.setdefault(deg, []).append((i, new, packing.pack(lcm)))
            basis.append((lead, {lead: Fraction(1), **row}))
            leads.append((exps, support))
    return basis, bases, [tuple(t) for t in tables]


def _walk(tables, rays) -> dict[int, int]:
    """The scaled vector x_{rays[0]} ... x_{rays[-1]} * 1, one table per
    step, as index -> coefficient with zeros dropped."""
    vec = {0: 1}
    for t, j in enumerate(rays):
        out: dict[int, int] = {}
        for b, q in vec.items():
            for i, e in tables[j][t][b]:
                out[i] = out.get(i, 0) + q * e
        vec = {i: q for i, q in out.items() if q}
    return vec


def certify_presentation(pres: ChowPresentation) -> None:
    """Assert that ``pres``'s scaled tables are the graded-lex normal-form
    tables of A = Q[x]/(I_SR + L) in degrees <= n, and that its degree map
    gives every maximal cone's point class degree 1.  Uses only the tables,
    the scales, the degree bases, the kept variables and the calibration;
    never how they were built.

    (a) |B_d| = h_d for the fan's h-vector, and B is an order ideal;
    (b) a kept variable's table sends b to its scale times the unit vector
        of b * x_p when that is in B, and otherwise to a row of basis
        monomials below b * x_p in graded-lex order;
    (c) the kept variables' tables commute;
    (d) sum_j v_j[k] T_j = 0 for each lattice coordinate k;
    (e) each minimal non-face of size <= n walks from 1 to 0;
    (f) mult(sigma) x_sigma has degree 1 for every maximal cone sigma.

    By (b) and (c) the border relations generate an ideal J with B a basis
    of R/J and J's graded-lex standard set (the border-basis criterion:
    Mourrain, AAECC-13, 1999; Kehrein-Kreuzer-Robbiano, *An algebraist's
    view on border bases*, 2005).  By (d) and (e), I is inside J, and by
    (a) both have the same codimension h_d in each degree, so I = J.
    """
    fan = pres.fan
    n = fan.ambient_dim
    tables, scales = multiplication_tables(pres)
    bases = pres.degree_bases
    assert all(type(s) is int and s > 0 for s in scales), scales
    assert all(type(e) is int for t in tables for rows in t for row in rows for _, e in row)
    # (a)
    assert tuple(map(len, bases)) == h_vector(fan), "graded dimensions are not the h-vector"
    kept = pres.kept
    pos = {ray: p for p, ray in enumerate(kept)}

    def exps(mono):
        e = [0] * len(kept)
        for ray, k in mono:
            e[pos[ray]] += k
        return tuple(e)

    keys = [{exps(b): i for i, b in enumerate(basis)} for basis in bases]
    for d in range(1, n + 1):
        for e in keys[d]:
            for p in range(len(kept)):
                if e[p]:
                    below = e[:p] + (e[p] - 1,) + e[p + 1 :]
                    assert below in keys[d - 1], f"basis is not an order ideal at {bases[d]}"
    # (b)
    for p, ray in enumerate(kept):
        for d in range(n):
            for e, b in keys[d].items():
                up = e[:p] + (e[p] + 1,) + e[p + 1 :]
                row = tables[ray][d][b]
                if up in keys[d + 1]:
                    assert row == ((keys[d + 1][up], scales[d]),), (ray, d, e)
                else:
                    assert all(exps(bases[d + 1][i]) < up for i, _ in row), (ray, d, e)
    # (c)
    for d in range(n - 1):
        for b in range(len(bases[d])):
            for p, q in combinations(kept, 2):
                pq, qp = {}, {}
                for first, second, out in ((p, q, pq), (q, p, qp)):
                    for i, c in tables[first][d][b]:
                        for k, e in tables[second][d + 1][i]:
                            out[k] = out.get(k, 0) + c * e
                pq = {k: c for k, c in pq.items() if c}
                qp = {k: c for k, c in qp.items() if c}
                assert pq == qp, f"tables of rays {p} and {q} do not commute at degree {d}"
    # (d)
    for k in range(n):
        for d in range(n):
            for b in range(len(bases[d])):
                acc: dict[int, int] = {}
                for j, v in enumerate(fan.rays):
                    for i, e in tables[j][d][b]:
                        acc[i] = acc.get(i, 0) + v[k] * e
                assert not any(acc.values()), f"linear relation {k} fails at degree {d}"
    # (e)
    for s in pres.nonfaces:
        if len(s) <= n:
            assert not _walk(tables, s), f"non-face {s} does not reduce to 0"
    # (f)
    total = 1
    for s in scales:
        total *= s
    top = bases[n][0]
    for cone in fan.max_cones:
        q = Fraction(_walk(tables, cone.ray_indices).get(0, 0), total)
        assert multiplicity(fan, cone) * degree({top: q}, pres) == 1, cone.ray_indices


def _double_winding() -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    # 8 rays, each cone between consecutive ones: the cycle winds twice
    # around the origin
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
    return 2, rays, [(i, (i + 1) % 8) for i in range(8)]


def _suspended_double_winding() -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    _, rays, cones = _double_winding()
    rays = [r + (0,) for r in rays] + [(0, 0, 1), (0, 0, -1)]
    return 3, rays, [c + (apex,) for c in cones for apex in (8, 9)]


def raw_product(first, second) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The product of two fans given as raw ``(dim, rays, maximal cones)``,
    which need not be valid, laid out as ``product`` lays out a product."""
    n1, rays1, cones1 = first
    n2, rays2, cones2 = second
    rays = [tuple(r) + (0,) * n2 for r in rays1] + [(0,) * n1 + tuple(r) for r in rays2]
    shift = len(rays1)
    return n1 + n2, rays, [tuple(c1) + tuple(j + shift for j in c2) for c1 in cones1 for c2 in cones2]


def _shuffled_double_winding_times(
    fan: Fan, seed: int
) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The double winding times ``fan``, with its rays relabelled and its
    maximal cones shuffled by one ``random.Random(seed)``: the cone that
    holds the first cone's ray sum a second time lies deep in the walk
    across the walls."""
    raw = fan.ambient_dim, fan.rays, [c.ray_indices for c in fan.max_cones]
    n, rays, cones = raw_product(_double_winding(), raw)
    rng = random.Random(seed)
    perm = list(range(len(rays)))
    rng.shuffle(perm)
    rays, cones = relabel_raw(rays, cones, perm)
    rng.shuffle(cones)
    return n, rays, cones


# Fans that pass the wall condition (every wall in two maximal cones, on
# opposite sides of it) but cover space more than once; each value is
# (dim, rays, maximal cones).
MULTI_COVER_FANS = {
    "double winding": _double_winding(),
    "suspended double winding": _suspended_double_winding(),
    "two P2 fans": (
        2,
        [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    ),
    "double winding x P2": _shuffled_double_winding_times(projective_space(2), 0),
    "double winding x hirzebruch 3": _shuffled_double_winding_times(hirzebruch(3), 1),
}
