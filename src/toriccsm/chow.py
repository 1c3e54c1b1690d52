"""Rational Chow ring presentation and exact graded normal-form reduction.

The ring of a complete simplicial fan with rays ``x_0..x_{r-1}`` is the
polynomial ring over Q modulo the squarefree monomial ideal of minimal
non-faces and the ``n`` linear relations coming from the ray coordinates.
We eliminate the ``n`` variables of one maximal cone (its ray matrix is
invertible), which leaves ``r - n`` variables and an ideal generated by the
substituted non-faces alone.  The linear relations are solved in integers
by a fraction-free solve, and integral substitution coefficients stay
``int``, so on a unimodular elimination cone the eliminated variables'
multiplication tables are built in int arithmetic.  A homogeneous
Buchberger run in graded-lex order (an earlier kept variable is more
significant), truncated at degree ``n``, gives that ideal's leading terms.
The monomials they do not divide are the basis of each graded piece, an
order ideal grown degree by degree from its border; the normal forms of
the border monomials are the kept variables' multiplication tables, the
presentation's only reduction data.  Every normal form, class assembly
and the degree calibration walk them.

Classes are sparse:

  Monomial    = tuple of (ray_index, exponent) pairs, sorted, exponents > 0
  GradedClass = dict mapping Monomial -> Fraction, no zero coefficients

The empty tuple is the constant monomial 1.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, sub
from typing import Dict, Iterable, Tuple

from .errors import InternalError, ValidationError
from .exact_linalg import (
    IntegerMatrix,
    fraction_free_solve,
    rational_rref,  # noqa: F401 -- not called here; perfbench/tracer.py wraps chow.rational_rref
)
from .fan import Cone, Fan, multiplicity

__all__ = [
    "Monomial",
    "GradedClass",
    "ChowPresentation",
    "squarefree_monomial",
    "monomial_degree",
    "class_add",
    "stanley_reisner_nonfaces",
    "linear_relations",
    "build_presentation",
    "normal_form",
    "multiplication_tables",
    "graded_dimensions",
    "degree",
]

Monomial = Tuple[Tuple[int, int], ...]
GradedClass = Dict[Monomial, Fraction]

_F0 = Fraction(0)
_F1 = Fraction(1)


def squarefree_monomial(ray_indices: Iterable[int]) -> Monomial:
    """The monomial prod x_i over the given ray indices."""
    return tuple((int(i), 1) for i in sorted(ray_indices))


def monomial_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def class_add(a: GradedClass, b: GradedClass) -> GradedClass:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, _F0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def stanley_reisner_nonfaces(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal sets of ray indices spanning no cone of the fan.

    A set is a non-face exactly when it meets the complement of every
    maximal cone, so the minimal non-faces are the minimal transversals of
    the complement hypergraph; computed by sequential transversal updates
    over bitmasks.
    """
    r = len(fan.rays)
    full = (1 << r) - 1
    edges = sorted({full ^ _mask(c.ray_indices) for c in fan.max_cones})

    def minimalize(masks: list[int]) -> list[int]:
        masks = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
        kept: list[int] = []
        for m in masks:
            if not any(k & m == k for k in kept):
                kept.append(m)
        return kept

    trans = [0]
    for e in edges:
        nxt = [t for t in trans if t & e]
        bits = [v for v in range(r) if e >> v & 1]
        for t in trans:
            if not t & e:
                nxt.extend(t | (1 << v) for v in bits)
        trans = minimalize(nxt)
    return tuple(sorted(tuple(v for v in range(r) if t >> v & 1) for t in trans))


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def linear_relations(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """The n linear forms of the ray relations, one per lattice coordinate.

    Form ``k`` is given by its coefficient tuple over the ray variables:
    coefficient of ``x_j`` is the k-th coordinate of ray ``j``.
    """
    n = fan.ambient_dim
    return tuple(tuple(v[k] for v in fan.rays) for k in range(n))


# Dense polynomials over the kept variables: exponent tuple -> coefficient.
# The Groebner input and basis are over Fraction; the substitution keeps
# its integral coefficients as int.
_Dense = Dict[Tuple[int, ...], int | Fraction]


def _poly_mul(a: _Dense, b: _Dense) -> _Dense:
    out: _Dense = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, _F0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


class ChowPresentation:
    """Quotient-ring data for one fan and one choice of elimination cone.

    Attributes:
        fan:            the underlying fan
        nonfaces:       minimal non-face index sets (Stanley-Reisner data)
        linear_forms:   coefficient tuples of the n linear relations
        elim_cone:      the maximal cone whose variables were eliminated
        kept:           the remaining ray indices, increasing
        substitution:   eliminated ray index -> degree-1 GradedClass over kept vars
        degree_bases:   per degree d = 0..n, the basis monomials (descending order)
        point_coeff:    coefficient of the top basis monomial in the reduced
                        squarefree monomial of the reference maximal cone
        point_mult:     multiplicity of the reference maximal cone

    The private ``_mul_tables`` holds, per ray, the multiplication tables
    that ``multiplication_tables`` documents: the kept variables' from the
    build, the eliminated variables' ``None`` until class assembly first
    asks for them.

    The degree map sends the top basis monomial to 1/(point_coeff * point_mult),
    which makes every maximal cone's orbit-closure class integrate to 1.
    """

    __slots__ = (
        "fan",
        "nonfaces",
        "linear_forms",
        "elim_cone",
        "kept",
        "substitution",
        "degree_bases",
        "point_coeff",
        "point_mult",
        "_kept_pos",
        "_subst_dense",
        "_mul_tables",
    )

    def __repr__(self) -> str:
        return (
            f"ChowPresentation(elim={self.elim_cone.ray_indices}, "
            f"kept={self.kept}, dims={tuple(len(b) for b in self.degree_bases)})"
        )


def build_presentation(fan: Fan, elim_cone: Cone | Iterable[int] | None = None) -> ChowPresentation:
    """Build the quotient presentation of the fan's rational Chow ring.

    ``elim_cone`` may name any maximal cone; by default the one with the
    lexicographically smallest ray-index tuple is used.  Raises
    ``ValidationError`` ("fan not complete") when the top graded piece is
    not one-dimensional.
    """
    n = fan.ambient_dim
    r = len(fan.rays)
    if elim_cone is None:
        elim = min(fan.max_cones, key=lambda c: c.ray_indices)
    else:
        elim = elim_cone if isinstance(elim_cone, Cone) else Cone(elim_cone)
        if elim not in fan.max_cones:
            raise ValidationError(
                f"elimination cone {elim.ray_indices} is not a maximal cone of the fan"
            )
        elim = fan.max_cones[fan.max_cones.index(elim)]

    p = ChowPresentation.__new__(ChowPresentation)
    p.fan = fan
    p.nonfaces = stanley_reisner_nonfaces(fan)
    p.linear_forms = linear_relations(fan)
    p.elim_cone = elim
    kept = tuple(j for j in range(r) if j not in set(elim.ray_indices))
    p.kept = kept
    p._kept_pos = {ray: i for i, ray in enumerate(kept)}

    # Solve the linear relations for the eliminated variables: the columns
    # of the elimination cone form an invertible matrix A, so the relations
    # A x_elim + B x_kept = 0 give x_elim = -A^-1 B x_kept.  The solve runs
    # in integers and returns d times that matrix, d = |det A|; an entry
    # that d divides is stored as an ``int`` (always, when the cone is
    # unimodular), so the eliminated variables' tables are built in int
    # arithmetic.  ``multiplicity`` rejects a degenerate elimination cone,
    # which only trusted input can bring, as a validation error first.
    multiplicity(fan, elim)
    elim_idx = elim.ray_indices
    nk = len(kept)
    rhs = IntegerMatrix(n, nk, tuple(-fan.rays[j][k] for k in range(n) for j in kept))
    d, x = fraction_free_solve(fan.ray_matrix(elim), rhs)
    if not d:
        raise InternalError("elimination system is singular; contradicts simpliciality")
    subst_dense: dict[int, _Dense] = {}
    for i, ray in enumerate(elim_idx):
        form: _Dense = {}
        for m in range(nk):
            c = x.at(i, m)
            if c:
                exp = tuple(1 if t == m else 0 for t in range(nk))
                form[exp] = c // d if c % d == 0 else Fraction(c, d)
        subst_dense[ray] = form
    p._subst_dense = subst_dense
    p.substitution = {
        ray: {_dense_to_sparse(m, kept): Fraction(c) for m, c in form.items()}
        for ray, form in subst_dense.items()
    }

    # Substituted Stanley-Reisner generators (homogeneous over kept vars).
    gens: list[tuple[int, _Dense]] = []
    zero_exp = (0,) * nk
    for s in p.nonfaces:
        poly: _Dense = {zero_exp: _F1}
        base = [0] * nk
        for j in s:
            if j in p._kept_pos:
                base[p._kept_pos[j]] += 1
            else:
                poly = _poly_mul(poly, subst_dense[j])
        if any(base):
            shift = tuple(base)
            poly = {tuple(x + y for x, y in zip(m, shift)): c for m, c in poly.items()}
        if poly:
            gens.append((len(s), poly))

    # Per-degree reduction data from a truncated Groebner basis of the
    # substituted generators: the basis monomials of each graded piece, in
    # descending graded-lex order, and each kept variable's multiplication
    # table between them.
    bases, kept_tables = _border_tables(_truncated_groebner(gens, n), nk, n)
    p.degree_bases = tuple(tuple(_dense_to_sparse(m, kept) for m in b) for b in bases)
    p._mul_tables = [None] * r
    for ray, table in zip(kept, kept_tables):
        p._mul_tables[ray] = table
    if len(p.degree_bases[n]) != 1:
        raise ValidationError(
            f"fan not complete: top graded piece has dimension {len(p.degree_bases[n])}"
        )

    # Degree-map calibration against the lexicographically smallest maximal
    # cone: its multiplicity times its squarefree monomial is a point class,
    # so it must integrate to 1.
    ref = min(fan.max_cones, key=lambda c: c.ray_indices)
    reduced = normal_form({squarefree_monomial(ref.ray_indices): _F1}, p)
    top = p.degree_bases[n][0]
    c0 = reduced.get(top, _F0)
    if c0 == 0:
        raise ValidationError("degenerate presentation: fan not complete or reduction bug")
    p.point_coeff = c0
    p.point_mult = multiplicity(fan, ref)
    _check_graded_dimensions(graded_dimensions(p), len(fan.max_cones))
    return p


def _leading_divisor(
    m: tuple[int, ...], groebner: list[tuple[tuple[int, ...], _Dense]]
) -> tuple[tuple[int, ...], _Dense] | None:
    """The first basis element whose leading monomial divides ``m``."""
    for lead, g in groebner:
        if all(map(ge, m, lead)):
            return lead, g
    return None


def _reduce(f: _Dense, groebner: list[tuple[tuple[int, ...], _Dense]]) -> _Dense:
    """Full reduction of a homogeneous polynomial by monic basis elements:
    the part of ``f`` left on monomials no leading monomial divides."""
    f = dict(f)
    out: _Dense = {}
    while f:
        m = max(f)
        c = f.pop(m)
        hit = _leading_divisor(m, groebner)
        if hit is None:
            out[m] = c
            continue
        lead, g = hit
        t = tuple(a - b for a, b in zip(m, lead))
        for u, cu in g.items():
            if u == lead:
                continue
            w = tuple(x + y for x, y in zip(t, u))
            s = f.get(w, _F0) - c * cu
            if s:
                f[w] = s
            else:
                f.pop(w, None)
    return out


def _truncated_groebner(
    gens: list[tuple[int, _Dense]], top: int
) -> list[tuple[tuple[int, ...], _Dense]]:
    """Groebner basis, up to degree ``top``, of the ideal of homogeneous
    generators, as (leading monomial, monic polynomial) pairs.

    Buchberger's algorithm degree by degree: the degree-d work is the
    generators of degree d plus the S-polynomials whose leading-term lcm
    has degree d.  Pairs with an lcm above ``top`` are never formed, and
    pairs with coprime leading monomials are dropped (their S-polynomial
    always reduces to zero).  Every new element is reduced by all earlier
    ones, so no leading monomial divides another.
    """
    basis: list[tuple[tuple[int, ...], _Dense]] = []
    pairs: dict[int, list[tuple[int, int]]] = {}
    for d in range(1, top + 1):
        work = [g for deg_g, g in gens if deg_g == d]
        for i, j in pairs.pop(d, ()):
            (li, gi), (lj, gj) = basis[i], basis[j]
            lcm = tuple(map(max, li, lj))
            spoly: _Dense = {}
            for lead, g, sign in ((li, gi, _F1), (lj, gj, -_F1)):
                t = tuple(a - b for a, b in zip(lcm, lead))
                for u, cu in g.items():
                    w = tuple(x + y for x, y in zip(t, u))
                    s = spoly.get(w, _F0) + sign * cu
                    if s:
                        spoly[w] = s
                    else:
                        spoly.pop(w, None)
            work.append(spoly)
        for f in work:
            h = _reduce(f, basis)
            if not h:
                continue
            lead = max(h)
            inv = _F1 / h[lead]
            new = len(basis)
            for i, (li, _) in enumerate(basis):
                if any(a and b for a, b in zip(li, lead)):
                    deg = sum(map(max, li, lead))
                    if deg <= top:
                        pairs.setdefault(deg, []).append((i, new))
            basis.append((lead, {m: c * inv for m, c in h.items()}))
    return basis


def _border_tables(
    groebner: list[tuple[tuple[int, ...], _Dense]], nvars: int, top: int
) -> tuple[list[list[tuple[int, ...]]], list[tuple]]:
    """Basis monomials of degrees 0..top and each kept variable's
    multiplication table between them.

    The basis monomials are the monomials no leading monomial divides, an
    order ideal, so degree d + 1 is grown from its border: the products
    ``b * x_p`` of a degree-d basis monomial ``b`` and a variable.  Only
    the border products that are not basis monomials need a normal form
    (Mourrain, AAECC-13, 1999).  Tables and bases are laid out as
    ``multiplication_tables`` documents, bases in descending graded-lex
    order.
    """
    bases = [[(0,) * nvars]]
    tables: list[list[tuple]] = [[] for _ in range(nvars)]
    for d in range(top):
        border = {b[:p] + (b[p] + 1,) + b[p + 1 :] for b in bases[d] for p in range(nvars)}
        hits = {w: _leading_divisor(w, groebner) for w in border}
        basis = sorted((w for w, hit in hits.items() if hit is None), reverse=True)
        index = {m: i for i, m in enumerate(basis)}
        nf = _normal_forms({w: hit for w, hit in hits.items() if hit}, index, groebner)
        for p, per_degree in enumerate(tables):
            rows = []
            for b in bases[d]:
                w = b[:p] + (b[p] + 1,) + b[p + 1 :]
                rows.append(((index[w], 1),) if w in index else nf[w])
            per_degree.append(tuple(rows))
        bases.append(basis)
    return bases, [tuple(t) for t in tables]


def _normal_forms(
    hits: dict[tuple[int, ...], tuple[tuple[int, ...], _Dense]],
    index: dict[tuple[int, ...], int],
    groebner: list[tuple[tuple[int, ...], _Dense]],
) -> dict[tuple[int, ...], tuple]:
    """Normal forms of the given non-basis monomials of one degree, as
    ``(index, coeff)`` rows over the basis monomials ``index``; ``hits``
    maps each of them to its ``_leading_divisor``, already found.

    A monomial ``t * lead(g)`` reduces to minus the sum of ``c * nf(t * u)``
    over the tail terms ``c * u`` of the monic ``g``.  Each such ``t * u`` is
    smaller, so the monomials reached are collected first and then reduced
    in ascending order, each from normal forms already known.  Integral
    coefficients are stored as ``int``.
    """
    tails: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]] = {}
    todo = list(hits)
    while todo:
        m = todo.pop()
        if m in tails or m in index:
            continue
        lead, g = hits[m] if m in hits else _leading_divisor(m, groebner)
        t = tuple(map(sub, m, lead))
        tails[m] = [(tuple(map(add, t, u)), cu) for u, cu in g.items() if u != lead]
        todo.extend(w for w, _ in tails[m])
    nf: dict[tuple[int, ...], tuple] = {}
    for m in sorted(tails):
        acc: dict[int, Fraction] = {}
        for w, cu in tails[m]:
            for i, q in ((index[w], 1),) if w in index else nf[w]:
                acc[i] = acc.get(i, _F0) - cu * q
        nf[m] = tuple((i, _int_if_integral(q)) for i, q in sorted(acc.items()) if q)
    return nf


def _check_graded_dimensions(dims: tuple[int, ...], num_max_cones: int) -> None:
    """Raise ``InternalError`` unless the graded dimensions are palindromic
    (Poincare duality) and sum to the number of maximal cones."""
    if dims != dims[::-1]:
        raise InternalError(f"graded dimensions {dims} are not palindromic")
    if sum(dims) != num_max_cones:
        raise InternalError(
            f"graded dimensions {dims} sum to {sum(dims)}, not to the "
            f"{num_max_cones} maximal cones"
        )


def _dense_to_sparse(m: tuple[int, ...], kept: tuple[int, ...]) -> Monomial:
    return tuple((kept[i], e) for i, e in enumerate(m) if e)


def normal_form(c: GradedClass, pres: ChowPresentation) -> GradedClass:
    """Canonical representative of a class over the basis monomials.

    Each monomial is walked through the multiplication tables: starting
    from 1, one table row per variable occurrence, so no product is ever
    expanded.  An eliminated variable is applied as its linear
    substitution, the same combination of kept-variable rows that
    ``multiplication_tables`` would store, which is never built here.

    Linear in the input and idempotent on classes already in basis form.
    """
    n = pres.fan.ambient_dim
    tables = pres._mul_tables
    out: list[dict[int, int | Fraction]] = [{} for _ in range(n + 1)]
    for mono, coeff in c.items():
        if coeff == 0:
            continue
        if monomial_degree(mono) > n:
            raise ValidationError("monomial degree exceeds the fan dimension")
        vec: dict[int, int | Fraction] = {0: 1}
        d = 0
        for ray, e in mono:
            if ray in pres._kept_pos:
                terms = [(tables[ray], 1)]
            elif ray in pres._subst_dense:
                form = pres._subst_dense[ray]
                terms = [(tables[pres.kept[exp.index(1)]], q) for exp, q in form.items()]
            else:
                raise ValidationError(f"monomial references unknown ray index {ray}")
            for _ in range(e):
                nxt: dict[int, int | Fraction] = {}
                for table, q in terms:
                    rows = table[d]
                    for b, v in vec.items():
                        qv = q * v
                        for i, w in rows[b]:
                            nxt[i] = nxt.get(i, 0) + qv * w
                vec = nxt
                d += 1
        acc = out[d]
        for i, v in vec.items():
            acc[i] = acc.get(i, 0) + coeff * v
    bases = pres.degree_bases
    return {bases[d][i]: Fraction(q) for d, acc in enumerate(out) for i, q in acc.items() if q}


def multiplication_tables(pres: ChowPresentation) -> list[tuple[tuple, ...]]:
    """Multiplication by each ray variable, as a map between graded pieces.

    ``tables[j][d][b]`` is the normal form of ``x_j`` times the basis
    monomial ``degree_bases[d][b]``, for every ray ``j`` and degree
    ``d < n``, as ``(index, coeff)`` pairs over ``degree_bases[d + 1]``.
    Integral coefficients are stored as ``int``, so that walks over
    integral tables stay in int arithmetic; mixed with ``Fraction`` they
    remain exact.

    The kept variables' tables are the presentation's reduction data,
    built with it.  An eliminated variable is its linear substitution, so
    its table is that combination of the kept variables' tables; those are
    built on first use and kept on the presentation, since only class
    assembly needs them.
    """
    n = pres.fan.ambient_dim
    tables = pres._mul_tables
    for ray, form in pres._subst_dense.items():
        if tables[ray] is not None:
            continue
        terms = [(tables[pres.kept[exp.index(1)]], c) for exp, c in form.items()]
        per_degree = []
        for d in range(n):
            rows = []
            for b in range(len(pres.degree_bases[d])):
                acc: dict[int, int | Fraction] = {}
                for table, c in terms:
                    for i, q in table[d][b]:
                        acc[i] = acc.get(i, 0) + c * q
                rows.append(tuple((i, _int_if_integral(q)) for i, q in sorted(acc.items()) if q))
            per_degree.append(tuple(rows))
        tables[ray] = tuple(per_degree)
    return tables


def _int_if_integral(q: int | Fraction) -> int | Fraction:
    return q.numerator if q.denominator == 1 else q


def graded_dimensions(pres: ChowPresentation) -> tuple[int, ...]:
    """Dimension of each graded piece of the quotient, degrees 0..n."""
    return tuple(len(b) for b in pres.degree_bases)


def degree(c: GradedClass, pres: ChowPresentation) -> Fraction:
    """Degree (integral) of the top-dimensional part of a class in normal
    form.

    Calibrated so that the reference maximal cone's point class has degree
    exactly 1; all other point classes then also integrate to 1.
    """
    top = pres.degree_bases[pres.fan.ambient_dim][0]
    q = c.get(top, _F0)
    return q / (pres.point_coeff * pres.point_mult)
