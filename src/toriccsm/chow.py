"""Rational Chow ring presentation and exact graded normal-form reduction.

The ring of a complete simplicial fan with rays ``x_0..x_{r-1}`` is the
polynomial ring over Q modulo the squarefree monomial ideal of minimal
non-faces and the ``n`` linear relations coming from the ray coordinates.
The minimal non-faces are listed per join factor of the fan's complex,
which splits a product fan into its factors, as the minimal transversals
of the complements of the maximal cones projected onto the factor.  We
eliminate the ``n`` variables of one maximal cone (its ray matrix is
invertible), which leaves ``r - n`` variables and an ideal generated by
the substituted non-faces alone.  The linear relations are solved in integers
by a fraction-free solve.  One pass over the degrees in graded-lex order
(an earlier kept variable is more significant), truncated at degree
``n``, builds that ideal's reduced Groebner basis, the basis of each
graded piece and the kept variables' multiplication tables together: in
each degree one memoized reduction by the lower-degree basis serves the
echelon form of the generators and S-polynomials, whose pivots are the
new leading terms, and the normal forms of the border monomials, the
tables.  Most generators are monomials, the non-faces that avoid the
eliminated cone: such a generator is a pivot as it stands, a multiple of
one reduces to zero at once, two monomial elements are never paired, and
the leading terms are looked up by variable, not scanned.  The monomials
no leading term divides are the graded pieces' basis, an order ideal
grown degree by degree from its border.  Every ray
is a form sum_m c_m x_m / d over the kept variables, a kept x_m the form
d * x_m / d: a one-term form c * x_m gets x_m's table times c, one
object shared by every ray of that form, and a longer form the
combination.  All are built with the presentation, its only reduction
data, and one walk reads them, ``orbit_classes``: it serves
``normal_form`` and so the degree calibration, and the Euler
characteristic and the c_SM class.

Every table is integral, the fraction-free principle of Bareiss (*Math.
Comp.* 22, 1968): each degree e < n has one positive integer scale s_e,
which clears the substitution's common denominator and the denominators
of the kept tables' degree-e rows, and every ray's degree-e table is
stored times s_e.  A walk through t tables from the constant 1 stays in
int arithmetic, and each output coefficient is divided once, by s_0 ...
s_{t-1}.  On a unimodular elimination cone with an integral Groebner
basis every scale is 1, and the tables take no extra pass.

Inside the presentation a monomial over the kept variables is one packed
int (Bachmann-Schoenemann, ISSAC 1998).  Every monomial there has degree
at most ``n``, so every exponent is at most ``n``, and each kept variable
gets a field of ``w = n.bit_length() + 1`` bits: ``w - 1`` value bits
hold any exponent up to ``n``, and the top bit is a guard, always 0.
The first kept variable's field is the most significant, and the degree
sits above all of them.  Comparing two packed ints therefore compares
degrees first and then the exponents variable by variable, which is the
graded-lex order.  A product is ``a + b``; no field overflows, since the
exponents of a product of degree at most ``n`` are at most ``n``.  For
the mask ``G`` of the guard bits, ``lead`` divides ``m`` iff ``((m | G)
- lead) & G == G``, since a field borrows from its guard bit exactly when
``lead``'s exponent is the larger; the cofactor is then ``m - lead``.
The variables of a monomial's support are read off its nonzero fields.
Only the Groebner leads are unpacked, for the lcm and the coprime test,
and the basis monomials, where they become public monomials.  An
exponent above ``n`` is an ``InternalError``.

Classes are sparse:

  Monomial    = tuple of (ray_index, exponent) pairs, sorted, exponents > 0
  GradedClass = dict mapping Monomial -> Fraction, no zero coefficients

The empty tuple is the constant monomial 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm, prod
from operator import index, itemgetter, mul
from typing import Dict, Iterable, Tuple

from .errors import InternalError, ValidationError
from .exact_linalg import (
    fraction_free_solve_rows,
    rational_rref,  # noqa: F401 -- not called here; perfbench/tracer.py wraps chow.rational_rref
)
from .fan import Cone, Fan, multiplicity

__all__ = [
    "Monomial",
    "GradedClass",
    "ChowPresentation",
    "squarefree_monomial",
    "monomial_degree",
    "stanley_reisner_nonfaces",
    "linear_relations",
    "build_presentation",
    "normal_form",
    "orbit_classes",
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


def stanley_reisner_nonfaces(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal sets of ray indices spanning no cone of the fan,
    sorted.

    The fan's complex is first split into join factors: when it is the
    join Delta_1 * ... * Delta_k on a partition of the rays, its minimal
    non-faces are the union of the factors' (Stanley, *Combinatorics and
    Commutative Algebra*, 2nd ed., ch. II), and a product fan's complex is
    the join of its factors'.  Within one factor, a set is a non-face
    exactly when it meets the complement of every projected maximal cone,
    so the minimal non-faces are the minimal transversals of that
    complement hypergraph, computed by sequential transversal updates over
    bitmasks.
    """
    out = []
    for block, projections in _join_factors(fan):
        trans = [0]
        for e in sorted(block ^ p for p in projections):
            # A transversal that meets e stays minimal: a new t | b inside
            # it would make t, a transversal of the earlier edges, a proper
            # subset of it.  So only the new candidates are filtered,
            # smallest first.  A candidate t | b meets e in b alone, so
            # only a kept transversal that meets e in b alone can lie in
            # it: ``hits[b]`` lists those.
            nxt, hits, new = [], {}, set()
            bits = _bits(e)
            for t in trans:
                hit = t & e
                if hit:
                    nxt.append(t)
                    if not hit & (hit - 1):
                        hits.setdefault(hit, []).append(t)
                else:
                    new.update(t | b for b in bits)
            for m in sorted(new, key=lambda m: (m.bit_count(), m)):
                rivals = hits.setdefault(m & e, [])
                if not any(k & m == k for k in rivals):
                    rivals.append(m)
                    nxt.append(m)
            trans = nxt
        out += (tuple(b.bit_length() - 1 for b in _bits(t)) for t in trans)
    return tuple(sorted(out))


def _join_factors(fan: Fan) -> list[tuple[int, set[int]]]:
    """The join factors of the fan's complex, as (ray bitmask, the distinct
    projections of the maximal cones' ray bitmasks onto it) pairs.

    In a join, the maximal cones that hold a ray u of one factor and those
    that hold a ray v of another are independent: with m maximal cones,
    c(u), c(v) and c(uv) counting those that hold u, v and both, c(uv) * m
    = c(u) * c(v).  So every pair that breaks this equation lies in one
    factor, and the blocks that such pairs link are the candidates.  They
    are the factors exactly when the numbers of distinct projections of
    the maximal cones onto them multiply to m, i.e. when the maximal cones
    are every union of one projection per block; otherwise all the rays
    form one factor.
    """
    r, m = len(fan.rays), len(fan.max_cones)
    inc, cones = [0] * r, []  # inc[j]: bitmask of the maximal cones holding ray j
    for i, c in enumerate(fan.max_cones):
        bit, mask = 1 << i, 0
        for j in c.ray_indices:
            inc[j] |= bit
            mask |= 1 << j
        cones.append(mask)
    count = [x.bit_count() for x in inc]
    blocks, rest = [], set(range(r))
    while rest:
        todo, block = [rest.pop()], 0
        while todo:
            u = todo.pop()
            block |= 1 << u
            linked = [v for v in rest if (inc[u] & inc[v]).bit_count() * m != count[u] * count[v]]
            rest.difference_update(linked)
            todo += linked
        blocks.append(block)
    factors = [(b, {c & b for c in cones}) for b in blocks]
    if prod(len(projections) for _, projections in factors) != m:
        return [((1 << r) - 1, set(cones))]
    return factors


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, each as a power of two, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


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


class _Packing:
    """Packed monomials over ``nvars`` kept variables, exponents at most
    ``top``: the layout the module docstring describes.

    ``guards`` is the mask of the variable fields' guard bits, and
    ``variables[p]`` the packed variable ``x_p``.
    """

    __slots__ = ("nvars", "top", "width", "shifts", "guards", "variables")

    def __init__(self, nvars: int, top: int):
        w = top.bit_length() + 1
        self.nvars = nvars
        self.top = top
        self.width = w
        self.shifts = tuple(w * (nvars - 1 - p) for p in range(nvars))
        self.guards = sum(1 << s + w - 1 for s in self.shifts)
        self.variables = tuple(1 << w * nvars | 1 << s for s in self.shifts)

    def pack(self, exps: Iterable[int]) -> int:
        """The packed monomial of an exponent tuple, one entry per kept
        variable; ``InternalError`` on an exponent outside ``0..top``."""
        w, top = self.width, self.top
        m = deg = 0
        for e in exps:
            if not 0 <= e <= top:
                raise InternalError(f"exponent {e} outside 0..{top} cannot be packed")
            m = m << w | e
            deg += e
        return deg << w * self.nvars | m

    def support(self, m: int) -> list[int]:
        """The kept variables that divide a packed monomial, first to last."""
        w, last = self.width, self.nvars - 1
        m &= (1 << w * self.nvars) - 1
        out = []
        while m:
            i = (m.bit_length() - 1) // w
            out.append(last - i)
            m &= (1 << w * i) - 1
        return out

    def unpack(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial; ``InternalError`` on an
        exponent above ``top``."""
        field = (1 << self.width) - 1
        exps = tuple(m >> s & field for s in self.shifts)
        if max(exps, default=0) > self.top:
            raise InternalError(f"packed monomial {m:#x} has an exponent above {self.top}")
        return exps


# Polynomials over the kept variables: packed monomial -> coefficient.  The
# substitution, the Groebner input and the basis are over Fraction.
_Poly = Dict[int, Fraction]
# A Groebner basis: (leading monomial, monic polynomial) pairs.
_Basis = list[tuple[int, _Poly]]


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
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

    The private ``_mul_tables`` holds the pair that
    ``multiplication_tables`` documents: per ray, its multiplication table
    in integers, and per degree, the scale those integers carry, built with
    the presentation.  Rays of equal one-term forms c * x_m share one
    table; only multi-term substitutions are combined.

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
    ``InternalError`` when the top graded piece is not one-dimensional,
    which no ``Fan`` (validated as complete and simplicial when it is
    constructed) can bring.
    """
    n = fan.ambient_dim
    r = len(fan.rays)
    ref = min(fan.max_cones, key=lambda c: c.ray_indices)
    if elim_cone is None:
        elim = ref
    else:
        elim = elim_cone if isinstance(elim_cone, Cone) else Cone(elim_cone)
        try:
            elim = fan.max_cones[fan.max_cones.index(elim)]
        except ValueError:
            raise ValidationError(
                f"elimination cone {elim.ray_indices} is not a maximal cone of the fan"
            ) from None

    p = ChowPresentation.__new__(ChowPresentation)
    p.fan = fan
    p.nonfaces = stanley_reisner_nonfaces(fan)
    p.linear_forms = linear_relations(fan)
    p.elim_cone = elim
    eliminated = set(elim.ray_indices)
    kept = tuple(j for j in range(r) if j not in eliminated)
    p.kept = kept
    kept_pos = {ray: i for i, ray in enumerate(kept)}

    # Solve the linear relations for the eliminated variables: the columns
    # of the elimination cone form an invertible matrix A, so the relations
    # A x_elim + B x_kept = 0 give x_elim = -A^-1 B x_kept.  The solve runs
    # in integers on the rows of [A | -B] and returns d = det A and |d| times
    # that matrix; dividing out the content of |d| and its entries leaves the
    # integer matrix x that the eliminated variables' tables are built from.
    elim_idx = elim.ray_indices
    nk = len(kept)
    system = [
        [fan.rays[j][k] for j in elim_idx] + [-fan.rays[j][k] for j in kept] for k in range(n)
    ]
    d, x = fraction_free_solve_rows(system)
    if not d:
        raise InternalError("elimination system is singular; contradicts simpliciality")
    g = gcd(d, *(c for row in x for c in row))
    d, x = abs(d) // g, [[c // g for c in row] for row in x]
    # Every ray is a form sum_m c_m x_m / d over the kept variables, as
    # (m, c_m) pairs: row i of x for an eliminated ray, c_m = d alone for
    # a kept x_m.
    forms = {ray: [(m, d)] for m, ray in enumerate(kept)}
    forms.update((ray, [(m, c) for m, c in enumerate(row) if c]) for ray, row in zip(elim_idx, x))
    p.substitution = {ray: {((kept[m], 1),): Fraction(c, d) for m, c in forms[ray]} for ray in elim_idx}
    packing = _Packing(nk, n)
    variables = packing.variables

    # Substituted Stanley-Reisner generators (homogeneous over kept vars),
    # an eliminated ray taken as its row of x, d times its substitution: a
    # constant factor changes neither the ideal nor its monic Groebner
    # basis.  One of degree above n never enters the truncated basis.
    gens: list[tuple[int, _Poly]] = []
    for s in p.nonfaces:
        if len(s) > n:
            continue
        poly: _Poly = {0: _F1}
        base = 0
        for j in s:
            if j in kept_pos:
                base += variables[kept_pos[j]]
            else:
                poly = _poly_mul(poly, {variables[m]: c for m, c in forms[j]})
        if base:
            poly = {m + base: c for m, c in poly.items()}
        if poly:
            gens.append((len(s), poly))

    # One pass over the degrees gives the truncated Groebner basis of the
    # substituted generators, the basis monomials of each graded piece, in
    # descending graded-lex order, and each kept variable's multiplication
    # table between them.
    groebner, bases, kept_tables = _groebner_tables(gens, packing)
    p.degree_bases = tuple(tuple(_sparse(packing.unpack(m), kept) for m in b) for b in bases)
    if len(p.degree_bases[n]) != 1:
        raise InternalError(
            f"fan not complete: top graded piece has dimension {len(p.degree_bases[n])}"
        )

    # Every ray's degree-e table is stored times the scale s_e = d * L_e,
    # L_e the lcm of the denominators in the kept tables' degree-e rows, so
    # every entry is an int.  A Groebner basis with integral coefficients
    # gives integral rows, L_e = 1, with no pass over them.
    lcms = [1] * n
    if any(c.denominator != 1 for _, f in groebner for c in f.values()):
        lcms = [
            lcm(*(q.denominator for t in kept_tables for row in t[e] for _, q in row))
            for e in range(n)
        ]
        kept_tables = [tuple(map(_scaled, t, lcms)) for t in kept_tables]
    # A ray's table is sum_m c_m times kept table m, L_e-scaled in degree
    # e.  A one-term form c * x_m takes that table times c, built once per
    # (m, c) and shared by every ray of that form; only a longer form sums
    # rows, ``columns[e][b]`` listing row b of each kept table.
    tables, columns, one_term = [None] * r, None, {}
    for ray, coeffs in forms.items():
        if len(coeffs) == 1:
            (m, c), = coeffs
            if (m, c) not in one_term:
                one_term[m, c] = tuple(_scaled(rows, c) for rows in kept_tables[m])
            tables[ray] = one_term[m, c]
        else:
            columns = columns or [tuple(zip(*(table[e] for table in kept_tables))) for e in range(n)]
            tables[ray] = tuple(
                tuple(_row(_add_rows({}, coeffs, column)) for column in columns[e])
                for e in range(n)
            )
    p._mul_tables = tables, tuple(d * s for s in lcms)

    # Degree-map calibration against the lexicographically smallest maximal
    # cone: its multiplicity times its squarefree monomial is a point class,
    # so it must integrate to 1.
    reduced = normal_form({squarefree_monomial(ref.ray_indices): 1}, p)
    top = p.degree_bases[n][0]
    c0 = reduced.get(top, _F0)
    if c0 == 0:
        raise InternalError("degenerate presentation: fan not complete or reduction bug")
    p.point_coeff = c0
    p.point_mult = multiplicity(fan, ref)
    _check_graded_dimensions(graded_dimensions(p), len(fan.max_cones))
    return p


def _leading_divisor(m: int, groebner: Iterable[tuple[int, _Poly]], guards: int) -> tuple[int, _Poly] | None:
    """The first of the basis elements ``groebner`` whose leading monomial
    divides ``m``, or None.

    With every guard bit of ``m`` set, subtracting ``lead`` borrows from a
    field's guard bit exactly when that exponent of ``lead`` is the larger.
    """
    mg = m | guards
    for lead, g in groebner:
        if (mg - lead) & guards == guards:
            return lead, g
    return None


def _groebner_tables(
    gens: list[tuple[int, _Poly]], packing: _Packing
) -> tuple[_Basis, list[list[int]], list[tuple]]:
    """Groebner basis, up to degree ``packing.top``, of the ideal of
    homogeneous generators; the basis monomials of degrees 0..top; and each
    kept variable's multiplication table between them.

    One pass over the degrees, each reducing every monomial it meets once,
    in the manner of Faugere's F4 (JPAA 139, 1999) and of border bases
    (Mourrain, AAECC-13, 1999).  A basis element is a *monomial* one when
    its leading monomial, its *lead*, is its only term, and *tailed*
    otherwise.  In degree d:

    1. Each degree-d monomial met is reduced, memoized, by the basis
       elements of degree < d.  A multiple of a monomial lead is zero.
       Otherwise ``t * lead(g)`` of a tailed ``g`` becomes minus the sum of
       ``c * red(t * u)`` over the tail terms ``c * u`` of the monic ``g``,
       each ``t * u`` smaller.  A monomial no such lead divides stays.
    2. A monomial generator that step 1 leaves alone is a new basis element
       as it is: a pivot with an empty row, which no other row holds once
       reduced, so it is never back-substituted.  The other degree-d
       generators and the S-polynomials whose leading-term lcm has degree
       d, so reduced, are brought to reduced echelon form, the largest
       monomial first.  The rows are the new monic basis elements, the
       pivots their leads.
    3. The degree-d basis monomials are the border products ``b * x_p`` of
       a degree-(d - 1) basis monomial and a variable that step 1 leaves
       alone and that are not pivots: the monomials no lead divides, an
       order ideal.
    4. Each border product's table row is its reduction, with every pivot
       replaced by minus its row's tail; a multiple of a monomial lead has
       the empty row at once.

    Pairs: a new lead is paired with every earlier tailed element, and a
    new tailed lead with every earlier monomial element too.  Two monomial
    elements are never paired, since their S-polynomial is zero, nor are
    leads with coprime leading monomials or an lcm above the top degree
    (Buchberger's criteria: Cox-Little-O'Shea, *Ideals, Varieties, and
    Algorithms*, 2.9).  A new lead is divisible by no earlier lead, so its
    lcm with one that shares a variable has a higher degree: the leads of
    the top degree are paired with nothing.

    The divisor lookup scans no list of every lead.  Each lead is filed,
    in a monomial and a tailed list, under every variable it holds and
    under its first variable.  A lead dividing a border product ``b * x_p``
    of a basis monomial ``b`` holds ``x_p``, so only the leads filed under
    ``x_p`` are tried.  A lead dividing any other monomial has its first
    variable in that monomial's support, so the leads filed under those
    variables are tried.  Monomial leads go first, so a monomial multiple
    of one is found zero.

    The basis is reduced and monic, over ``Fraction``, as (leading
    monomial, polynomial) pairs in increasing degree, in increasing order
    within a degree; only the leading monomials are unpacked, for the lcm
    and the coprime test.  Tables and bases are laid out as
    ``multiplication_tables`` documents, bases (packed) in descending
    graded-lex order.
    """
    top, guards, variables = packing.top, packing.guards, packing.variables
    basis: _Basis = []
    leads: list[tuple[tuple[int, ...], int]] = []  # exponents, support bitmask
    tailed: list[int] = []  # indices of the tailed basis elements
    # The lead index: per variable, a (monomial, tailed) pair of lists of
    # basis elements, filed under every variable they hold (held) and under
    # their first (first).
    held = [([], []) for _ in variables]
    first = [([], []) for _ in variables]
    pairs: dict[int, list[tuple[int, int, int]]] = {}
    bases: list[list[int]] = [[0]]
    tables: list[list[tuple]] = [[] for _ in variables]
    for d in range(1, top + 1):
        # Step 1: red[m] is m's reduction, as (monomial, coeff) pairs, empty
        # for a multiple of a monomial lead; tails[m] the terms a lower
        # tailed lead dividing m becomes.
        red: dict[int, Iterable[tuple[int, Fraction]]] = {}
        tails: dict[int, list[tuple[int, Fraction]]] = {}
        todo: list[tuple[int, Fraction]] = []

        def enter(m: int, hit: tuple[int, _Poly] | None) -> None:
            if hit is None:
                red[m] = ((m, 1),)
            elif len(hit[1]) == 1:
                red[m] = ()
            else:
                lead, g = hit
                red[m] = tails[m] = [(m - lead + u, c) for u, c in g.items() if u != lead]
                todo.extend(tails[m])

        def divisor(m: int) -> tuple[int, _Poly] | None:
            support = packing.support(m)
            monomial = (first[p][0] for p in support)
            with_tail = (first[p][1] for p in support)
            return _leading_divisor(m, chain(*monomial, *with_tail), guards)

        # Step 2's monomial pivots are zero in every reduction from here on.
        pivots, work = [], []
        for deg_g, g in gens:
            if deg_g != d:
                continue
            if len(g) == 1:
                (m,) = g
                if m in red:  # two non-faces can substitute to one monomial
                    continue
                hit = divisor(m)
                if hit is None:
                    pivots.append(m)
                    red[m] = ()
                    continue
                enter(m, hit)
            work.append(list(g.items()))
        for i, j, lcm in pairs.pop(d, ()):
            (li, gi), (lj, gj) = basis[i], basis[j]
            work.append(
                [(lcm - li + u, c) for u, c in gi.items() if u != li]
                + [(lcm - lj + u, -c) for u, c in gj.items() if u != lj]
            )
        border = {b + v: p for b in bases[-1] for p, v in enumerate(variables)}
        for w, p in border.items():
            if w not in red:
                monomial, with_tail = held[p]
                enter(w, _leading_divisor(w, monomial, guards) or _leading_divisor(w, with_tail, guards))
        for f in work:
            todo += f
        while todo:
            m, _ = todo.pop()
            if m not in red:
                enter(m, divisor(m))
        for m in sorted(tails):
            red[m] = _add_rows({}, tails[m], red, -1).items()
        # Step 2: rows[p] is the tail of the monic row with pivot p; it
        # holds no pivot.
        rows: dict[int, dict[int, Fraction]] = {}
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
            inv = _F1 / v.pop(lead)
            tail = {w: c * inv for w, c in v.items()}
            for row in rows.values():
                c = row.pop(lead, 0)
                if c:
                    for w, e in tail.items():
                        row[w] = row.get(w, 0) - c * e
                        if not row[w]:
                            del row[w]
            rows[lead] = tail
        # Steps 3 and 4: value[w] is the table row of a degree-d monomial
        # that step 1 leaves alone and that is no monomial pivot.
        basis_d = sorted((w for w in border if w not in tails and w not in rows and red[w]), reverse=True)
        value = {w: ((i, 1),) for i, w in enumerate(basis_d)}
        for p, row in rows.items():
            value[p] = _row({value[w][0][0]: -c for w, c in row.items()})
        nf = {w: _row(_add_rows({}, red[w], value)) if w in tails else value.get(w, ()) for w in border}
        for v, per_degree in zip(variables, tables):
            per_degree.append(tuple(nf[b + v] for b in bases[-1]))
        bases.append(basis_d)
        for lead, row in sorted([*((m, {}) for m in pivots), *rows.items()]):
            exps = packing.unpack(lead)
            support = [p for p, e in enumerate(exps) if e]
            mask = _mask(support)
            new = len(basis)
            # no earlier lead divides a new one, so in the top degree every
            # lcm with a lead that shares a variable lies above top
            if d < top:
                for i in range(new) if row else tailed:
                    ei, si = leads[i]
                    if si & mask:
                        lcm = tuple(map(max, ei, exps))
                        deg = sum(lcm)
                        if deg <= top:
                            pairs.setdefault(deg, []).append((i, new, packing.pack(lcm)))
            element = (lead, {lead: _F1, **row})
            basis.append(element)
            leads.append((exps, mask))
            if row:
                tailed.append(new)
            for p in support:
                held[p][bool(row)].append(element)
            first[support[0]][bool(row)].append(element)
    return basis, bases, [tuple(t) for t in tables]


def _add_rows(acc: dict, vec: Iterable[tuple], rows, scale: int | Fraction = 1) -> dict:
    """Add ``scale`` times the sparse vector ``vec``, as ``(key, coeff)``
    pairs, times ``rows`` into ``acc``, and return ``acc``.

    ``rows[key]`` is a row of ``(index, coeff)`` pairs, the image of the
    key's basis vector, so this is the vector-times-table step that every
    normal form, table build and class walk takes.  New entries start from
    ``int`` 0, so integral rows keep integral sums in int arithmetic.
    """
    for b, q in vec:
        q *= scale
        for i, e in rows[b]:
            acc[i] = acc.get(i, 0) + q * e
    return acc


def _row(acc: dict) -> tuple:
    """An accumulator as a table row: sorted, zeros dropped, integral
    coefficients as ``int``."""
    return tuple((i, q.numerator if q.denominator == 1 else q) for i, q in sorted(acc.items()) if q)


def _scaled(rows: tuple, s: int) -> tuple:
    """Table rows with every coefficient times ``s``, which makes each an
    ``int``; the same rows when ``s`` is 1."""
    if s == 1:
        return rows
    return tuple(tuple((i, (q * s).numerator) for i, q in row) for row in rows)


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


def _sparse(exps: tuple[int, ...], kept: tuple[int, ...]) -> Monomial:
    """The public monomial of an exponent tuple over the kept variables."""
    return tuple((kept[i], e) for i, e in enumerate(exps) if e)


def normal_form(c: GradedClass, pres: ChowPresentation) -> GradedClass:
    """Canonical representative of a class over the basis monomials.

    The monomials, x_i^e written as i repeated e times, go through one
    ``orbit_classes`` walk in sorted order.  Linear in the input and
    idempotent on classes already in basis form.  Raises
    ``ValidationError`` on a coefficient that is not an ``int`` or a
    ``Fraction`` (a float is never converted), a monomial with a ray index
    or exponent that is not an integer, an exponent below 1, degree above
    ``n``, or a ray index outside ``0..r-1``.
    """
    n = pres.fan.ambient_dim
    r = len(pres.fan.rays)
    terms = []
    for mono, coeff in c.items():
        if not isinstance(coeff, (int, Fraction)):
            raise ValidationError(f"monomial {mono} has coefficient {coeff!r}, not an int or a Fraction")
        if coeff == 0:
            continue
        try:
            mono = tuple((index(ray), index(e)) for ray, e in mono)
        except TypeError:
            raise ValidationError(f"monomial {mono} has a non-integer ray index or exponent") from None
        if any(e < 1 for _, e in mono):
            raise ValidationError("monomial has an exponent below 1")
        if monomial_degree(mono) > n:
            raise ValidationError("monomial degree exceeds the fan dimension")
        for ray, _ in mono:
            if not 0 <= ray < r:
                raise ValidationError(f"monomial references unknown ray index {ray}")
        terms.append((tuple(sorted(ray for ray, e in mono for _ in range(e))), coeff))
    terms.sort(key=itemgetter(0))
    return {m: q for part in orbit_classes(pres, terms).values() for m, q in part.items()}


def orbit_classes(
    pres: ChowPresentation,
    terms: Iterable[tuple[tuple[int, ...], int | Fraction]],
    *,
    ray_product: bool = False,
) -> dict[int, GradedClass]:
    """The sum of coeff * x_{i_1} ... x_{i_t} over the ``(ray indices,
    coeff)`` terms, plus prod_rho (1 + x_rho) over all rays when
    ``ray_product`` is set, reduced, as one class per degree 0..n.

    Each term's ray indices are nondecreasing, x_i^e written as i repeated
    e times, and a term of t indices adds to degree t.  The walk keeps a
    path stack: ``stack[t]`` is the scaled normal form of the product of
    the term's first t variables, a sparse vector over the degree-t basis.
    Each term truncates the stack to the prefix it shares with the
    previous term, then extends it one variable at a time with one row
    lookup per entry in that variable's degree-t table.  In lexicographic
    order most terms cost a single extension; any order gives the same
    sums, and memory stays at the n + 1 vectors of the stack.  The ray
    product is r passes over one graded vector: each ray's pass replaces
    v by v + x_j * v, degree by degree from the top down, so every step
    still reads the degree-d part from before the pass.

    Every walk stays in the tables' scaled integers; ``_graded_classes``
    divides once, as ``multiplication_tables`` documents.  Ray indices
    are not checked.
    """
    n = pres.fan.ambient_dim
    tables = pres._mul_tables[0]
    sums: list[dict] = [{} for _ in range(n + 1)]
    if ray_product:
        sums[0][0] = 1
        for table in tables:
            for d in range(n - 1, -1, -1):
                _add_rows(sums[d + 1], sums[d].items(), table[d])
    stack: list[dict] = [{0: 1}]
    path: tuple[int, ...] = ()
    for rays, coeff in terms:
        shared = 0
        for a, b in zip(path, rays):
            if a != b:
                break
            shared += 1
        del stack[shared + 1 :]
        for t in range(shared, len(rays)):
            stack.append(_add_rows({}, stack[t].items(), tables[rays[t]][t]))
        path = rays
        acc = sums[len(rays)]
        for b, q in stack[-1].items():
            acc[b] = acc.get(b, 0) + coeff * q
    return _graded_classes(pres, sums)


def _graded_classes(pres: ChowPresentation, sums: list[dict]) -> dict[int, GradedClass]:
    """Scaled graded accumulators as classes over the basis monomials:
    ``sums[t]`` maps an index into ``degree_bases[t]`` to S_t times its
    coefficient, S_t = s_0 ... s_{t-1} for the table scales s_e.  Each
    coefficient is divided once, as a ``Fraction``; zeros are dropped."""
    bases = pres.degree_bases
    divisors = accumulate(pres._mul_tables[1], mul, initial=1)
    return {
        t: {bases[t][b]: Fraction(q) if s == 1 else Fraction(q, s) for b, q in acc.items() if q}
        for (t, acc), s in zip(enumerate(sums), divisors)
    }


def multiplication_tables(pres: ChowPresentation) -> tuple[list[tuple[tuple, ...]], tuple[int, ...]]:
    """Multiplication by each ray variable, as a map between graded pieces,
    and the per-degree scales its integer entries carry.

    Returns ``(tables, scales)``.  ``tables[j][d][b]`` is ``scales[d]``
    times the normal form of ``x_j`` times the basis monomial
    ``degree_bases[d][b]``, for every ray ``j`` and degree ``d < n``, as
    ``(index, coeff)`` pairs over ``degree_bases[d + 1]``.  Every scale is
    a positive int and every coefficient an ``int``, so a walk from the
    constant 1 through t tables stays in int arithmetic and ends at S_t =
    scales[0] * ... * scales[t - 1] times the true coefficients, which it
    divides by once.  On a unimodular elimination cone with an integral
    Groebner basis every scale is 1.

    All of them are built with the presentation: the kept variables' as
    its reduction data.  A ray of the one-term form c * x_m / d (a kept
    x_m has c = d) gets kept table m's rows times c, and rays of equal
    forms share that one object, so ``tables[j] is tables[k]`` may hold; a
    multi-term form gets the sum.  ``orbit_classes`` is the walk that
    reads them.
    """
    return pres._mul_tables


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
