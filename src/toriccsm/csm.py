"""Assembly of the Chern-Schwartz-MacPherson class from orbit closures.

The class of a complete simplicial toric variety is the sum, over all
cones of its fan, of the orbit-closure classes; each of those is the
cone's multiplicity times the product of its ray variables (Aluffi,
*Classes de Chern des variétés singulières, revisitées*, C. R. Acad. Sci.
Paris 342, 2006).  Reducing that sum in the Chow presentation gives the
canonical class, and the degree of its top piece is the Euler
characteristic, which must equal the number of maximal cones; a mismatch
is an internal error.

The sum is never expanded.  Since x_S vanishes for every set S of rays
that spans no cone (the Stanley-Reisner relations), the sum of x_sigma
over all cones is the product of (1 + x_rho) over all rays, which on a
smooth fan is the whole class (Barthel-Brasselet-Fieseler, C. R. Acad.
Sci. Paris 315, 1992).  That product is r passes of the multiplication
tables over one graded vector.  A singular fan adds (mult(sigma) - 1) *
x_sigma for each cone of multiplicity other than 1.  Those cones, like the
maximal cones of the Euler-only path, are walked in lexicographic order of
their ray indices, which visits the face trie depth first: a cone sigma =
tau + {j} follows its prefix tau, and nf(x_sigma) = nf(x_j * nf(x_tau)) is
one sparse vector times the presentation's multiplication table of x_j.
A stack holds the normal forms along the current path, so memory is
O(n * h) for dimension n and graded dimensions up to h, not one normal
form per face.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .chow import (
    ChowPresentation,
    GradedClass,
    build_presentation,
    class_add,
    degree,
    multiplication_tables,
    normal_form,  # noqa: F401 -- not called here; perfbench/tracer.py wraps csm.normal_form
)
from .errors import InternalError, ValidationError
from .fan import Cone, Fan, enumerate_cones, is_smooth, multiplicity

__all__ = [
    "CsmResult",
    "csm_class",
    "csm_result",
    "euler_characteristic",
    "euler_by_cone_count",
]


@dataclass
class CsmResult:
    """Full result of a class computation.

    ``per_dim_contributions[d]`` is the reduced sum of the orbit-closure
    classes of the d-dimensional cones (d = 0 is the fundamental class, the
    constant 1); the total class is their sum.
    """

    csm_class: GradedClass
    euler: int
    per_dim_contributions: dict[int, GradedClass]


def euler_by_cone_count(fan: Fan) -> int:
    """Euler characteristic as the number of top-dimensional cones."""
    return len(fan.max_cones)


def _multiplicities(
    fan: Fan, cones: list[Cone], force_hnf: bool, threads: int
) -> list[int]:
    """mult(sigma) for each cone, in order, from one thread pool at most."""
    if not force_hnf and is_smooth(fan):
        return [1] * len(cones)
    if threads > 1 and len(cones) > 2 * threads:
        size = -(-len(cones) // threads)
        chunks = [cones[i : i + size] for i in range(0, len(cones), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(lambda ch: [multiplicity(fan, c) for c in ch], chunks)
        return [m for part in parts for m in part]
    return [multiplicity(fan, c) for c in cones]


# Graded accumulators: sums[d] maps an index into degree_bases[d] to its
# coefficient, an int while every table entry met so far was integral.
_Sums = list[dict[int, int | Fraction]]


def _ray_product(pres: ChowPresentation) -> _Sums:
    """prod_rho (1 + x_rho) over all rays, reduced, as graded accumulators.

    Each ray's pass replaces v by v + x_j * v, degree by degree from the
    top down, so every step still reads the degree-d part from before the
    pass.
    """
    n = pres.fan.ambient_dim
    v: _Sums = [{0: 1}] + [{} for _ in range(n)]
    for table in multiplication_tables(pres):
        for d in range(n - 1, -1, -1):
            rows, up = table[d], v[d + 1]
            for b, q in v[d].items():
                for i, e in rows[b]:
                    up[i] = up.get(i, 0) + q * e
    return v


def _orbit_sum(pres: ChowPresentation, cones: Iterable[tuple[Cone, int]], sums: _Sums) -> _Sums:
    """Add mult * nf(x_sigma) into ``sums[dim sigma]`` for each ``(sigma,
    mult)`` pair, and return ``sums``.

    The walk keeps a path stack: ``stack[t]`` is nf(x_{i_1} ... x_{i_t})
    for the first t rays i_1 < ... < i_t of the current cone, as a sparse
    vector over the degree-t basis.  Each cone truncates the stack to the
    prefix it shares with the previous cone, then extends it one ray at a
    time, nf(x_tau * x_j) = nf(x_j * nf(x_tau)), with one row lookup per
    term in the multiplication table of ``x_j``.  In lexicographic order
    every cone after the first shares all but its last ray with an earlier
    one, so most cones cost a single extension.  Any order gives the same
    sums.  Memory stays at the n + 1 vectors of the stack, O(n * h) for
    graded dimensions up to h, however many cones there are.
    """
    tables = multiplication_tables(pres)
    stack: _Sums = [{0: 1}]
    path: tuple[int, ...] = ()
    for cone, mult in cones:
        rays = cone.ray_indices
        shared = 0
        for a, b in zip(path, rays):
            if a != b:
                break
            shared += 1
        del stack[shared + 1 :]
        for t in range(shared, len(rays)):
            # in range: build_fan checks every maximal cone's ray indices
            table = tables[rays[t]][t]
            vec: dict[int, int | Fraction] = {}
            for b, q in stack[t].items():
                for i, e in table[b]:
                    vec[i] = vec.get(i, 0) + q * e
            stack.append(vec)
        path = rays
        acc = sums[len(rays)]
        for b, q in stack[-1].items():
            acc[b] = acc.get(b, 0) + mult * q
    return sums


def _graded_classes(pres: ChowPresentation, sums: _Sums) -> dict[int, GradedClass]:
    """Accumulators as classes over the basis monomials, coefficients as
    ``Fraction``, zeros dropped."""
    return {
        d: {pres.degree_bases[d][b]: Fraction(q) for b, q in acc.items() if q}
        for d, acc in enumerate(sums)
    }


def csm_result(
    fan: Fan,
    pres: ChowPresentation | None = None,
    *,
    force_hnf: bool = False,
    threads: int = 1,
) -> CsmResult:
    """Compute the full class, the Euler characteristic, and the per-dimension
    breakdown.

    The sum of mult(sigma) * x_sigma over all cones is computed as
    prod_rho (1 + x_rho) plus (mult(sigma) - 1) * x_sigma for each cone of
    multiplicity other than 1: the product is the sum of x_sigma over all
    cones, the empty one included, because x_S vanishes when S spans no
    cone (Aluffi 2006 for the sum, Barthel-Brasselet-Fieseler 1992 for the
    product).  Its degree-d part, plus the degree-d corrections, is
    ``per_dim_contributions[d]``.

    On a smooth fan every multiplicity is 1 (deciding smoothness reads the
    maximal cones' multiplicities, which validation caches as the |det| it
    takes), so the product is the class and the faces are never
    enumerated.  Otherwise, or with ``force_hnf``, every cone's
    multiplicity is computed: maximal cones from that cache (one
    determinant each on trusted input), lower-dimensional ones through
    ``column_lattice_index`` (``force_hnf`` is for benchmarking; the
    results are identical).  ``threads`` bounds the worker count for that
    batch; output is deterministic regardless.  The cones of multiplicity
    other than 1 then go through one walk of ``_orbit_sum`` in
    lexicographic order.
    """
    if pres is None:
        pres = build_presentation(fan)
    sums = _ray_product(pres)
    if force_hnf or not is_smooth(fan):
        table = enumerate_cones(fan)
        cones = [c for d in range(1, fan.ambient_dim + 1) for c in table[d]]
        mults = _multiplicities(fan, cones, force_hnf, threads)
        # Each table[d] is sorted already, so this merges n sorted runs.
        walk = sorted(
            ((c, m - 1) for c, m in zip(cones, mults) if m != 1),
            key=lambda cm: cm[0].ray_indices,
        )
        _orbit_sum(pres, walk, sums)
    per_dim = _graded_classes(pres, sums)
    total: GradedClass = {}
    for part in per_dim.values():
        total = class_add(total, part)
    chi = _integer_degree(total, pres)
    return CsmResult(csm_class=total, euler=chi, per_dim_contributions=per_dim)


def csm_class(
    fan: Fan,
    pres: ChowPresentation | None = None,
    *,
    force_hnf: bool = False,
    threads: int = 1,
) -> GradedClass:
    """The reduced class: 1 plus the sum over all cones of multiplicity
    times the cone's squarefree ray monomial."""
    return csm_result(fan, pres, force_hnf=force_hnf, threads=threads).csm_class


def euler_characteristic(
    fan: Fan,
    euler_only: bool = True,
    pres: ChowPresentation | None = None,
    *,
    force_hnf: bool = False,
    threads: int = 1,
) -> int:
    """Euler characteristic via the degree of the top part of the class.

    With ``euler_only`` set, only the maximal cones are processed (lower
    dimensions cannot contribute to the top graded piece); otherwise the
    full class is assembled first and its top part integrated.
    """
    if pres is None:
        pres = build_presentation(fan)
    if not euler_only:
        return csm_result(fan, pres, force_hnf=force_hnf, threads=threads).euler
    n = fan.ambient_dim
    cones = sorted(fan.max_cones, key=lambda c: c.ray_indices)
    mults = _multiplicities(fan, cones, force_hnf, threads)
    sums = _orbit_sum(pres, zip(cones, mults), [{} for _ in range(n + 1)])
    return _integer_degree(_graded_classes(pres, sums)[n], pres)


def _integer_degree(c: GradedClass, pres: ChowPresentation) -> int:
    chi = degree(c, pres)
    if chi.denominator != 1:
        raise ValidationError(f"inconsistent fan data: non-integer degree {chi}")
    if chi != len(pres.fan.max_cones):
        raise InternalError(
            f"Euler characteristic {chi} differs from the number of maximal cones "
            f"{len(pres.fan.max_cones)}"
        )
    return int(chi)
