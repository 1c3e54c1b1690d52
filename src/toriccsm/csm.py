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
x_sigma for each cone of multiplicity other than 1.  Such a cone lies in
no unimodular maximal cone, so only the cones that ``enumerate_cones``
lists with ``skip_unimodular`` take a lattice index.  The cones of the
correction, like the maximal cones in ``euler_characteristic``, are
walked in lexicographic order of their ray indices, which visits the
face trie depth first: a cone sigma = tau + {j} follows its prefix tau,
and nf(x_sigma) = nf(x_j * nf(x_tau)) is one sparse vector times the
presentation's multiplication table of x_j.  A stack holds the normal forms along the current path, so memory is
O(n * h) for dimension n and graded dimensions up to h, not one normal
form per face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .chow import (
    ChowPresentation,
    GradedClass,
    _add_rows,
    _graded_classes,
    build_presentation,
    degree,
    multiplication_tables,
    normal_form,  # noqa: F401 -- not called here; perfbench/tracer.py wraps csm.normal_form
)
from .errors import InternalError, ValidationError
from .fan import Cone, Fan, is_smooth, multiplicity

__all__ = [
    "CsmResult",
    "csm_result",
    "enumerate_cones",
    "euler_characteristic",
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


def enumerate_cones(fan: Fan, *, skip_unimodular: bool = False) -> list[Cone]:
    """The cones of dimension 1..n, one list sorted by ray indices: the
    subsets of the maximal cones, since the fan is simplicial.

    Maximal cones are the fan's own objects, with validation's cached
    multiplicities; the others are fresh ``Cone`` objects.
    ``skip_unimodular`` leaves out every face of a unimodular maximal cone,
    itself included: its rays are part of a lattice basis, so its
    multiplicity is 1 (Fulton, *Introduction to Toric Varieties*, 2.1).
    """
    maximal: dict[tuple[int, ...], Cone] = {}
    # the proper faces of the listed maximal cones, and of the skipped ones
    faces: set[tuple[int, ...]] = set()
    skipped: set[tuple[int, ...]] = set()
    for c in fan.max_cones:
        unimodular = skip_unimodular and c._mult == 1
        if not unimodular:
            maximal[c.ray_indices] = c
        subsets = skipped if unimodular else faces
        for d in range(1, fan.ambient_dim):
            subsets.update(combinations(c.ray_indices, d))
    faces -= skipped
    faces.update(maximal)
    return [maximal.get(t) or Cone(t) for t in sorted(faces)]


def _multiplicities(fan: Fan, cones: list[Cone], threads: int) -> list[int]:
    """mult(sigma) for each cone, in order, from one thread pool at most.

    Maximal cones read the value that validation cached; every other cone,
    fresh from ``enumerate_cones``, takes one lattice index.
    """
    if threads > 1 and len(cones) > 2 * threads:
        # Imported here: a smooth fan never takes the pool.
        from concurrent.futures import ThreadPoolExecutor
        size = -(-len(cones) // threads)
        chunks = [cones[i : i + size] for i in range(0, len(cones), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(lambda ch: [multiplicity(fan, c) for c in ch], chunks)
        return [m for part in parts for m in part]
    return [multiplicity(fan, c) for c in cones]


# Graded accumulators: sums[t] maps an index into degree_bases[t] to its
# coefficient times S_t, the product of the first t table scales, an int
# (see ``multiplication_tables``); ``_graded_classes`` divides once.
_Sums = list[dict[int, int]]


def _ray_product(pres: ChowPresentation) -> _Sums:
    """prod_rho (1 + x_rho) over all rays, reduced, as graded accumulators.

    Each ray's pass replaces v by v + x_j * v, degree by degree from the
    top down, so every step still reads the degree-d part from before the
    pass.
    """
    n = pres.fan.ambient_dim
    v: _Sums = [{0: 1}] + [{} for _ in range(n)]
    for table in multiplication_tables(pres)[0]:
        for d in range(n - 1, -1, -1):
            _add_rows(v[d + 1], v[d].items(), table[d])
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
    tables = multiplication_tables(pres)[0]
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
            # in range: Fan checks every maximal cone's ray indices
            stack.append(_add_rows({}, stack[t].items(), tables[rays[t]][t]))
        path = rays
        acc = sums[len(rays)]
        for b, q in stack[-1].items():
            acc[b] = acc.get(b, 0) + mult * q
    return sums


def csm_result(
    fan: Fan,
    pres: ChowPresentation | None = None,
    *,
    force_hnf: bool = False,
    threads: int = 1,
) -> CsmResult:
    """Compute the full class, the Euler characteristic, and the per-dimension
    breakdown.

    The sum of mult(sigma) * x_sigma over all cones is prod_rho (1 + x_rho)
    plus (mult(sigma) - 1) * x_sigma for each cone of multiplicity other
    than 1, as the module docstring derives; its degree-d part is
    ``per_dim_contributions[d]``.

    Faces of unimodular maximal cones have multiplicity 1, so a smooth
    fan's class is the product and its faces are never listed.  On a
    singular fan only the cones of ``enumerate_cones(fan,
    skip_unimodular=True)`` take a multiplicity: maximal cones from
    validation's cache, the others through ``column_lattice_index``.
    ``force_hnf`` is the check of that shortcut: it takes the multiplicity
    of every cone, of a smooth fan too, and the results are identical.
    ``threads`` bounds the worker count for that batch; output is
    deterministic regardless.  The cones of multiplicity other than 1 then
    go, in the listing's order, through one walk of ``_orbit_sum``.

    ``pres`` defaults to ``build_presentation(fan)``; one built from any
    other fan object raises ``ValidationError``.
    """
    pres = _presentation_of(fan, pres)
    sums = _ray_product(pres)
    if force_hnf or not is_smooth(fan):
        cones = enumerate_cones(fan, skip_unimodular=not force_hnf)
        mults = _multiplicities(fan, cones, threads)
        _orbit_sum(pres, ((c, m - 1) for c, m in zip(cones, mults) if m != 1), sums)
    per_dim = _graded_classes(pres, sums)
    # the parts hold monomials of distinct degrees: the class is their union
    total = {m: q for part in per_dim.values() for m, q in part.items()}
    chi = _integer_degree(total, pres)
    return CsmResult(csm_class=total, euler=chi, per_dim_contributions=per_dim)


def euler_characteristic(fan: Fan, pres: ChowPresentation | None = None) -> int:
    """Euler characteristic via the degree of the top part of the class.

    Only the maximal cones are processed, in lexicographic order, each with
    the multiplicity that validation cached on it: lower-dimensional cones
    cannot contribute to the top graded piece.  ``csm_result(...).euler``
    gives the same value from the full class.  ``pres`` is as in
    ``csm_result``.
    """
    pres = _presentation_of(fan, pres)
    n = fan.ambient_dim
    cones = sorted(fan.max_cones, key=lambda c: c.ray_indices)
    walk = ((c, multiplicity(fan, c)) for c in cones)
    sums = _orbit_sum(pres, walk, [{} for _ in range(n + 1)])
    return _integer_degree(_graded_classes(pres, sums)[n], pres)


def _presentation_of(fan: Fan, pres: ChowPresentation | None) -> ChowPresentation:
    """``pres``, built for ``fan`` when ``None``; ``ValidationError`` when
    it was built for another fan."""
    if pres is None:
        return build_presentation(fan)
    if pres.fan is not fan:
        raise ValidationError("presentation was built for a different fan")
    return pres


def _integer_degree(c: GradedClass, pres: ChowPresentation) -> int:
    chi = degree(c, pres)
    if chi.denominator != 1:
        raise InternalError(f"inconsistent fan data: non-integer degree {chi}")
    if chi != len(pres.fan.max_cones):
        raise InternalError(
            f"Euler characteristic {chi} differs from the number of maximal cones "
            f"{len(pres.fan.max_cones)}"
        )
    return int(chi)
