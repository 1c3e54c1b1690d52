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
Sci. Paris 315, 1992).  A singular fan adds (mult(sigma) - 1) * x_sigma
for each cone of multiplicity other than 1.  Such a cone lies in no
unimodular maximal cone, so only the cones that ``enumerate_cones``
lists with ``skip_unimodular`` take a lattice index.  The product and
the correction, like the maximal cones in ``euler_characteristic``, are
reduced by one walk of the presentation's multiplication tables,
``chow.orbit_classes``, the cones in lexicographic order of their ray
indices, so that each cone extends a prefix already walked.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .chow import (
    ChowPresentation,
    GradedClass,
    build_presentation,
    degree,
    normal_form,  # noqa: F401 -- not called here; perfbench/tracer.py wraps csm.normal_form
    orbit_classes,
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
    """mult(sigma) for each cone, in order, from one thread pool at most,
    of no more workers than ``os.cpu_count()``.

    Maximal cones read the value that validation cached; every other cone,
    fresh from ``enumerate_cones``, takes one lattice index.
    """
    threads = min(threads, os.cpu_count() or 1)
    if threads > 1 and len(cones) > 2 * threads:
        # Imported here: a smooth fan never takes the pool.
        from concurrent.futures import ThreadPoolExecutor
        size = -(-len(cones) // threads)
        chunks = [cones[i : i + size] for i in range(0, len(cones), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(lambda ch: [multiplicity(fan, c) for c in ch], chunks)
        return [m for part in parts for m in part]
    return [multiplicity(fan, c) for c in cones]


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
    ``threads`` bounds the worker count for that batch, as does the CPU
    count; output is deterministic regardless.  The cones of multiplicity
    other than 1 then go, in the listing's order, through the walk of
    ``orbit_classes`` that also reduces the product.

    ``pres`` defaults to ``build_presentation(fan)``; one built from any
    other fan object raises ``ValidationError``.
    """
    pres = _presentation_of(fan, pres)
    corrections = ()
    if force_hnf or not is_smooth(fan):
        cones = enumerate_cones(fan, skip_unimodular=not force_hnf)
        mults = _multiplicities(fan, cones, threads)
        corrections = ((c.ray_indices, m - 1) for c, m in zip(cones, mults) if m != 1)
    per_dim = orbit_classes(pres, corrections, ray_product=True)
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
    cones = sorted(fan.max_cones, key=lambda c: c.ray_indices)
    terms = ((c.ray_indices, multiplicity(fan, c)) for c in cones)
    return _integer_degree(orbit_classes(pres, terms)[fan.ambient_dim], pres)


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
