"""Assembly of the Chern-Schwartz-MacPherson class from orbit closures.

The class of a complete simplicial toric variety is the sum, over all
cones of its fan, of the orbit-closure classes; each of those is the
cone's multiplicity times the product of its ray variables.  Reducing that
sum in the Chow presentation gives the canonical class, and the degree of
its top piece is the Euler characteristic, which must equal the number of
maximal cones; a mismatch is an internal error.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .chow import (
    ChowPresentation,
    GradedClass,
    build_presentation,
    class_add,
    degree,
    normal_form,
    squarefree_monomial,
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


def _orbit_sum(
    fan: Fan, pres: ChowPresentation, cones: tuple[Cone, ...], force_hnf: bool, threads: int
) -> GradedClass:
    """The reduced sum of mult(sigma) * x_sigma over ``cones``."""
    if not force_hnf and is_smooth(fan):
        mults = [1] * len(cones)
    elif threads > 1 and len(cones) > 2 * threads:
        size = -(-len(cones) // threads)
        chunks = [cones[i : i + size] for i in range(0, len(cones), size)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(lambda ch: [multiplicity(fan, c) for c in ch], chunks)
        mults = [m for part in parts for m in part]
    else:
        mults = [multiplicity(fan, c) for c in cones]
    raw: GradedClass = {
        squarefree_monomial(c.ray_indices): Fraction(m) for c, m in zip(cones, mults)
    }
    return normal_form(raw, pres)


def csm_result(
    fan: Fan,
    pres: ChowPresentation | None = None,
    *,
    force_hnf: bool = False,
    threads: int = 1,
) -> CsmResult:
    """Compute the full class, the Euler characteristic, and the per-dimension
    breakdown.

    On a smooth fan every multiplicity is taken to be 1 (deciding smoothness
    already computes the maximal cones' multiplicities).  ``force_hnf``
    computes every cone's multiplicity anyway: maximal cones through the
    Hermite form of their ray matrix, lower-dimensional ones through
    ``column_lattice_index`` (for benchmarking; the results are identical).
    ``threads`` bounds the worker count for the multiplicity batch; output
    is deterministic regardless.
    """
    if pres is None:
        pres = build_presentation(fan)
    table = enumerate_cones(fan)
    per_dim: dict[int, GradedClass] = {0: normal_form({(): Fraction(1)}, pres)}
    for d in range(1, fan.ambient_dim + 1):
        per_dim[d] = _orbit_sum(fan, pres, table[d], force_hnf, threads)
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
    cones = tuple(sorted(fan.max_cones, key=lambda c: c.ray_indices))
    return _integer_degree(_orbit_sum(fan, pres, cones, force_hnf, threads), pres)


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
