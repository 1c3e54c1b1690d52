"""Fan data model: validation, face enumeration, multiplicities, builders.

A fan is given by its ambient dimension, a list of primitive ray
generators in ``Z^n``, and the maximal cones as sets of ray indices
(0-based).  Only complete simplicial fans are supported; completeness is
checked through the wall condition (every wall, i.e. every
``(n-1)``-dimensional face, must lie in exactly two maximal cones, and on
opposite sides of the wall's span).  That is necessary but not
sufficient: cones that wrap around the origin more than once pass it.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .errors import ValidationError
from .exact_linalg import (
    IntegerMatrix,
    column_lattice_index,
    determinant,
    # not called here; perfbench/tracer.py wraps fan.hermite_normal_form and
    # fan.strip_zero_rows, and the tests use them as the multiplicity oracle
    hermite_normal_form,  # noqa: F401
    strip_zero_rows,  # noqa: F401
)

__all__ = [
    "Cone",
    "Fan",
    "build_fan",
    "enumerate_cones",
    "multiplicity",
    "is_smooth",
    "wall_check",
    "projective_space",
    "hirzebruch",
    "weighted_projective",
    "product",
]

LatticeVector = tuple[int, ...]


class Cone:
    """A simplicial cone, identified by its sorted ray indices.

    ``_mult`` caches the multiplicity.  ``build_fan`` fills it for every
    maximal cone of validated input, from the determinant that validation
    takes anyway; other cones fill it on the first ``multiplicity`` call.
    Everything else is immutable, so cones are safe to share across
    threads (the cache write is idempotent).
    """

    __slots__ = ("ray_indices", "_mult")

    def __init__(self, ray_indices: Iterable[int]):
        idx = tuple(sorted(int(i) for i in ray_indices))
        if len(set(idx)) != len(idx):
            raise ValidationError("duplicate ray index in cone")
        self.ray_indices = idx
        self._mult: int | None = None

    @property
    def dim(self) -> int:
        return len(self.ray_indices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cone) and self.ray_indices == other.ray_indices

    def __hash__(self) -> int:
        return hash(self.ray_indices)

    def __repr__(self) -> str:
        return f"Cone({self.ray_indices})"


class Fan:
    """A validated complete simplicial fan.  Construct via ``build_fan``."""

    __slots__ = ("ambient_dim", "rays", "max_cones", "_faces", "_smooth")

    def __init__(self, ambient_dim: int, rays: Sequence[LatticeVector], max_cones: Sequence[Cone]):
        self.ambient_dim = ambient_dim
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        self.max_cones = tuple(max_cones)
        self._faces: dict[int, tuple[Cone, ...]] | None = None
        self._smooth: bool | None = None

    @property
    def faces(self) -> dict[int, tuple[Cone, ...]]:
        """Cones of each dimension 1..n, derived from the maximal cones.

        Built lazily on first access (a write-once cache, like the per-cone
        multiplicities) since only the class of a singular fan, or one
        computed with every multiplicity forced, needs it.
        """
        if self._faces is None:
            by_dim: dict[int, set[tuple[int, ...]]] = {d: set() for d in range(1, self.ambient_dim + 1)}
            for c in self.max_cones:
                idx = c.ray_indices
                for d in range(1, len(idx) + 1):
                    by_dim[d].update(combinations(idx, d))
            table: dict[int, tuple[Cone, ...]] = {}
            top = self.ambient_dim
            for d in range(1, top + 1):
                if d == top:
                    # reuse the maximal cone objects so cached multiplicities
                    # are shared
                    table[d] = tuple(sorted(self.max_cones, key=lambda c: c.ray_indices))
                else:
                    table[d] = tuple(Cone(t) for t in sorted(by_dim[d]))
            self._faces = table
        return self._faces

    def ray_matrix(self, cone: Cone) -> IntegerMatrix:
        """The n x d matrix whose columns are the cone's ray generators."""
        for j in cone.ray_indices:
            if not 0 <= j < len(self.rays):
                raise ValidationError(f"cone {cone.ray_indices} references unknown ray {j}")
        rays = [self.rays[j] for j in cone.ray_indices]
        entries = tuple(v[k] for k in range(self.ambient_dim) for v in rays)
        return IntegerMatrix(self.ambient_dim, len(rays), entries)

    def __repr__(self) -> str:
        return (
            f"Fan(dim={self.ambient_dim}, rays={len(self.rays)}, "
            f"max_cones={len(self.max_cones)})"
        )


def _is_primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def build_fan(
    ambient_dim: int,
    rays: Sequence[Sequence[int]],
    max_cones: Sequence[Iterable[int]],
    validate: bool = True,
) -> Fan:
    """Build and validate a fan from raw data.

    Checks, in order: ray shape and primitivity, no duplicate rays, maximal
    cones of dimension exactly ``ambient_dim`` with in-range indices, each
    listed once, simpliciality of every maximal cone, every ray used, the
    wall condition, and that the two maximal cones of each wall lie on
    opposite sides of it.  The determinant that decides simpliciality is kept: its
    absolute value is the cone's multiplicity, cached on the cone.
    ``validate=False`` (trusted input) skips all of them except the shapes:
    each ray must have ``ambient_dim`` coordinates, and each maximal cone
    ``ambient_dim`` in-range ray indices, no cone listed twice.
    """
    if ambient_dim < 1:
        raise ValidationError("ambient dimension must be at least 1")
    ray_tuples = [tuple(int(x) for x in r) for r in rays]
    # The shape check runs even on trusted input: every later step indexes
    # ray coordinates 0..n-1.
    for i, v in enumerate(ray_tuples):
        if len(v) != ambient_dim:
            raise ValidationError(f"ray {i} has {len(v)} coordinates, expected {ambient_dim}")
    # Fresh cone objects: a caller-supplied Cone may carry a multiplicity
    # cached against some other fan's rays.
    cones = [Cone(c.ray_indices if isinstance(c, Cone) else c) for c in max_cones]
    fan = Fan(ambient_dim, ray_tuples, cones)
    seen: set[Cone] = set()
    if not validate:
        for c in cones:
            _check_cone_shape(c, ambient_dim, len(ray_tuples), seen)
        return fan

    n = ambient_dim
    for i, v in enumerate(ray_tuples):
        if all(x == 0 for x in v) or not _is_primitive(v):
            raise ValidationError(f"ray not primitive: ray {i} = {v}")
    if len(set(ray_tuples)) != len(ray_tuples):
        raise ValidationError("duplicate ray")
    if not cones:
        raise ValidationError("maximal cone wrong dimension: no maximal cones given")

    used: set[int] = set()
    positive: list[bool] = []
    for c in cones:
        _check_cone_shape(c, n, len(ray_tuples), seen)
        used.update(c.ray_indices)
        det = determinant(fan.ray_matrix(c))
        if det == 0:
            raise ValidationError(f"not simplicial: maximal cone {c.ray_indices}")
        positive.append(det > 0)
        c._mult = abs(det)
    missing = sorted(set(range(len(ray_tuples))) - used)
    if missing:
        raise ValidationError(f"unused ray: ray {missing[0]} appears in no maximal cone")
    if not wall_check(fan):
        raise ValidationError("fan fails completeness check")
    fold = _same_side_wall(fan, positive)
    if fold:
        wall, a, b = fold
        raise ValidationError(
            f"fan fails completeness check: maximal cones {a} and {b} "
            f"lie on the same side of wall {wall}"
        )
    return fan


def _check_cone_shape(c: Cone, n: int, num_rays: int, seen: set[Cone]) -> None:
    """Raise ``ValidationError`` unless the maximal cone ``c`` has ``n``
    rays, all indices below ``num_rays``, and is not in ``seen``; then add
    it to ``seen``."""
    if c.dim != n:
        raise ValidationError(
            f"maximal cone wrong dimension: cone {c.ray_indices} has {c.dim} rays, expected {n}"
        )
    for j in c.ray_indices:
        if not 0 <= j < num_rays:
            raise ValidationError(f"cone {c.ray_indices} references unknown ray {j}")
    if c in seen:
        raise ValidationError(f"maximal cone {c.ray_indices} is listed twice")
    seen.add(c)


def wall_check(fan: Fan) -> bool:
    """True iff every (n-1)-face of a maximal cone lies in exactly two of
    them (a necessary condition for completeness)."""
    counts: dict[tuple[int, ...], int] = {}
    n = fan.ambient_dim
    for c in fan.max_cones:
        for wall in combinations(c.ray_indices, n - 1):
            counts[wall] = counts.get(wall, 0) + 1
    return all(v == 2 for v in counts.values())


def _same_side_wall(fan: Fan, positive: Sequence[bool]) -> tuple[tuple[int, ...], ...] | None:
    """A wall whose two maximal cones lie on the same side of its span, as
    ``(wall, cone, cone)``, or None.  Call only after ``wall_check`` passed.

    ``positive[i]`` is the sign of the determinant of maximal cone i, rays
    in increasing order.  The cones wall+a and wall+b lie on opposite sides
    exactly when det(wall, a) and det(wall, b) differ in sign.
    """
    open_walls: dict[tuple[int, ...], tuple[tuple[int, ...], bool]] = {}
    for c, side in zip(fan.max_cones, positive):
        # combinations() drops the last ray first, then each earlier one in
        # turn; moving the dropped ray one place further from the end flips
        # the sign of det(wall, dropped ray).
        for wall in combinations(c.ray_indices, fan.ambient_dim - 1):
            other = open_walls.pop(wall, None)
            if other is None:
                open_walls[wall] = (c.ray_indices, side)
            elif other[1] == side:
                return wall, other[0], c.ray_indices
            side = not side
    return None


def enumerate_cones(fan: Fan) -> dict[int, tuple[Cone, ...]]:
    """All cones of the fan by dimension 1..n.

    For a simplicial fan every face of a cone is spanned by a subset of its
    rays, so the subsets of maximal cones enumerate exactly the cones.
    """
    return fan.faces


def multiplicity(fan: Fan, cone: Cone) -> int:
    """Multiplicity of a cone: the index of the sublattice spanned by its
    ray generators inside the lattice points of its linear span.

    A maximal cone of validated input reads the ``|det|`` that
    ``build_fan`` cached.  Otherwise a full-dimensional cone takes ``|det|``
    of its square ray matrix, and raises ``ValueError`` ("not simplicial")
    when it is 0; lower-dimensional cones use the ambient-basis echelon form
    of ``column_lattice_index``, which computes the index when the cone's
    span is a proper subspace.  Equals 1 exactly when the corresponding
    affine chart is smooth.
    """
    if cone._mult is not None:
        return cone._mult
    mat = fan.ray_matrix(cone)
    if mat.rows == mat.cols:
        m = abs(determinant(mat))
        if m == 0:
            raise ValueError("not simplicial")
    else:
        m = column_lattice_index(mat)
    cone._mult = m
    return m


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone is unimodular (multiplicity 1).

    Faces of unimodular simplicial cones are unimodular, so checking the
    maximal cones suffices.  On validated input their multiplicities are
    already cached by ``build_fan``, so this computes nothing; on trusted
    input it takes one determinant per maximal cone.
    """
    if fan._smooth is None:
        fan._smooth = all(multiplicity(fan, c) == 1 for c in fan.max_cones)
    return fan._smooth


def projective_space(n: int) -> Fan:
    """Fan of n-dimensional projective space: rays e_1..e_n and -(e_1+...+e_n),
    maximal cones all n-subsets of the n+1 rays."""
    if n < 1:
        raise ValidationError("projective space requires n >= 1")
    rays = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [c for c in combinations(range(n + 1), n)]
    return build_fan(n, rays, cones)


def hirzebruch(r: int) -> Fan:
    """The Hirzebruch surface fan: rays (1,0), (0,1), (-1,r), (0,-1)."""
    if r < 0:
        raise ValidationError("hirzebruch parameter must be nonnegative")
    rays = [(1, 0), (0, 1), (-1, r), (0, -1)]
    return build_fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 0)])


def weighted_projective(weights: Sequence[int]) -> Fan:
    """Weighted projective space fan for weights (q_0, ..., q_n).

    Rays are e_1..e_n and v_0 = -(q_1 e_1 + ... + q_n e_n)/q_0; only weight
    vectors making v_0 an integral primitive vector are supported (the
    q_0 = 1 family always works).
    """
    w = [int(q) for q in weights]
    if len(w) < 2:
        raise ValidationError("weighted projective space needs at least two weights")
    if any(q <= 0 for q in w):
        raise ValidationError("weights must be positive")
    g = 0
    for q in w:
        g = gcd(g, q)
    if g != 1:
        raise ValidationError("weights must have gcd 1")
    q0, rest = w[0], w[1:]
    if any(q % q0 for q in rest):
        raise ValidationError("unsupported weights: apex ray is not integral")
    v0 = tuple(-q // q0 for q in rest)
    if not _is_primitive(v0):
        raise ValidationError("unsupported weights: apex ray is not primitive")
    n = len(rest)
    rays = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    rays.append(v0)
    cones = [c for c in combinations(range(n + 1), n)]
    return build_fan(n, rays, cones)


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan: rays of each factor padded with zeros, maximal cones all
    unions of one maximal cone from each factor."""
    n1, n2 = f1.ambient_dim, f2.ambient_dim
    zeros1 = (0,) * n1
    zeros2 = (0,) * n2
    rays = [r + zeros2 for r in f1.rays] + [zeros1 + r for r in f2.rays]
    shift = len(f1.rays)
    cones = []
    for c1 in f1.max_cones:
        for c2 in f2.max_cones:
            cones.append(tuple(c1.ray_indices) + tuple(j + shift for j in c2.ray_indices))
    return build_fan(n1 + n2, rays, cones)
