"""Fan data model: validation, multiplicities, builders.

A fan is given by its ambient dimension, a list of primitive ray
generators in ``Z^n``, and the maximal cones as sets of ray indices
(0-based).  Only complete simplicial fans are supported: constructing a
``Fan`` validates it, and checks completeness exactly.  Every wall, i.e.
every ``(n-1)``-dimensional face, must lie in exactly two maximal cones,
on opposite sides of the wall's span; then the cones cover space a whole
number of times, at least once per wall-connected piece.  So they cover
it exactly once iff they form one piece and the sum of one cone's rays
lies in no other cone (Ewald, GTM 168, Ch. III).  One walk across the
walls, keyed by the bitmasks of their rays, decides this and gives every
maximal cone's determinant, each from a neighbour's; it compares the two
cones' orientations at each wall as it passes, and names the folded wall
that comes first in cone order.  The checks fail in the order ``Fan``
lists them.  A ``Fan`` keeps no face cache:
``csm.enumerate_cones`` lists the cones.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import gcd
from operator import index, or_
from typing import Iterable, Sequence

from .errors import ValidationError, int_text
from .exact_linalg import (
    column_lattice_index,
    determinant,
    fraction_free_solve_rows,
    # not called here; perfbench/tracer.py wraps fan.hermite_normal_form and
    # fan.strip_zero_rows, and the tests use them as the multiplicity oracle
    hermite_normal_form,  # noqa: F401
    strip_zero_rows,  # noqa: F401
)

__all__ = [
    "Cone",
    "Fan",
    "build_fan",
    "multiplicity",
    "is_smooth",
    "projective_space",
    "hirzebruch",
    "weighted_projective",
    "product",
]


class Cone:
    """A simplicial cone, identified by its sorted ray indices (integers).

    ``_mult`` caches the multiplicity.  Constructing a ``Fan`` fills it for
    every maximal cone, from the determinant that validation finds anyway;
    other cones, such as those ``csm.enumerate_cones`` lists afresh on each
    call, fill it on their first ``multiplicity`` call.
    Everything else is immutable, so cones are safe to share across
    threads (the cache write is idempotent).
    """

    __slots__ = ("ray_indices", "_mult")

    def __init__(self, ray_indices: Iterable[int]):
        idx = tuple(sorted(_integers(ray_indices, "cone")))
        if len(set(idx)) != len(idx):
            raise ValidationError(f"duplicate ray index in cone {_text(idx)}")
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
    """A complete simplicial fan, validated when it is constructed.

    ``Fan(ambient_dim, rays, max_cones)`` takes the maximal cones as
    ray-index iterables or ``Cone`` objects, and raises ``ValidationError``
    on the first check that fails.  The checks, in order: ray shape and
    primitivity, no duplicate rays, maximal cones of dimension exactly
    ``ambient_dim`` with in-range indices, each listed once, simpliciality
    of every maximal cone, every ray used, the wall condition, that the two
    maximal cones of each wall lie on opposite sides of it, and that the
    cones cover space once: they form one wall-connected piece, and no cone
    but the first contains the sum of the first cone's rays.  The
    determinants come from one walk across the walls (``_pivot_walk``): one
    signed solve per piece, then each cone's determinant from a
    neighbour's; the same walk finds and names a folded wall.  A cone
    whose shape is wrong is reported after any non-simplicial cone listed
    before it.  Each determinant's absolute value is the cone's
    multiplicity, cached on the cone, so every ``Fan`` carries the
    multiplicity of each maximal cone.  A dimension, coordinate or ray
    index that is not an integer is never truncated: it is an error.
    """

    __slots__ = ("ambient_dim", "rays", "max_cones")

    def __init__(self, ambient_dim: int, rays: Sequence[Sequence[int]],
                 max_cones: Sequence[Cone | Iterable[int]]):
        ambient_dim = _integer(ambient_dim, "ambient dimension")
        if ambient_dim < 1:
            raise ValidationError("ambient dimension must be at least 1")
        self.ambient_dim = ambient_dim
        self.rays = tuple(_integers(r, f"ray {i}") for i, r in enumerate(rays))
        for i, v in enumerate(self.rays):
            if len(v) != ambient_dim:
                raise ValidationError(f"ray {i} has {len(v)} coordinates, expected {ambient_dim}")
        # Fresh cone objects: a caller-supplied Cone may carry a multiplicity
        # cached against some other fan's rays.
        self.max_cones = tuple(Cone(c.ray_indices if isinstance(c, Cone) else c) for c in max_cones)
        _validate(self)

    def ray_matrix(self, cone: Cone) -> list[list[int]]:
        """The n rows of the n x d matrix whose columns are the cone's ray
        generators, in the cone's ray order."""
        for j in cone.ray_indices:
            if not 0 <= j < len(self.rays):
                raise ValidationError(f"cone {_text(cone.ray_indices)} references unknown ray {int_text(j)}")
        rays = [self.rays[j] for j in cone.ray_indices]
        return [[v[k] for v in rays] for k in range(self.ambient_dim)]

    def __repr__(self) -> str:
        return (
            f"Fan(dim={self.ambient_dim}, rays={len(self.rays)}, "
            f"max_cones={len(self.max_cones)})"
        )


def _integer(value: int, what: str) -> int:
    """``value`` as an int (``operator.index``), or ``ValidationError``."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} {value!r} is not an integer") from None


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as ints (``operator.index``), or ``ValidationError``."""
    try:
        values = tuple(values)
        return tuple(map(index, values))
    except TypeError:
        raise ValidationError(f"{what} {_text(values)} has a non-integer entry") from None


def _text(value) -> str:
    """``str(value)``, with every int written by ``int_text``, so also past
    the interpreter's digit limit: an int, or a tuple of ints and others."""
    if isinstance(value, tuple):
        items = [int_text(x) if isinstance(x, int) else repr(x) for x in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return int_text(value) if isinstance(value, int) else str(value)


def build_fan(ambient_dim: int, rays: Sequence[Sequence[int]],
              max_cones: Sequence[Cone | Iterable[int]]) -> Fan:
    """Build and validate a fan from raw data: ``Fan(ambient_dim, rays,
    max_cones)``, under the name the file parser and the builders call."""
    return Fan(ambient_dim, rays, max_cones)


def _validate(fan: Fan) -> None:
    """The checks of ``Fan`` after ray shape, in the order it lists them;
    caches each maximal cone's multiplicity."""
    n = fan.ambient_dim
    rays, cones = fan.rays, fan.max_cones
    for i, v in enumerate(rays):
        if gcd(*v) != 1:
            raise ValidationError(f"ray not primitive: ray {i} = {_text(v)}")
    if len(set(rays)) != len(rays):
        raise ValidationError("duplicate ray")
    if not cones:
        raise ValidationError("maximal cone wrong dimension: no maximal cones given")

    seen: set[tuple[int, ...]] = set()
    try:
        for c in cones:
            _check_cone_shape(c, n, len(rays), seen)
    except ValidationError:
        # A non-simplicial cone listed before the first malformed one is
        # named first: each cone's shape and determinant are checked in turn.
        for c in cones[: len(seen)]:
            if determinant(fan.ray_matrix(c)) == 0:
                raise ValidationError(f"not simplicial: maximal cone {c.ray_indices}") from None
        raise
    across = _wall_table(cones, n)
    dets, roots, overlap, fold = _pivot_walk(fan, across)
    for c, det in zip(cones, dets):
        if det == 0:
            raise ValidationError(f"not simplicial: maximal cone {c.ray_indices}")
        c._mult = abs(det)
    used = set().union(*(c.ray_indices for c in cones))
    missing = sorted(set(range(len(rays))) - used)
    if missing:
        raise ValidationError(f"unused ray: ray {missing[0]} appears in no maximal cone")
    if any(None in row for row in across):
        raise ValidationError("fan fails completeness check")
    if fold:
        wall, a, b = fold
        raise ValidationError(
            f"fan fails completeness check: maximal cones {a} and {b} "
            f"lie on the same side of wall {wall}"
        )
    if overlap:
        a, b = (cones[k].ray_indices for k in overlap)
        point = tuple(sum(rays[j][t] for j in a) for t in range(n))
        raise ValidationError(
            f"fan fails completeness check: maximal cones {a} and {b} "
            f"both contain the point {_text(point)}, so the cones cover it more than once"
        )
    if len(roots) > 1:
        a, b = (cones[k].ray_indices for k in roots[:2])
        raise ValidationError(
            f"fan fails completeness check: maximal cones {a} and {b} are not "
            f"connected through walls, so the cones cover space more than once"
        )


def _check_cone_shape(c: Cone, n: int, num_rays: int, seen: set[tuple[int, ...]]) -> None:
    """Raise ``ValidationError`` unless the maximal cone ``c`` has ``n``
    rays, all indices below ``num_rays``, and its ray indices are not in
    ``seen``; then add them to ``seen``."""
    idx = c.ray_indices
    if len(idx) != n:
        raise ValidationError(
            f"maximal cone wrong dimension: cone {_text(idx)} has {len(idx)} rays, "
            f"expected {n}"
        )
    # the indices are sorted: the first and the last bound them all
    if idx[0] < 0 or idx[-1] >= num_rays:
        j = next(j for j in idx if not 0 <= j < num_rays)
        raise ValidationError(f"cone {_text(idx)} references unknown ray {int_text(j)}")
    if idx in seen:
        raise ValidationError(f"maximal cone {idx} is listed twice")
    seen.add(idx)


# Per maximal cone and slot: the (cone, slot) across that slot's wall, or None.
_Across = list[list[tuple[int, int] | None]]


def _wall_table(cones: Sequence[Cone], n: int) -> _Across:
    """For each cone k and slot s, the ``(cone, slot)`` on the other side
    of the wall that drops the ray at slot s, or None if that wall is not
    in exactly two cones.  A wall is keyed by the bitmask of its rays (bit
    j for ray j): the cone's mask with one bit cleared.  Call only on
    bounds-checked ray indices.  A complete fan has no None."""
    walls: dict[int, tuple[int, int] | None] = {}
    across: _Across = [[None] * n for _ in cones]
    for k, c in enumerate(cones):
        bits = [1 << j for j in c.ray_indices]
        mask = sum(bits)
        for s, b in enumerate(bits):
            wall = mask - b
            there = walls.get(wall, False)
            if there is False:
                walls[wall] = (k, s)
            elif there is not None:
                a, sa = there
                partner = across[a][sa]
                if partner is None:
                    across[a][sa] = (k, s)
                    across[k][s] = there
                else:  # a third cone: the wall pairs no two cones
                    across[a][sa] = across[partner[0]][partner[1]] = walls[wall] = None
    return across


def _pivot_walk(
    fan: Fan, across: _Across
) -> tuple[list[int], list[int], tuple[int, int] | None, tuple[tuple[int, ...], ...] | None]:
    """Signed determinant of every maximal cone, by one walk across walls.

    Returns ``(dets, roots, overlap, fold)``.  ``dets[k]`` is the
    determinant of cone k, rays in increasing order.  Each cone not reached
    across a wall from an earlier one (a wall not in exactly two cones, or
    a neighbour of determinant 0, stops the walk) is a root in ``roots``
    and takes one ``fraction_free_solve_rows``.  It gives ``det`` and the
    dual rows ``u_r = |det| . sigma^-1``, so ``<u_r, v_s> = |det|`` if r
    == s, else 0.

    Crossing the wall opposite slot i to the cone whose new ray ``v`` sits
    at slot j costs ``c_i = <u_i, v>`` over the nonzeros of ``v``: the
    neighbour's determinant is ``sign(det) . c_i . (-1)^(i - j)``.  Its
    dual rows follow from the whole pairing vector ``c_r = <u_r, v>`` by
    one exact integer (Bareiss) exchange, and both are built only if the
    walk goes on from it (``_exchange``).

    ``overlap`` is the first ``(root, cone)``, in the walk's order, whose
    other cone holds the root's ray sum p, or None.  Every root row has
    ``<u_r, p> = |det| > 0``, so a cone that holds p, ``p = sum lambda_s
    w_s`` with every ``lambda_s >= 0``, has for each r a ray w_s with
    ``<u_r, w_s> > 0``: the OR of its rays' reach masks (bit r of ray j
    set iff ``<u_r, v_j> > 0``) is full.  Only a reached cone whose masks
    pass takes the exact test: ``y = rows . p`` by the current cone's rows
    and the exchange of ``_exchange`` give its coordinates of p, scaled by
    ``|det| > 0``, and it holds p iff none is negative.

    At a slot whose neighbour already has a determinant, the walk tests
    whether both cones lie on one side of the wall: the cones wall+a and
    wall+b do exactly when det(wall, a) and det(wall, b) agree in sign,
    and moving the ray at slot s to the end takes n-1-s transpositions.
    ``fold`` is such a wall as ``(wall, cone, cone)``, the cones as ray
    indices, or None.  Of all such walls it names the one met first when
    the cones are taken in order, each from its last slot to its first,
    and each wall at its later cone; so it does not depend on the walk's
    order.  It is meaningful once every determinant is nonzero: then the
    walk scans every cone, so every wall.  With every wall in two cones on
    opposite sides, the cones cover space exactly once iff there is one
    root and no overlap (Ewald, GTM 168, Ch. III).
    """
    n = fan.ambient_dim
    full = (1 << n) - 1
    cones = [c.ray_indices for c in fan.max_cones]
    support = [[(t, x) for t, x in enumerate(v) if x] for v in fan.rays]
    columns = list(zip(*fan.rays))
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
        if overlap is None:
            p = [(t, x) for t, x in enumerate(map(sum, zip(*rays))) if x]
            reach_of = _reach_masks(inv, columns).__getitem__
        # A stacked cone holds the rows of the cone it was reached from, and
        # the step that turns them into its own if the walk goes on from it.
        stack = [(root, inv, None)]
        while stack:
            k, rows, step = stack.pop()
            det = dets[k]
            scale = abs(det)
            positive = det > 0
            for i, there in enumerate(across[k]):
                if there is None:
                    continue
                nb, j = there
                seen = dets[nb]
                if seen is not None:
                    # one side iff the signs of det(wall, ray) agree
                    if (positive != (seen > 0)) == ((i ^ j) & 1):
                        # keyed by the later cone, its slot from the last, the earlier cone
                        key = (k, -i, nb) if k > nb else (nb, -j, k)
                        if fold is None or key < fold:
                            fold = key
                    continue
                if step is not None:
                    rows = _exchange(rows, _pairing(rows, step[0]), *step[1:])
                    step = None
                v = support[cones[nb][j]]
                u = rows[i]
                t, x = v[0]
                ci = x * u[t]
                for t, x in v[1:]:
                    ci += x * u[t]
                nb_det = ci if positive else -ci
                dets[nb] = -nb_det if (i - j) & 1 else nb_det
                if not ci:
                    continue
                if (
                    overlap is None
                    and reduce(or_, map(reach_of, cones[nb])) == full
                    and _holds(rows, _pairing(rows, v), i, p)
                ):
                    overlap = (root, nb)
                stack.append((nb, rows, (v, i, j, scale)))
    if fold is not None:
        k, s, a = fold
        s = -s
        fold = cones[k][:s] + cones[k][s + 1 :], cones[a], cones[k]
    return dets, roots, overlap, fold


def _reach_masks(rows: list[list[int]], columns: list[tuple[int, ...]]) -> list[int]:
    """For each ray j, the bitmask of the rows ``u_r`` with ``<u_r, v_j> >
    0``; ``columns`` are the columns of the ray matrix, one entry per ray.
    Built one row at a time, over the columns the row does not vanish on."""
    reach = [0] * len(columns[0])
    for r, u in enumerate(rows):
        dots = [0] * len(reach)
        for x, column in zip(u, columns):
            if x:
                dots = [d + x * y for d, y in zip(dots, column)]
        bit = 1 << r
        reach = [m | bit if d > 0 else m for m, d in zip(reach, dots)]
    return reach


def _pairing(rows: list[list[int]], v: list[tuple[int, int]]) -> list[int]:
    """``c_r = <u_r, v>`` for each row ``u_r``, over the nonzeros ``(t,
    x)`` of ``v``."""
    t, x = v[0]
    c = [x * u[t] for u in rows]
    for t, x in v[1:]:
        c = [a + x * u[t] for a, u in zip(c, rows)]
    return c


def _holds(rows: list[list[int]], c: Sequence[int], i: int, p: list[tuple[int, int]]) -> bool:
    """Whether the cone that ``_exchange(rows, c, i, ...)`` reaches holds
    the point with nonzeros ``p``.  With ``y_r = <u_r, p>`` its scaled
    coordinates of p are ``sgn(c_i) (c_i y_r - c_r y_i) / scale`` and
    ``sgn(c_i) y_i``; it holds p iff none is negative."""
    y = _pairing(rows, p)
    ci, yi = c[i], y[i]
    d = [ci * yr - cr * yi for yr, cr in zip(y, c)]
    return (min(d) >= 0 and yi >= 0) if ci > 0 else (max(d) <= 0 and yi <= 0)


def _exchange(rows: list[list[int]], c: Sequence[int], i: int, j: int, scale: int) -> list[list[int]]:
    """Dual rows of the cone that swaps slot i's ray of a cone with dual
    rows ``rows`` (``scale = |det|``) for the ray ``v`` with ``c_r = <u_r,
    v>``, at slot j of the new cone.  Its ``|det|`` is ``|c_i|``, and
    ``u'_r = sgn(c_i) (c_i u_r - c_r u_i) / scale`` exactly (fraction-free
    elimination, Bareiss 1968), ``u'_v = sgn(c_i) u_i``; a row with ``c_r
    = 0`` is shared when ``|c_i| = scale``."""
    ci = c[i]
    new_scale = abs(ci)
    ui = rows[i]
    out = []
    for r, (u, cr) in enumerate(zip(rows, c)):
        if r == i:
            continue
        if not cr:
            out.append(u if new_scale == scale else [x * new_scale // scale for x in u])
        elif ci > 0:
            out.append([(ci * x - cr * w) // scale for x, w in zip(u, ui)])
        else:
            out.append([(cr * w - ci * x) // scale for x, w in zip(u, ui)])
    out.insert(j, ui if ci > 0 else [-w for w in ui])
    return out


def multiplicity(fan: Fan, cone: Cone) -> int:
    """Multiplicity of a cone: the index of the sublattice spanned by its
    ray generators inside the lattice points of its linear span.

    A maximal cone of ``fan`` reads the ``|det|`` that validation cached on
    it.  Any other cone takes ``column_lattice_index`` of the rows of its
    ray matrix (``Fan.ray_matrix``, one column per ray in index order) once
    and caches it; that is ``|det|`` on a full-dimensional cone, and
    it raises ``ValueError("not simplicial")`` when the rays are linearly
    dependent, at any dimension.  Equals 1 exactly when the corresponding
    affine chart is smooth.  A face of a unimodular maximal cone has
    multiplicity 1 (``csm.enumerate_cones``); ``csm_result`` calls this on
    such a face only with ``force_hnf``, as the check of that rule.
    """
    if cone._mult is None:
        cone._mult = column_lattice_index(fan.ray_matrix(cone))
    return cone._mult


def is_smooth(fan: Fan) -> bool:
    """True iff every maximal cone is unimodular, by the multiplicities
    validation cached on them: their faces are then unimodular too."""
    return all(c._mult == 1 for c in fan.max_cones)


def projective_space(n: int) -> Fan:
    """Fan of n-dimensional projective space: rays e_1..e_n and -(e_1+...+e_n),
    maximal cones all n-subsets of the n+1 rays; weights (1, ..., 1)."""
    n = _integer(n, "projective space dimension")
    if n < 1:
        raise ValidationError("projective space requires n >= 1")
    return weighted_projective((1,) * (n + 1))


def hirzebruch(r: int) -> Fan:
    """The Hirzebruch surface fan: rays (1,0), (0,1), (-1,r), (0,-1)."""
    r = _integer(r, "hirzebruch parameter")
    if r < 0:
        raise ValidationError("hirzebruch parameter must be nonnegative")
    rays = [(1, 0), (0, 1), (-1, r), (0, -1)]
    return build_fan(2, rays, [(0, 1), (1, 2), (2, 3), (3, 0)])


def weighted_projective(weights: Sequence[int]) -> Fan:
    """Weighted projective space fan for weights (q_0, ..., q_n).

    Rays are e_1..e_n and v_0 = -(q_1 e_1 + ... + q_n e_n)/q_0; only weight
    vectors making v_0 an integral primitive vector are supported (the
    q_0 = 1 family always works).  Like every builder parameter, the
    weights are never truncated: a non-integer one is a ``ValidationError``.
    """
    w = _integers(weights, "weight vector")
    if len(w) < 2:
        raise ValidationError("weighted projective space needs at least two weights")
    if any(q <= 0 for q in w):
        raise ValidationError("weights must be positive")
    if gcd(*w) != 1:
        raise ValidationError("weights must have gcd 1")
    q0, rest = w[0], w[1:]
    if any(q % q0 for q in rest):
        raise ValidationError("unsupported weights: apex ray is not integral")
    v0 = tuple(-q // q0 for q in rest)
    if gcd(*v0) != 1:
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
