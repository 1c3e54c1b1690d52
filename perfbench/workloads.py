"""Seeded workloads for the toriccsm benchmark.

A workload is a list of rounds; a round is a short, fixed mix of fan
shapes, and the seed picks everything inside a shape: the factor
parameters, the factor order, a relabelling of the ray indices, the order
of the maximal cones and the ``--elim-cone``.  The timed phase always runs
whole rounds, so every run measures the same mix of shapes whatever the
seed, and seed-to-seed spread stays small.

Fans are built with the program's own builders and written with
``toriccsm.formats.render_fan``.  The expected graded dimensions come from
an oracle that does not use the program: the Poincare polynomial of a
product is the product of the factors' polynomials, which are all ones
for projective and weighted projective spaces and 1, 2, 1 for a
Hirzebruch surface.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

__all__ = ["Factor", "FanCase", "WORKLOADS", "generate", "oracle_dims", "oracle_max_cones"]


@dataclass(frozen=True)
class Factor:
    """One product factor: ``pn`` (n,), ``hirzebruch`` (r,) or ``wps`` (1, q1..qk)."""

    kind: str
    params: tuple[int, ...]

    @property
    def spec(self) -> str:
        return f"{self.kind}={','.join(map(str, self.params))}"

    @property
    def dim(self) -> int:
        if self.kind == "pn":
            return self.params[0]
        if self.kind == "hirzebruch":
            return 2
        return len(self.params) - 1

    @property
    def poincare(self) -> tuple[int, ...]:
        if self.kind == "hirzebruch":
            return (1, 2, 1)
        return (1,) * (self.dim + 1)

    @property
    def max_cones(self) -> int:
        return 4 if self.kind == "hirzebruch" else self.dim + 1


def oracle_dims(factors) -> tuple[int, ...]:
    """Graded dimensions of a product: the convolution of the factors'
    Poincare polynomials."""
    out = [1]
    for f in factors:
        p = f.poincare
        conv = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                conv[i + j] += a * b
        out = conv
    return tuple(out)


def oracle_max_cones(factors) -> int:
    n = 1
    for f in factors:
        n *= f.max_cones
    return n


@dataclass(frozen=True)
class FanCase:
    """One op: a generated fan file and the toric-csm call made on it."""

    index: int
    round: int
    file: str
    factors: tuple[Factor, ...]
    command: str
    elim_cone: tuple[int, ...]
    max_cones: int
    dims: tuple[int, ...]

    @property
    def spec(self) -> str:
        return "*".join(f.spec for f in self.factors)

    def argv(self, workdir: Path) -> list[str]:
        return [
            self.command,
            "--fan",
            str(workdir / self.file),
            "--elim-cone",
            ",".join(map(str, self.elim_cone)),
            "--json",
        ]


def _pn(n: int) -> Factor:
    return Factor("pn", (n,))


def _hirzebruch(rng: random.Random) -> Factor:
    return Factor("hirzebruch", (rng.randint(0, 9),))


def _wps(rng: random.Random, k: int) -> Factor:
    # q from small primes; a repeated single prime would make the apex
    # -(q, ..., q) non-primitive, which the builder rejects, so redraw.
    while True:
        qs = [rng.choice((2, 3, 5, 7)) for _ in range(k)]
        g = 0
        for q in qs:
            g = gcd(g, q)
        if g == 1:
            return Factor("wps", (1, *qs))


# wide-presentation: products of 4-6 factors from pn=1, pn=2 and
# hirzebruch=r with rays - dim from 4 to 6 and dim <= 7.  One shape per
# cost tier, dearest first; the dense Macaulay row reduction grows with
# rays - dim, so the first shape dominates a round.  Only the cheap tier
# draws a Hirzebruch parameter: r moves an op's cost by up to 20%, which
# on a dear tier would make the round's cost depend on the seed.
# (P1)^5 x P2 (rays - dim 6, dim 7) would take ~15 s per op and is left
# out until the presentation is fast.
def _wide_round(rng: random.Random) -> list[tuple[list[Factor], str]]:
    p1, p2 = _pn(1), _pn(2)
    shapes = [
        [p1] * 6,  # rays - dim 6, dim 6
        [p1] * 3 + [p2] * 2,  # 5, dim 7
        [p1] * 4 + [p2],  # 5, dim 6: two of these hold the median op
        [p1] * 4 + [p2],
        [p1] * 3 + [_hirzebruch(rng)],  # 5, dim 5
        [p1, p2, p2, p2],  # 4, dim 7
    ]
    return [(s, "csm") for s in shapes]


# deep-cones: pn=a*pn=b with a + b = 13 or pn=a*pn=b*pn=c with a + b + c = 12,
# each part at least 2, so every fan has 26k-32k cones and rays - dim of
# 2 or 3: class assembly dominates and the presentation is cheap.
_DEEP_PAIRS = [(a, 13 - a) for a in range(2, 7)]
_DEEP_TRIPLES = [(2, 3, 7), (2, 4, 6), (2, 5, 5), (3, 3, 6), (3, 4, 5), (4, 4, 4)]


def _deep_round(rng: random.Random) -> list[tuple[list[Factor], str]]:
    pair = [_pn(n) for n in rng.choice(_DEEP_PAIRS)]
    triple = [_pn(n) for n in rng.choice(_DEEP_TRIPLES)]
    return [(pair, "csm"), (triple, "csm")]


# singular-batch: small singular fans, one or two factors from
# wps=1,q1..qk (k = 2..5) and pn<=4, so rays - dim <= 2.  Each shape runs
# once as `csm` and once as `euler`, so half the ops are Euler-only.
_SINGULAR_SHAPES = [
    ("wps", 2),
    ("wps", 3),
    ("wps", 4),
    ("wps", 5),
    ("wps", 2, "pn", 2),
    ("wps", 3, "pn", 4),
    ("wps", 2, "wps", 4),
    ("wps", 5, "pn", 3),
]


def _singular_round(rng: random.Random) -> list[tuple[list[Factor], str]]:
    out = []
    for shape in _SINGULAR_SHAPES:
        for command in ("csm", "euler"):
            factors = []
            for kind, n in zip(shape[::2], shape[1::2]):
                factors.append(_wps(rng, n) if kind == "wps" else _pn(n))
            out.append((factors, command))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    draw_round: Callable[[random.Random], list[tuple[list[Factor], str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-presentation", 6, _wide_round),
        Workload("deep-cones", 8, _deep_round),
        Workload("singular-batch", 19, _singular_round),
    )
}


def _build(tc, factors: list[Factor]):
    fan_mod = tc.fan
    fans = []
    for f in factors:
        if f.kind == "pn":
            fans.append(fan_mod.projective_space(f.params[0]))
        elif f.kind == "hirzebruch":
            fans.append(fan_mod.hirzebruch(f.params[0]))
        else:
            fans.append(fan_mod.weighted_projective(f.params))
    fan = fans[0]
    for other in fans[1:]:
        fan = fan_mod.product(fan, other)
    return fan


def _relabel(tc, fan, rng: random.Random):
    """The same fan with ray indices permuted and maximal cones shuffled."""
    r = len(fan.rays)
    perm = list(range(r))
    rng.shuffle(perm)
    rays = [None] * r
    for i, v in enumerate(fan.rays):
        rays[perm[i]] = v
    cones = [tuple(sorted(perm[j] for j in c.ray_indices)) for c in fan.max_cones]
    rng.shuffle(cones)
    return tc.fan.build_fan(fan.ambient_dim, rays, cones), cones


def generate(tc, workload: str, seed: int, workdir: Path) -> list[list[FanCase]]:
    """Write the workload's fan files for ``seed`` into ``workdir`` and
    return its rounds of cases.  ``tc`` is the imported ``toriccsm``
    package; a manifest of every fan is written beside the files."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    rounds: list[list[FanCase]] = []
    index = 0
    for r in range(w.rounds):
        drawn = w.draw_round(rng)
        rng.shuffle(drawn)
        cases = []
        for factors, command in drawn:
            factors = list(factors)
            rng.shuffle(factors)
            fan, cones = _relabel(tc, _build(tc, factors), rng)
            case = FanCase(
                index=index,
                round=r,
                file=f"{index:04d}.fan",
                factors=tuple(factors),
                command=command,
                elim_cone=rng.choice(cones),
                max_cones=oracle_max_cones(factors),
                dims=oracle_dims(factors),
            )
            (workdir / case.file).write_text(tc.formats.render_fan(fan, name=case.spec), encoding="utf-8")
            cases.append(case)
            index += 1
        rounds.append(cases)
    manifest = [
        {
            "file": c.file,
            "factors": c.spec,
            "command": c.command,
            "elim_cone": list(c.elim_cone),
            "max_cones": c.max_cones,
            "dims": list(c.dims),
        }
        for rnd in rounds
        for c in rnd
    ]
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return rounds
