"""Exact Chern-Schwartz-MacPherson classes of complete simplicial toric
varieties, computed purely from fan combinatorics.

The public surface mirrors the pipeline: build a fan (``Fan``, its alias
``build_fan`` or one of the builders, each of which validates it), build
its rational Chow presentation
(``build_presentation``), then assemble the class and Euler characteristic
(``csm_result``, ``euler_characteristic``).  All arithmetic is exact.
"""

from .errors import InternalError, ValidationError
from .exact_linalg import (
    column_lattice_index,
    determinant,
    hermite_normal_form,
    rational_rref,
    strip_zero_rows,
)
from .fan import (
    Cone,
    Fan,
    build_fan,
    hirzebruch,
    is_smooth,
    multiplicity,
    product,
    projective_space,
    weighted_projective,
)
from .chow import (
    ChowPresentation,
    GradedClass,
    Monomial,
    build_presentation,
    degree,
    graded_dimensions,
    linear_relations,
    monomial_degree,
    normal_form,
    squarefree_monomial,
    stanley_reisner_nonfaces,
)
from .csm import (
    CsmResult,
    csm_result,
    enumerate_cones,
    euler_characteristic,
)
from .formats import parse_class, parse_fan_file, parse_fan_text, render_class, render_fan

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ValidationError",
    "InternalError",
    "hermite_normal_form",
    "strip_zero_rows",
    "determinant",
    "rational_rref",
    "column_lattice_index",
    "Cone",
    "Fan",
    "build_fan",
    "enumerate_cones",
    "multiplicity",
    "is_smooth",
    "projective_space",
    "hirzebruch",
    "weighted_projective",
    "product",
    "Monomial",
    "GradedClass",
    "ChowPresentation",
    "squarefree_monomial",
    "monomial_degree",
    "stanley_reisner_nonfaces",
    "linear_relations",
    "build_presentation",
    "normal_form",
    "graded_dimensions",
    "degree",
    "CsmResult",
    "csm_result",
    "euler_characteristic",
    "parse_fan_file",
    "parse_fan_text",
    "render_fan",
    "render_class",
    "parse_class",
]
