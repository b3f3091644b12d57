"""L2-Alexander torsion functions in the computable free-abelian-twist regime.

Building blocks: exact sparse Laurent polynomial algebra (``laurent``),
cohomology classes and the determinant twist (``twist``), Mahler measures
(``mahler``), determinant-function degree analysis (``degree``), torsion
assembly for 3-manifold presentations and closed-form families
(``torsion3m``), and a CLI (``cli``). The audits of the paper's claims
about these results (symmetry, Lipschitz degree, hexagonal norm ball) live
in the tests' ``oracles.py``.

The quadrature's slice kernel (``kernels``) is numpy: closed forms for
degrees 0 and 1, a lockstep Aberth-Ehrlich iteration above, with
companion-matrix eigenvalues for slices still running at its iteration
cap. A single one-variable polynomial takes companion-matrix eigenvalues
directly. ``KERNEL_BACKEND`` names the kernel.
"""

from .degree import (AsymptoteReport, ConvexityReport, DetFunction,
                     chief_part, convexity_check, det_function)
from .errors import (ChiefPartTieError, DegenerateSliceError,
                     IllConditionedError, InputError, L2AlexError,
                     QuadratureBudgetError, VariableCountMismatch,
                     ZeroPolynomialError)
from .kernels import KERNEL_BACKEND
from .laurent import LaurentMatrix, LaurentPoly
from .mahler import MahlerResult, RootData, mahler_mv_report, roots
from .quadrature import geometric_grid
from .torsion3m import (FIGURE_EIGHT_ENTROPY, FIGURE_EIGHT_VOLUME, UNSPECIFIED,
                        V3, ConstantTorsion, FiberedTorsion, GraphTorsion,
                        PresentationTorsion, ProductTorsion, TorsionSpec,
                        torsion_degree, torsion_from_presentation,
                        triple_figure_eight, triple_figure_eight_torsion)
from .twist import CohomClass, exponent_bound, twist

__version__ = "0.1.0"

__all__ = [
    "AsymptoteReport", "ChiefPartTieError", "CohomClass", "ConstantTorsion",
    "ConvexityReport", "DegenerateSliceError", "DetFunction", "FiberedTorsion",
    "FIGURE_EIGHT_ENTROPY", "FIGURE_EIGHT_VOLUME", "GraphTorsion",
    "IllConditionedError", "InputError", "KERNEL_BACKEND", "L2AlexError",
    "LaurentMatrix", "LaurentPoly", "MahlerResult", "PresentationTorsion",
    "ProductTorsion", "QuadratureBudgetError", "RootData", "TorsionSpec",
    "UNSPECIFIED", "V3", "VariableCountMismatch", "ZeroPolynomialError",
    "chief_part", "convexity_check", "det_function", "exponent_bound",
    "geometric_grid", "mahler_mv_report", "roots", "torsion_degree",
    "torsion_from_presentation", "triple_figure_eight",
    "triple_figure_eight_torsion", "twist",
]
