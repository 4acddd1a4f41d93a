"""Exact computer algebra for the rank-n type-B extended nilHecke algebra.

The package provides the signed-permutation group and its twisted action
on a polynomial ring with odd generators, divided-difference operators,
the operator algebra in PBW normal form, extended Schur and Schubert
polynomials, the family of differentials indexed by N, and the
exterior-derivative comparison between invariants and the image of the
generator map.

All arithmetic is exact (integer/rational).  Term-level arithmetic on
the sparse polynomial dicts lives in one pure-Python module,
``nilheckeb._kernels_py``.
"""

import sys as _sys

from .extpoly import *
from .weylb import *
from .demazure import *
from .nilhecke import *
from .schur import *
from .dgstruct import *
from .solomon import *
from .report import *

__version__ = "0.1.0"

# Read the modules from sys.modules: the package attribute ``demazure`` is
# the function, not the module.
__all__ = ["__version__"] + [
    name
    for module in ("extpoly", "weylb", "demazure", "nilhecke", "schur", "dgstruct",
                   "solomon", "report")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
