"""Exact computation with classical and quantum sl(2) weight modules.

Construction of the finite-dimensional modules F_n, truncated Verma
modules, and Rasskazova's V(beta, lambda, n); tensor products under the
classical and quantum coproducts; Clebsch-Gordan decomposition; exact
extraction of highest-weight vectors, one solver per kind of weight space (a
rational bidiagonal one solved into its normal form, a quantum one of
+-v^e [a] entries by cyclotomic factors; any other by a rank mod p proving it
zero, or by Bareiss elimination), each kernel certified annihilated and complete; and evaluation of the explicit
highest-weight transfer formula against the nullspace oracle.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .qarith import *
from .modrep import *
from .tensorcg import *

__all__ = [*qarith.__all__, *modrep.__all__, *tensorcg.__all__, "__version__"]
