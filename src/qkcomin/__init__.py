"""Exact (equivariant) quantum K-theory of type-A Grassmannians.

The package computes in the Grothendieck ring of equivariant vector bundles
on partial flag varieties via fixed-point localization, and builds the
quantum product on a Grassmannian from curve neighborhoods of Schubert
varieties.  All arithmetic is exact: scalars are integer-coefficient
Laurent polynomials in the torus characters.
"""

from qkcomin.laurent import LaurentElement, NotDivisibleError
from qkcomin.weyl import FlagShape
from qkcomin.quantum import (
    Space,
    get_space,
    quantum_product,
    structure_table,
    verify_space,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentElement",
    "NotDivisibleError",
    "FlagShape",
    "Space",
    "get_space",
    "quantum_product",
    "structure_table",
    "verify_space",
    "__version__",
]
