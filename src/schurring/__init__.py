"""Schur rings over cyclic groups: construction, validation, enumeration,
and the decision of schurity.

The central objects are S-rings over Z_n, kept as class-label vectors
(`SRing`), multiplier groups acting on Z_n (`MultiplierGroup`), and
permutation groups with stabilizer-chain support (`PermGroup`).  Most
rings are built by theorem; `validate` checks a partition from outside.
See the demos/ directory for worked examples.
"""

from .arith import (
    Classification,
    Factorization,
    classify,
    classify_families,
    factorize,
    find_nonschur_split,
    omega,
    omega_star,
)
from .catalog import Catalog, CensusReport, brute_force_enumerate, census, enumerate_srings
from .construct import (
    MultiplierGroup,
    cyclotomic,
    gen_wreath,
    is_cyclotomic,
    k_m,
    rank2,
    tensor,
    units,
    witness,
    witness_detailed,
)
from .perm import PermGroup, perm_gen_wreath, translations
from .schurity import (
    SchurityVerdict,
    automorphism_group,
    color,
    is_schurian,
    minimal_nonschurian_check,
)
from .sring import (
    SRing,
    group_ring,
    is_dense,
    is_primitive,
    is_quasidense,
    quotient,
    radical,
    radical_of_class,
    restrict,
    tensor_split,
    validate,
    wreath_decompositions,
)

__version__ = "0.1.0"
