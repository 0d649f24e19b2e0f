"""Schur rings over cyclic groups: construction, validation, enumeration,
and the decision of schurity.

The central objects are validated partitions of Z_n (`SRing`), multiplier
groups acting on Z_n (`MultiplierGroup`), and permutation groups with
stabilizer-chain support (`PermGroup`).  See the demos/ directory for
worked examples.
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
    is_normal_sring,
    is_schurian,
    minimal_nonschurian_check,
)
from .sring import (
    Section,
    SRing,
    group_ring,
    highest_classes,
    is_dense,
    is_primitive,
    is_quasidense,
    quotient,
    radical,
    radical_of_class,
    restrict,
    restrict_section,
    sections,
    tensor_split,
    validate,
    wreath_decompositions,
)

__version__ = "0.1.0"
