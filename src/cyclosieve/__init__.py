"""Exact verification of cyclic-sieving and dihedral fixed-point identities
for jeu-de-taquin promotion, Kazhdan-Lusztig cells, ribbon tableaux, and
Catalan-family actions."""

from .tableaux import (
    CapExceeded,
    Composition,
    Partition,
    Tableau,
    css,
    cst_count,
    cst_tuple_count,
    descent_set,
    dominance_leq,
    enumerate_cst,
    enumerate_rst,
    enumerate_syt,
    extended_descent_set,
    hook_length,
    syt_count,
)
from .jeudetaquin import (
    demote,
    evacuate,
    is_semistandardizable,
    promote,
    promote_power,
    semistandardize,
    standardize,
)
from .permutations import (
    Permutation,
    bruhat_leq,
    cycle_type,
    identity,
    long_cycle,
    long_element,
    rsk,
    rsk_inverse,
    simple,
)
from .qpolys import (
    IntPolynomial,
    QProduct,
    charge,
    kappa,
    kostka_foulkes,
    mn_character,
    q_factorial,
    q_int,
    schur_evaluate,
    schur_principal_specialization,
)
from .cyclotomic import CyclotomicElement, as_integer, cyclotomic_polynomial, eval_at_root, zeta

__all__ = [name for name in dir() if not name.startswith("_")]
