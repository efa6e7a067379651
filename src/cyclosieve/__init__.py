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
    syt_count,
)
from .permutations import (
    Permutation,
    cycle_type,
    long_cycle,
    long_element,
    rsk_inverse,
)
from .qpolys import (
    IntPolynomial,
    QProduct,
    charge,
    kappa,
    kostka_foulkes,
    mn_character,
)
from .cyclotomic import CyclotomicElement, as_integer, cyclotomic_polynomial, eval_at_root, zeta

__all__ = [name for name in dir() if not name.startswith("_")]
