"""Cells, hooks and the tableau predicates that only tests read."""

from __future__ import annotations

from typing import Optional

from cyclosieve.tableaux import Composition, Partition, Tableau


def contains_cell(shape: Partition, cell: tuple[int, int]) -> bool:
    r, c = cell
    return 1 <= r <= len(shape) and 1 <= c <= shape[r - 1]


def rotated(alpha: Composition) -> Composition:
    """Content rotation under promotion: (a_1..a_k) -> (a_k, a_1..a_{k-1})."""
    if not alpha:
        return alpha
    return Composition((alpha[-1],) + alpha[:-1])


def is_row_strict(t: Tableau, bound: Optional[int] = None) -> bool:
    for row in t.rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for upper, lower in zip(t.rows, t.rows[1:]):
        if any(upper[i] > lower[i] for i in range(len(lower))):
            return False
    return bound is None or t.max_entry() <= bound


def arm_leg(shape: Partition, cell: tuple[int, int]) -> tuple[int, int]:
    r, c = cell
    if not contains_cell(Partition(shape), cell):
        raise ValueError(f"cell {cell} is not in shape {tuple(shape)}")
    arm = shape[r - 1] - c
    leg = sum(1 for row_len in shape[r:] if row_len >= c)
    return arm, leg


def hook_length(shape: Partition, cell: tuple[int, int]) -> int:
    arm, leg = arm_leg(Partition(shape), cell)
    return arm + leg + 1
