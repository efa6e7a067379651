"""Jeu de taquin one tableau at a time, and (semi)standardization.

Each operation is built from the one slide ``tableaux._slide``, which moves
a hole until nothing can fill it.  Holes are processed in a fixed order, and
a hole that has not slid yet is never disturbed by the others:

- promotion deletes every k, slides the holes northwest in increasing
  column order (pulling in the larger of the north/west neighbours, north on
  ties), then increments everything and fills the holes with 1s;
- demotion deletes every 1, slides the holes southeast in decreasing column
  order (pulling in the smaller of the south/east neighbours, south on
  ties), then fills the holes with k;
- evacuation rotates the tableau by 180 degrees and complements its entries
  inside the bounding box, then slides the empty cells southeast in reverse
  row-major order, removing each one from the end of the row where it stops.

Row-strict promotion is conjugation by transposition.  The program acts on
whole sets instead, with ``jeudetaquin.promotion_permutation`` and
``jeudetaquin.evacuation_permutation``.
"""

from __future__ import annotations

from typing import Optional

from cyclosieve.tableaux import Composition, Tableau, _slide, descent_set

from .tableaux import is_row_strict


def _holes(grid: list[list]) -> list[tuple[int, int]]:
    """The (col, row) of every hole, sorted; deleting the ks or the 1s of a
    column-strict tableau leaves at most one hole per column."""
    return sorted((c, r) for r, row in enumerate(grid) for c, val in enumerate(row) if val is None)


def promote(t: Tableau, k: int) -> Tableau:
    """One step of jeu-de-taquin promotion on CST(shape, k)."""
    if not t.is_column_strict(k):
        raise ValueError(f"not a column-strict tableau with entries <= {k}")
    grid: list[list] = [[None if val == k else val for val in row] for row in t.rows]
    for c, r in _holes(grid):
        _slide(grid, r, c, False)
    return Tableau([[1 if val is None else val + 1 for val in row] for row in grid])


def demote(t: Tableau, k: int) -> Tableau:
    """The inverse of :func:`promote`."""
    if not t.is_column_strict(k):
        raise ValueError(f"not a column-strict tableau with entries <= {k}")
    grid: list[list] = [[None if val == 1 else val - 1 for val in row] for row in t.rows]
    for c, r in reversed(_holes(grid)):
        _slide(grid, r, c, True)
    return Tableau([[k if val is None else val for val in row] for row in grid])


def promote_power(t: Tableau, k: int, d: int) -> Tableau:
    """Apply promotion (d >= 0) or demotion (d < 0) repeatedly."""
    for _ in range(abs(d)):
        t = promote(t, k) if d > 0 else demote(t, k)
    return t


def evacuate(t: Tableau, k: Optional[int] = None) -> Tableau:
    """Schutzenberger evacuation: rotate 180 degrees, complement, rectify.

    The rectangle used for the embedding is the bounding box of the shape;
    rectification is translation invariant so nothing larger is needed.
    """
    if k is None:
        k = t.size
    if not t.is_column_strict(k):
        raise ValueError(f"not a column-strict tableau with entries <= {k}")
    shape = t.shape
    if not shape:
        return t
    ncols = shape[0]
    # The rotated complement fills the southeast of the box; the empty cells
    # before it in each row form an order ideal.
    grid: list[list] = [
        [None] * (ncols - len(row)) + [k + 1 - val for val in reversed(row)]
        for row in reversed(t.rows)
    ]
    for r in reversed(range(len(grid))):
        for c in reversed(range(ncols - shape[-1 - r])):
            rr, _ = _slide(grid, r, c, True)
            grid[rr].pop()  # the hole always stops at the end of a row
    out = Tableau(grid)
    if out.shape != shape:
        raise AssertionError(f"evacuation changed the shape: {shape} -> {out.shape}")
    return out


def standardize(p: Tableau) -> Tableau:
    """std(P) for row-strict P: number equal entries along their vertical strip.

    Cells holding the same value are taken top to bottom (equivalently right
    to left), which is the unique order making std invert semistandardization.
    """
    if not is_row_strict(p):
        raise ValueError("standardize expects a row-strict tableau")
    cells = [(val, r, c) for r, row in enumerate(p.rows) for c, val in enumerate(row)]
    cells.sort(key=lambda vrc: (vrc[0], vrc[1]))
    grid = [list(row) for row in p.rows]
    for number, (_, r, c) in enumerate(cells, start=1):
        grid[r][c] = number
    return Tableau(grid)


def _block_intervals(alpha: Composition) -> list[tuple[int, int]]:
    """The intervals [start, end] of values that each part of alpha absorbs."""
    out = []
    start = 1
    for part in alpha:
        out.append((start, start + part - 1))
        start += part
    return out


def is_semistandardizable(t: Tableau, alpha: Composition) -> bool:
    """True iff every interval of alpha sits inside the descent set of t."""
    alpha = Composition(alpha)
    if alpha.size != t.size:
        raise ValueError("composition size must match tableau size")
    d = descent_set(t)
    for start, end in _block_intervals(alpha):
        if any(i not in d for i in range(start, end)):
            return False
    return True


def semistandardize(t: Tableau, alpha: Composition) -> Optional[Tableau]:
    """rst_alpha(T): collapse the value blocks of alpha, or None if not allowed."""
    alpha = Composition(alpha)
    if alpha.size != t.size:
        raise ValueError("composition size must match tableau size")
    if not is_semistandardizable(t, alpha):
        return None
    label = {}
    for i, (start, end) in enumerate(_block_intervals(alpha), start=1):
        for v in range(start, end + 1):
            label[v] = i
    out = Tableau([tuple(label[v] for v in row) for row in t.rows])
    if not is_row_strict(out, len(alpha)):
        raise AssertionError("semistandardization produced a non-row-strict filling")
    return out
