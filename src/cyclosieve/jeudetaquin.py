"""Promotion and evacuation on whole sets of tableaux.

A set is held as one small-integer array of packed row-reading words, as
``tableaux.enumerate_syt`` and ``tableaux.enumerate_cst`` return it with
``packed=True``.  :func:`promotion_permutation` deletes every k, slides the
holes of every tableau together, column by column, northwest (pulling in the
larger of the north and west neighbours, north on ties, the rule of
``tableaux._slide``), then increments everything and fills the holes with
1s.  :func:`evacuation_permutation` evacuates a set of rectangular tableaux
in the same array, where no slide is needed.  Both return the permutation of
the set as one ``np.intp`` array, which ``sieving.FiniteAction`` keeps as it
is and reads its cycle-size histogram from with whole-array steps.

Promotion, demotion, evacuation and (semi)standardization of one tableau
at a time, each built from ``tableaux._slide``, are the test oracles in
``tests/oracles/jeudetaquin.py``; ``_slide`` stays in ``tableaux`` for
``extended_descent_set``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .tableaux import Partition


class _Cells(NamedTuple):
    """Index tables over the row-reading word of a shape.  A packed word
    has two more entries after its n cells: an always-empty sentinel at
    index n and the bound k + 1 at index n + 1."""

    north: np.ndarray  # the north neighbour of every cell, or the sentinel
    west: np.ndarray  # the west neighbour of every cell, or the sentinel
    bottom: np.ndarray  # the bottom cell of every column
    reach: list[int]  # 1 + the most steps a hole takes from each column's bottom
    weak: np.ndarray  # 2 x m: (west, east) of every horizontal domino
    strict: np.ndarray  # 2 x m: (north, south) of every vertical domino, and (bottom, bound)


@cache
def _cells(shape: tuple[int, ...]) -> _Cells:
    n = sum(shape)
    north, west = [n] * (n + 1), [n] * (n + 1)
    start = 0
    for r, length in enumerate(shape):
        for i in range(start, start + length):
            if r:
                north[i] = i - shape[r - 1]
            if i > start:
                west[i] = i - 1
        start += length
    heights = [sum(1 for length in shape if length > c) for c in range(shape[0] if shape else 0)]
    bottom = [c + sum(shape[:height - 1]) for c, height in enumerate(heights)]
    weak = [(west[i], i) for i in range(n) if west[i] < n]
    strict = [(north[i], i) for i in range(n) if north[i] < n] + [(b, n + 1) for b in bottom]
    return _Cells(
        np.array(north, dtype=np.intp),
        np.array(west, dtype=np.intp),
        np.array(bottom, dtype=np.intp),
        [height + c for c, height in enumerate(heights)],
        np.array(weak, dtype=np.intp).reshape(-1, 2).T,
        np.array(strict, dtype=np.intp).reshape(-1, 2).T,
    )


def _check_words(words: np.ndarray, shape: tuple[int, ...], k: int) -> None:
    """Raise unless every packed word is column-strict with entries <= k, the
    test of ``Tableau.is_column_strict(k)``."""
    n = sum(shape)
    if words.ndim != 2 or words.shape[1] != n + 2:
        raise ValueError(f"packed words of shape {shape} have {n + 2} entries")
    if (words[:, n] != 0).any() or (words[:, n + 1] != k + 1).any():
        raise ValueError(f"packed words must end with 0 and k + 1 = {k + 1}")
    cells = _cells(shape)
    (west, east), (north, south) = cells.weak, cells.strict
    rows_fall = (words.take(west, 1) > words.take(east, 1)).any()
    if rows_fall or (words.take(north, 1) >= words.take(south, 1)).any():
        raise ValueError(f"not a column-strict tableau with entries <= {k}")


def _promote_words(words: np.ndarray, shape: tuple[int, ...], k: int, power: int) -> np.ndarray:
    """Promote every packed word of ``words`` ``power`` times.

    The holes of a column slide together with the rule of
    :func:`tableaux._slide`: the larger of the north and west neighbours
    moves in, north on ties.  A step copies that neighbour into the hole's
    cell and moves the hole there; the copy left behind is overwritten by
    the next step.  A hole whose two neighbours are empty takes their 0 and
    keeps stepping north through empty cells, which moves no entry, until
    the column's longest slide is over.
    """
    north, west, bottom, reach, _, _ = _cells(shape)
    n = len(north) - 1
    images = words.copy()
    flat = images.reshape(-1)  # a view: cell c of word i is flat[i * (n + 2) + c]
    for _ in range(power):
        # A column's k can only sit at its bottom, and a column keeps its
        # entries until its own hole slides.
        holes = images.take(bottom, 1) == k
        for column in np.flatnonzero(holes.any(axis=0)):
            rows, at = np.flatnonzero(holes[:, column]) * (n + 2), bottom[column]
            for _ in range(reach[column]):
                up, left = north[at], west[at]
                up_value, left_value = flat.take(rows + up), flat.take(rows + left)
                west_wins = left_value > up_value
                flat[rows + at] = np.where(west_wins, left_value, up_value)
                at = np.where(west_wins, left, up)
        images[:, :n] += 1
    return images


def promotion_permutation(words: np.ndarray, shape: Partition, k: int, power: int = 1) -> np.ndarray:
    """The permutation by which the ``power``-th power of promotion acts on a set.

    ``words`` are the packed row-reading words of distinct tableaux of the
    given shape, sorted, as ``enumerate_syt`` and ``enumerate_cst`` return
    them with ``packed=True``.  Entry i of the resulting ``np.intp`` array
    is the index of the image of the i-th tableau.  Raises ``ValueError``
    when the power is negative, when a word is not column-strict with
    entries <= k, or when promotion does not map the set onto itself.
    """
    if power < 0:
        raise ValueError(f"the promotion power must be nonnegative, got {power}")
    shape = tuple(shape)
    _check_words(words, shape, k)
    return _image_permutation(words, _promote_words(words, shape, k, power), "promotion")


def _image_permutation(words: np.ndarray, images: np.ndarray, action: str) -> np.ndarray:
    """The permutation of a set as an ``np.intp`` array: entry i is the
    index in ``words`` of ``images[i]``, the image of element i.

    The images, sorted, must be the rows of ``words`` themselves, which must
    be sorted and distinct: then every image lies in the set and the action
    permutes it.
    """
    order = np.lexsort(images.T[::-1])  # element order[j] maps to element j
    distinct = len(words) < 2 or (words[1:] != words[:-1]).any(axis=1).all()
    if not distinct or (images[order] != words).any():
        raise ValueError(f"{action} does not permute the given set of distinct, sorted elements")
    generator = np.empty(len(words), dtype=np.intp)
    generator[order] = np.arange(len(words))
    return generator


def evacuation_permutation(words: np.ndarray, shape: Partition, k: int) -> np.ndarray:
    """The permutation by which evacuation with entries <= k acts on a set
    of tableaux of rectangular shape, given as in
    :func:`promotion_permutation`, as an ``np.intp`` array.

    On a rectangle evacuation slides nothing: it rotates the tableau by 180
    degrees and replaces every entry x by k + 1 - x, which reverses the row
    word and complements it.  Raises ``ValueError`` on a non-rectangular
    shape, when a word is not column-strict with entries <= k, or when
    evacuation does not map the set onto itself.
    """
    shape = tuple(shape)
    if len(set(shape)) > 1:
        raise ValueError(f"evacuation on packed words needs a rectangular shape, got {shape}")
    _check_words(words, shape, k)
    n = sum(shape)
    images = words.copy()
    images[:, :n] = k + 1 - words[:, :n][:, ::-1]
    return _image_permutation(words, images, "evacuation")
