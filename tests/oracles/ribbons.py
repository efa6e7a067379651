"""Ribbons on cells: the m-core by pushing beads down, every m-ribbon
tiling of a skew shape, and the column-strict labelled tilings.  They are
the independent checks of ``ribbons.spin_sign`` and
``ribbons.count_ribbon_cst``, which read the abacus.

A ribbon is a monotone staircase of cells.  Its head is the
southwesternmost cell and its tail the northeasternmost.  Column strictness
of a labeled tiling means no ribbon's head lies in its row to the right of
a ribbon with a larger label, and no ribbon's tail lies in its column below
a ribbon with a label at least as large.  (Head comparisons by the head's
row, tail comparisons by the tail's column; the m=1 specialization is the
ordinary column-strict condition, which the tests assert.)
"""

from __future__ import annotations

from typing import Iterator

from cyclosieve.tableaux import Composition, Partition, abacus, partition_from_beta

Cell = tuple[int, int]  # 0-indexed (row, col) internally
Ribbon = tuple[Cell, ...]  # cells ordered from tail (NE) to head (SW)


def _skew_cells(outer: Partition, inner: Partition) -> frozenset[Cell]:
    if not outer.contains(inner):
        raise ValueError(f"{tuple(inner)} is not contained in {tuple(outer)}")
    inner_padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    return frozenset(
        (r, c)
        for r in range(len(outer))
        for c in range(inner_padded[r], outer[r])
    )


def _ribbons_with_tail(cells: frozenset[Cell], tail: Cell, m: int) -> Iterator[Ribbon]:
    """All m-cell staircases inside ``cells`` whose northeast end is ``tail``."""

    def extend(path: tuple[Cell, ...]) -> Iterator[Ribbon]:
        if len(path) == m:
            yield path
            return
        r, c = path[-1]
        for nxt in ((r + 1, c), (r, c - 1)):  # predecessors: south or west
            if nxt in cells and nxt not in path:
                yield from extend(path + (nxt,))

    yield from extend((tail,))


def enumerate_tilings(outer: Partition, inner: Partition, m: int) -> list[tuple[Ribbon, ...]]:
    """All tilings of the skew shape by m-ribbons (unlabeled)."""
    cells = _skew_cells(Partition(outer), Partition(inner))
    if len(cells) % m:
        return []
    out: list[tuple[Ribbon, ...]] = []

    def rec(remaining: frozenset[Cell], acc: tuple[Ribbon, ...]) -> None:
        if not remaining:
            out.append(acc)
            return
        tail = min(remaining, key=lambda rc: (rc[0], -rc[1]))  # topmost, then rightmost
        for ribbon in _ribbons_with_tail(remaining, tail, m):
            rec(remaining - frozenset(ribbon), acc + (ribbon,))

    rec(cells, ())
    return out


def _ribbon_height(ribbon: Ribbon) -> int:
    rows = {r for r, _ in ribbon}
    return max(rows) - min(rows)


def m_core(shape: Partition, m: int) -> Partition:
    """The m-core: push all abacus beads down on their runners."""
    counts, _ = abacus(shape, m)
    return partition_from_beta(
        [runner + m * level for runner, count in enumerate(counts) for level in range(count)]
    )


def _labeling_is_column_strict(labeled: list[tuple[Ribbon, int]]) -> bool:
    occupied: dict[Cell, int] = {}
    for idx, (ribbon, _) in enumerate(labeled):
        for cell in ribbon:
            occupied[cell] = idx
    for idx, (ribbon, label) in enumerate(labeled):
        tail = ribbon[0]
        head = ribbon[-1]
        for (r, c), other in occupied.items():
            if other == idx:
                continue
            other_label = labeled[other][1]
            if r == head[0] and c < head[1] and other_label > label:
                return False
            if c == tail[1] and r < tail[0] and other_label >= label:
                return False
    return True


def enumerate_ribbon_cst(
    outer: Partition, inner: Partition, m: int, content: Composition
) -> list[tuple[tuple[Ribbon, int], ...]]:
    """All column-strict labeled m-ribbon tilings with the given content.

    Exponential-time oracle on cells, the independent check of the quotient
    count ``ribbons.count_ribbon_cst``.
    """
    content = Composition(content)
    labels: list[int] = []
    for value, mult in enumerate(content, start=1):
        labels.extend([value] * mult)
    results = []
    for tiling in enumerate_tilings(outer, inner, m):
        if len(tiling) != len(labels):
            continue
        seen: set[tuple[tuple[Ribbon, int], ...]] = set()
        for assignment in _distinct_permutations(tuple(labels)):
            labeled = tuple(zip(tiling, assignment))
            if labeled in seen:
                continue
            seen.add(labeled)
            if _labeling_is_column_strict(list(labeled)):
                results.append(labeled)
    return results


def _distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not values:
        yield ()
        return
    seen = set()
    for i, v in enumerate(values):
        if v in seen:
            continue
        seen.add(v)
        for rest in _distinct_permutations(values[:i] + values[i + 1:]):
            yield (v,) + rest
