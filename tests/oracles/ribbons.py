"""The m-core by pushing beads down, and column-strict labelled ribbon
tilings enumerated on cells, the independent check of the quotient count
``ribbons.count_ribbon_cst``."""

from __future__ import annotations

from typing import Iterator

from cyclosieve.ribbons import Cell, Ribbon, enumerate_tilings
from cyclosieve.tableaux import Composition, Partition, abacus, partition_from_beta


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
