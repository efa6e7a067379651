"""m-ribbons, cores and quotients, column-strict ribbon tableau counting,
and the Kostka-Foulkes root-of-unity comparison.

A ribbon is a connected skew shape with no 2x2 square: equivalently a
monotone staircase of cells.  Its head is the southwesternmost cell and its
tail the northeasternmost.  Column strictness of a labeled tiling means no
ribbon's head lies in its row to the right of a ribbon with a larger label,
and no ribbon's tail lies in its column below a ribbon with a label at least
as large.  (Head comparisons by the head's row, tail comparisons by the
tail's column; the m=1 specialization is the ordinary column-strict
condition, which the tests assert.)

Cores, quotients and counts are read off the abacus
(:func:`tableaux.abacus`).  A skew shape lambda/mu carries a single-label
column-strict m-ribbon tiling (a horizontal m-ribbon strip) exactly when
both shapes have the same bead count on every runner and each pair of their
m-quotient partitions differs by an ordinary horizontal strip (Lascoux,
Leclerc and Thibon, J. Math. Phys. 38, 1997).  Counting therefore runs on
the quotient, with no cell in sight: :func:`tableaux.cst_tuple_count`
peels the last label off as one horizontal strip per quotient shape.  The
labeled-tiling enumeration on cells, in ``tests/oracles/ribbons.py``, is the
independent check.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .cyclotomic import as_integer, eval_at_root
from .qpolys import kostka_foulkes
from .tableaux import Composition, Partition, abacus, cst_tuple_count

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


def spin_sign(outer: Partition, inner: Partition, m: int) -> int:
    """(-1) to the total ribbon height of any tiling; 0 if untileable."""
    tilings = enumerate_tilings(outer, inner, m)
    if not tilings:
        return 0
    signs = {(-1) ** sum(_ribbon_height(r) for r in tiling) for tiling in tilings}
    if len(signs) != 1:
        raise AssertionError(f"tiling-dependent sign for {tuple(outer)}/{tuple(inner)}")
    return signs.pop()


def count_ribbon_cst(shape: Partition, m: int, beta: Composition) -> int:
    """K^m_{shape,beta}: column-strict m-ribbon tableaux of the full shape.

    They are counted as m-tuples of column-strict tableaux of the m-quotient
    shapes, none when the m-core is not empty (the quotient is then too
    small).
    """
    _, quotient = abacus(shape, m)
    if sum(shape) != m * Composition(beta).size:
        return 0
    return cst_tuple_count(quotient, beta)


def reduced_content(alpha: Composition, d: int) -> Optional[Composition]:
    """Divide every part multiplicity of alpha by d, or None if not divisible."""
    mult: dict[int, int] = {}
    for part in alpha:
        if part:
            mult[part] = mult.get(part, 0) + 1
    if any(count % d for count in mult.values()):
        return None
    parts: list[int] = []
    for value in sorted(mult, reverse=True):
        parts.extend([value] * (mult[value] // d))
    return Composition(parts)


def kf_root_of_unity_check(
    shape: Partition, alpha: Composition, d: int, cap: Optional[int] = None
) -> dict:
    """Compare |K_{shape,alpha}| at an order-d root of unity with the
    d-ribbon tableau count of the reduced content.

    When every part multiplicity of alpha is divisible by d this is a
    theorem and the verdict asserts the equality.  When it is not, the
    report still evaluates the claimed vanishing, but that claim is false
    in general (K at its own content is constant 1, and e.g. shape (4),
    content (3,1), d=2 evaluates to -1); none of the sieving results depend
    on it, and the report ends in a ``note`` saying so.
    """
    shape = Partition(shape)
    alpha = Composition(alpha)
    if d < 1:
        raise ValueError("the root order must be positive")
    value = as_integer(eval_at_root(kostka_foulkes(shape, alpha, cap), d, 1))
    reduced = reduced_content(alpha, d)
    expected = None if reduced is None else count_ribbon_cst(shape, d, reduced)
    report = {
        "family": "kostka-foulkes-root-of-unity",
        "parameters": {"shape": list(shape), "content": list(alpha), "order": d},
        "evaluation": value,
        "multiplicities_divisible": reduced is not None,
        "ribbon_count": expected,
        "verdict": value == 0 if reduced is None else value is not None and abs(value) == expected,
    }
    if reduced is None:
        report["note"] = (
            "claimed vanishing outside the divisible branch; the claim fails "
            "in general and is reported as observed"
        )
    return report
