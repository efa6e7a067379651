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

Counting goes by peeling the maximal label off as a horizontal ribbon strip
and recursing; the abacus quotient factorization provides the independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, Optional

from .cyclotomic import as_integer, eval_at_root
from .qpolys import _beta_set, _partition_from_beta, kostka_foulkes
from .tableaux import Composition, Partition

Cell = tuple[int, int]  # 0-indexed (row, col) internally
Ribbon = tuple[Cell, ...]  # cells ordered from tail (NE) to head (SW)


def _runner_length(shape: Partition, m: int) -> int:
    rows = max(len(shape), 1)
    return m * ((rows + m - 1) // m)


def m_core(shape: Partition, m: int) -> Partition:
    """The m-core: push all abacus beads down on their runners."""
    if m < 1:
        raise ValueError("ribbon size must be positive")
    shape = Partition(shape)
    length = _runner_length(shape, m)
    beta = _beta_set(shape, length)
    new_beta: list[int] = []
    for runner in range(m):
        count = sum(1 for b in beta if b % m == runner)
        new_beta.extend(runner + m * level for level in range(count))
    return _partition_from_beta(new_beta)


def m_quotient(shape: Partition, m: int) -> tuple[Partition, ...]:
    """The m-tuple of partitions carved out of the abacus runners."""
    if m < 1:
        raise ValueError("ribbon size must be positive")
    shape = Partition(shape)
    length = _runner_length(shape, m)
    beta = _beta_set(shape, length)
    quotient = []
    for runner in range(m):
        levels = sorted((b - runner) // m for b in beta if b % m == runner)
        quotient.append(_partition_from_beta(levels))
    return tuple(quotient)


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

    Exponential-time oracle used for cross-checks; the counting routine
    below is the production path.
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


@cache
def _is_horizontal_strip(outer: Partition, inner: Partition, m: int) -> bool:
    """Whether outer/inner carries a single-label column-strict m-ribbon tiling.

    Single label makes the head condition vacuous; the tail condition says
    every ribbon's tail is the topmost strip cell of its column.
    """
    cells = _skew_cells(outer, inner)
    if len(cells) % m:
        return False
    if not cells:
        return True
    tops = {}
    for r, c in cells:
        tops[c] = min(tops.get(c, r), r)

    def rec(remaining: frozenset[Cell]) -> bool:
        if not remaining:
            return True
        tail = min(remaining, key=lambda rc: (rc[0], -rc[1]))
        if tops[tail[1]] != tail[0]:
            return False  # this cell can only ever be a tail, but sits below a strip cell
        for ribbon in _ribbons_with_tail(remaining, tail, m):
            if rec(remaining - frozenset(ribbon)):
                return True
        return False

    return rec(cells)


def _subpartitions_of_size(outer: Partition, size: int) -> Iterator[Partition]:
    """Partitions nested inside ``outer`` with the given size."""
    outer = Partition(outer)

    def rec(row: int, prev: int, left: int, acc: list[int]) -> Iterator[Partition]:
        if left == 0:
            yield Partition(acc)
            return
        if row >= len(outer):
            return
        hi = min(prev, outer[row])
        for part in range(hi, 0, -1):
            if part > left:
                continue
            acc.append(part)
            yield from rec(row + 1, part, left - part, acc)
            acc.pop()

    yield from rec(0, outer[0] if outer else 0, size, [])


@cache
def _count_ribbon_cst(outer: Partition, m: int, beta: tuple[int, ...]) -> int:
    if not beta:
        return 1 if not outer else 0
    r = beta[-1]
    rest = beta[:-1]
    if r == 0:
        return _count_ribbon_cst(outer, m, rest)
    need = outer.size - r * m
    if need < 0:
        return 0
    total = 0
    for nu in _subpartitions_of_size(outer, need):
        if _is_horizontal_strip(outer, nu, m):
            total += _count_ribbon_cst(nu, m, rest)
    return total


def count_ribbon_cst(shape: Partition, m: int, beta: Composition) -> int:
    """K^m_{shape,beta}: column-strict m-ribbon tableaux of the full shape."""
    if m < 1:
        raise ValueError("ribbon size must be positive")
    shape = Partition(shape)
    beta = Composition(beta)
    if shape.size != m * beta.size:
        return 0
    return _count_ribbon_cst(shape, m, tuple(beta))


@dataclass
class KFRootReport:
    shape: Partition
    alpha: Composition
    order: int
    evaluation: Optional[int]
    divisible: bool
    ribbon_count: Optional[int]
    matches: bool
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "family": "kostka-foulkes-root-of-unity",
            "parameters": {
                "shape": list(self.shape),
                "content": list(self.alpha),
                "order": self.order,
            },
            "evaluation": self.evaluation,
            "multiplicities_divisible": self.divisible,
            "ribbon_count": self.ribbon_count,
            "verdict": self.matches,
        }
        if self.note:
            out["note"] = self.note
        return out


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
) -> KFRootReport:
    """Compare |K_{shape,alpha}| at an order-d root of unity with the
    d-ribbon tableau count of the reduced content.

    When every part multiplicity of alpha is divisible by d this is a
    theorem and the verdict asserts the equality.  When it is not, the
    report still evaluates the claimed vanishing, but that claim is false
    in general (K at its own content is constant 1, and e.g. shape (4),
    content (3,1), d=2 evaluates to -1); none of the sieving results depend
    on it.
    """
    shape = Partition(shape)
    alpha = Composition(alpha)
    if d < 1:
        raise ValueError("the root order must be positive")
    value = as_integer(eval_at_root(kostka_foulkes(shape, alpha, cap), d, 1))
    reduced = reduced_content(alpha, d)
    if reduced is None:
        note = (
            "claimed vanishing outside the divisible branch; the claim fails "
            "in general and is reported as observed"
        )
        return KFRootReport(shape, alpha, d, value, False, None, value == 0, note)
    expected = count_ribbon_cst(shape, d, reduced)
    matches = value is not None and abs(value) == expected
    return KFRootReport(shape, alpha, d, value, True, expected, matches)
