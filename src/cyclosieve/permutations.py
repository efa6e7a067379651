"""Permutations, cycle types, and inverse RSK.

One-line notation throughout: ``w = (w_1, ..., w_n)`` sends i to w_i.
Composition is ``(u * v)(i) = u(v(i))``, so ``s_i * w`` swaps the values
i, i+1 while ``w * s_i`` swaps positions i, i+1.  Bruhat order, row
insertion and the simple reflections are the test oracles in
``tests/oracles/permutations.py``.
"""

from __future__ import annotations

from typing import Iterable

from .tableaux import Partition, Tableau


class Permutation(tuple):
    """A permutation of [n] in one-line notation."""

    def __new__(cls, values: Iterable[int]) -> "Permutation":
        values = tuple(int(v) for v in values)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise ValueError(f"not a permutation of [n]: {values}")
        return super().__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(tuple(self[other[i] - 1] for i in range(len(self))))

    def __repr__(self) -> str:
        return "".join(map(str, self)) if self and len(self) <= 9 else f"Permutation{tuple(self)}"


def long_element(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def long_cycle(n: int) -> Permutation:
    """The n-cycle (1, 2, ..., n) sending i to i+1; empty for n = 0."""
    return Permutation(tuple(range(2, n + 1)) + (1,) if n else ())


def cycle_type(w: Permutation) -> Partition:
    w = Permutation(w)
    seen = [False] * len(w)
    lengths = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        size = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = w(i)
            size += 1
        lengths.append(size)
    return Partition(sorted(lengths, reverse=True))


def rsk_inverse(p: Tableau, q: Tableau) -> Permutation:
    """The permutation row-inserting to the pair (p, q)."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have equal shapes")
    if not (p.is_standard() and q.is_standard()):
        raise ValueError("inverse RSK expects standard tableaux")
    p_rows = [list(row) for row in p.rows]
    letters: list[int] = []
    for step in range(p.size, 0, -1):
        r, c = q.position(step)
        r -= 1
        value = p_rows[r].pop()
        if not p_rows[r]:
            p_rows.pop()
        while r > 0:
            r -= 1
            row = p_rows[r]
            # un-bump: the rightmost entry strictly smaller than the value
            lo, hi = 0, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            row[lo - 1], value = value, row[lo - 1]
        letters.append(value)
    return Permutation(letters[::-1])
